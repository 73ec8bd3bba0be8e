"""Guards on the repository's check scripts."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the check steps the CI workflow ran inline before tools/check_outputs.py
# held them, in their order, and the checks added since
STEP_NAMES = [
    "reference outputs", "semidiff witness distances", "continuity distances",
    "probe ties and polygons", "phase-one outputs", "table reads", "lone-point memory",
    "document memory", "table memory", "ray reads on zero walls", "census grids", "census grid on the 4-cube",
    "plane validation", "solid validation", "cloud validation", "kernel basis",
    "oracle outputs", "documents", "zero walls in R^5",
]


def _check_outputs():
    """tools/check_outputs.py loaded as a module, without running its checks."""
    spec = importlib.util.spec_from_file_location("check_outputs",
                                                  ROOT / "tools" / "check_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_table_keeps_every_step_and_digest():
    # dropping a check or a digest needs an edit here; the reference and
    # memory checks assert instead of hashing
    checks = _check_outputs().CHECKS
    assert list(checks) == STEP_NAMES
    hashing = {name: digests for name, (digests, _) in checks.items() if digests}
    assert sorted(set(checks) - set(hashing)) == [
        "document memory", "lone-point memory", "reference outputs", "table memory"]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for ds in hashing.values() for d in ds)
    assert len(hashing) == 15 and sum(map(len, hashing.values())) == 16
    assert len(hashing["ray reads on zero walls"]) == 2


def test_workflow_runs_the_check_script():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert "python tools/tier1.py" in workflow
    assert "python tools/check_outputs.py" in workflow
    assert "sha256sum" not in workflow
