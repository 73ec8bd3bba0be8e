"""Run the Tier-1 test suite and check its result against the baseline.

    python tools/tier1.py

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root with ``src`` on PYTHONPATH, writing a JUnit XML report.
Exits 0 only when the failures are exactly the two acceptance criteria that
fail on purpose (the classical n-d vertex count and Hausdorff settling of
quotient sets are false, see README) and nothing errors; otherwise prints
the counts and the unexpected names, and exits 1.  After the counts it prints
the suite's wall time, the line count of the package source under ``src/``
and the suite's three slowest tests, read off the report's ``time``
attributes.
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_4_vertex_count_census",
    "tests.test_acceptance::test_criterion_8_semidifferentiability",
}


def run_suite(xml_path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-m", "pytest", "-q",
                    "--continue-on-collection-errors", f"--junitxml={xml_path}"],
                   cwd=ROOT, env=env, check=False)


def outcomes(xml_path) -> dict:
    """{"passed"|"failed"|"error"|"skipped": [test ids]} from a JUnit report."""
    found = {"passed": [], "failed": [], "error": [], "skipped": []}
    for case in ET.parse(xml_path).iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        kinds = {child.tag for child in case}
        if "error" in kinds:
            found["error"].append(name)
        elif "failure" in kinds:
            found["failed"].append(name)
        elif "skipped" in kinds:
            found["skipped"].append(name)
        else:
            found["passed"].append(name)
    return found


def timings(xml_path, slowest=3) -> tuple:
    """(suite seconds, [(seconds, test id)] of the slowest tests, slowest
    first) from a JUnit report."""
    root = ET.parse(xml_path).getroot()
    cases = sorted(((float(case.get("time", 0)),
                     f"{case.get('classname')}::{case.get('name')}")
                    for case in root.iter("testcase")), reverse=True)
    return (sum(float(suite.get("time", 0)) for suite in root.iter("testsuite")),
            cases[:slowest])


def source_lines() -> int:
    """Lines of the Python files under src/, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        xml_path = Path(tmp) / "tier1.xml"
        run_suite(xml_path)
        if not xml_path.exists():
            print("tier1: pytest wrote no report")
            return 1
        found = outcomes(xml_path)
        wall, slowest = timings(xml_path)
    print("tier1: " + ", ".join(f"{len(v)} {k}" for k, v in found.items()))
    print(f"tier1: wall time {wall:.1f} s")
    print(f"tier1: src/ is {source_lines()} lines")
    for seconds, name in slowest:
        print(f"tier1: slow {seconds:.2f} s {name}")
    unexpected = sorted(set(found["failed"]) - EXPECTED_FAILURES)
    missing = sorted(EXPECTED_FAILURES - set(found["failed"]))
    for name in unexpected:
        print(f"tier1: unexpected failure {name}")
    for name in missing:
        print(f"tier1: expected failure now passes or is gone: {name}")
    for name in found["error"]:
        print(f"tier1: error {name}")
    if unexpected or missing or found["error"]:
        return 1
    print("tier1: baseline holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
