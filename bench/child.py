"""Worker process of the benchmark; ``run.py`` starts one per step.

    child.py setup <workload> <seed> <nproc> <dir>
        write the workload's inputs and plan into <dir>; print the set-up time
    child.py pass <dir> <result.json> [<spans.tsv>]
        run the plan in <dir> once, checking every output; with a spans path
        the pass is traced
    child.py reference <reference.json> <dir> (<result.json> | --write)
        run the fixed reference cases and compare them with the stored
        hashes and distances (or store them, with --write)

Each pass runs in a fresh process, so nothing the program caches in one pass
helps the next, and the benchmark's own process never imports the program.
Polytopes reach the program only as files, through ``cli.main`` or a
``python -m barypoly`` subprocess.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402

COLD_TIMEOUT_S = 60


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _run_cold(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "barypoly"] + argv, env=env,
                          capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    return proc.returncode, proc.stdout


@contextlib.contextmanager
def _one_cpu():
    """Keep this process, and the subprocess it starts, on one CPU, so the
    speed probes around a cold call measure the CPU the call ran on."""
    try:
        allowed = os.sched_getaffinity(0)
    except AttributeError:
        yield
        return
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _abs_argv(argv, d):
    """Plan argv with file names made absolute (files live in ``d``)."""
    out = list(argv)
    out[1] = str(d / argv[1])
    if "--points" in out:
        i = out.index("--points") + 1
        out[i] = str(d / out[i])
    return out


def _check(item, rc, out, verts, seed):
    if rc != item["rc"]:
        return f"exit code {rc}, expected {item['rc']}", None
    kind = item["kind"]
    if kind in ("analyze", "cold"):
        return checks.check_analyze(out, item, verts)
    if kind == "oracle":
        return checks.check_oracle(out, item, verts, seed)
    return checks.check_sweep(out, item, verts)


def _warm_up(cli, d):
    """Untimed calls on a polytope no workload uses, so first-call costs
    (numpy's linear algebra, json encoders) do not land on a timed call."""
    from barypoly.fixtures import fixture_document
    path = d / "_warmup.json"
    path.write_text(json.dumps(fixture_document("pyramid")))
    pts = d / "_warmup_pts.json"
    pts.write_text(json.dumps([["3/2", "1", "1/2"]]))
    _run_cli(cli, ["analyze", str(path), "--point=3/2,1,1/2"])
    _run_cli(cli, ["sweep", str(path), "--mode", "continuity", "--points", str(pts),
                   "--h=1/64,1/128,1/256"])


def run_pass(d, result_path, spans_path=None):
    from barypoly import cli
    plan = json.loads((d / "plan.json").read_text())
    seed = int(os.environ["BARYPOLY_SEED"])
    verts = {}
    _warm_up(cli, d)
    tracer = None
    if spans_path:
        import spans
        tracer = spans.Tracer()
        missing = tracer.install()
    records = []
    for item in plan["items"]:
        argv = _abs_argv(item["argv"], d)
        if item["kind"] == "cold":
            with _one_cpu():
                before = speed.probe()
                start = time.perf_counter()
                rc, out = _run_cold(argv)
                elapsed = time.perf_counter() - start
                after = speed.probe()
        else:
            before = speed.probe()
            start = tracer.begin(item["id"]) if tracer else time.perf_counter()
            rc, out = _run_cli(cli, argv)
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(item["kind"], start)
            after = speed.probe()
        poly = item["poly"]
        if poly not in verts:
            verts[poly] = checks.load_vertices(d / poly)
        try:
            problem, digest = _check(item, rc, out, verts[poly], seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem, digest = f"unreadable output ({type(exc).__name__}: {exc})", None
        records.append({"id": item["id"], "kind": item["kind"],
                        "s": speed.scaled(elapsed, before, after), "raw_s": elapsed,
                        "rows": len(item.get("points", ())), "problem": problem,
                        "digest": digest})
    result = {"records": records}
    if tracer:
        from spans import layer_metrics
        result["layers"] = layer_metrics(tracer.spans)
        result["layers_not_found"] = missing
        tracer.write(spans_path)
    Path(result_path).write_text(json.dumps(result))


def run_setup(workload, seed, nproc, d):
    import workloads
    before = speed.probe()
    start = time.perf_counter()
    d.mkdir(parents=True, exist_ok=True)
    plan = workloads.build(workload, seed, nproc, str(d))
    (d / "plan.json").write_text(json.dumps(plan, indent=1))
    elapsed = time.perf_counter() - start
    after = speed.probe()
    print(json.dumps({"setup_s": speed.scaled(elapsed, before, after),
                      "raw_setup_s": elapsed}))


# Fixed cases whose outputs are stored in reference.json.  They use the
# built-in polytopes and one census polytope, so they do not depend on the
# benchmark seed.
REFERENCE_CASES = [
    ("analyze-square", ["analyze", "square", "--point=1/2,1/2"]),
    ("analyze-pentagon", ["analyze", "pentagon", "--point=1/10,1/5"]),
    ("analyze-prism8", ["analyze", "prism8", "--point=1/3,1/4,1/5"]),
    ("analyze-pyramid-outside", ["analyze", "pyramid", "--point=5,5,5"]),
    ("analyze-census9000", ["analyze", "census9000", "--point=0,17/32"]),
    ("oracle-square", ["oracle-check", "square", "--point=1/2,1/2", "--samples", "5"]),
    ("oracle-pentagon", ["oracle-check", "pentagon", "--point=1/10,1/5", "--samples", "5"]),
    ("oracle-prism8", ["oracle-check", "prism8", "--point=1/3,1/4,1/5", "--samples", "5"]),
    ("sweep-pentagon-grid6", ["sweep", "pentagon", "--mode", "census", "--grid", "6"]),
    ("sweep-pyramid-grid3", ["sweep", "pyramid", "--mode", "census", "--grid", "3"]),
    ("continuity-square", ["sweep", "square", "--mode", "continuity", "--grid", "2",
                           "--h=1/64,1/128"]),
    ("continuity-pentagon", ["sweep", "pentagon", "--mode", "continuity", "--grid", "2",
                             "--h=1/64,1/128"]),
    ("semidiff-square", ["sweep", "square", "--mode", "semidiff", "--grid", "2",
                         "--h=1/64,1/128"]),
]


def _reference_outputs(d):
    from barypoly import cli
    from barypoly.fixtures import fixture_document
    from barypoly.oracle import random_polytope
    from barypoly.polytope import polytope_document
    d.mkdir(parents=True, exist_ok=True)
    docs = {name: fixture_document(name)
            for name in ("square", "pentagon", "pyramid", "prism8")}
    n = random.Random(9000).randint(4, 8)      # as the census polytope c00
    docs["census9000"] = polytope_document(random_polytope(2, n, seed=9000))
    for name, doc in docs.items():
        (d / (name + ".json")).write_text(json.dumps(doc))
    out = {}
    for case, argv in REFERENCE_CASES:
        full = [argv[0], str(d / (argv[1] + ".json"))] + argv[2:]
        rc, text = _run_cli(cli, full)
        if argv[0] == "analyze" and rc == 0:
            digest, dists = checks.analyze_digest(text), None
        elif argv[0] == "sweep":
            dim = docs[argv[1]]["dim"]
            digest, dists = checks.exact_digest(text, dim), checks.dist_columns(text)
        else:
            digest, dists = checks.sha(text), None
        out[case] = {"rc": rc, "sha256": digest, "dist": dists}
    return out


def _dist_problem(got, want, tol):
    if (got is None) != (want is None):
        return "distance columns present on one side only"
    if got is None:
        return None
    for grow, wrow in zip(got, want, strict=True):
        for g, w in zip(grow, wrow, strict=True):
            if (g is None) != (w is None) or (
                    g is not None and abs(g - w) > tol["abs"] + tol["rel"] * abs(w)):
                return f"distance {g} differs from reference {w}"
    return None


def run_reference(ref_path, d, result_path, write):
    os.environ["BARYPOLY_SEED"] = "0"      # the seed oracle-check reports
    outputs = _reference_outputs(d)
    if write:
        doc = {
            "about": "outputs of the fixed reference cases in child.py; "
                     "sha256 hashes the exact output, dist holds the float "
                     "dist_* columns, compared within tolerance",
            "tolerance": {"rel": 1e-9, "abs": 1e-12},
            "cases": outputs,
        }
        Path(ref_path).write_text(json.dumps(doc, indent=1) + "\n")
        return
    ref = json.loads(Path(ref_path).read_text())
    records = []
    for case, _ in REFERENCE_CASES:
        got, want = outputs[case], ref["cases"].get(case)
        if want is None:
            problem = "no stored reference"
        elif got["rc"] != want["rc"]:
            problem = f"exit code {got['rc']}, reference {want['rc']}"
        elif got["sha256"] != want["sha256"]:
            problem = "exact output differs from the reference hash"
        else:
            try:
                problem = _dist_problem(got["dist"], want["dist"], ref["tolerance"])
            except ValueError:
                problem = "distance table shape differs from the reference"
        records.append({"id": "reference/" + case, "problem": problem})
    Path(result_path).write_text(json.dumps({"records": records}))


def main(argv):
    mode = argv[0]
    if mode == "setup":
        run_setup(argv[1], int(argv[2]), int(argv[3]), Path(argv[4]))
    elif mode == "pass":
        run_pass(Path(argv[1]), argv[2], argv[3] if len(argv) > 3 else None)
    elif mode == "reference":
        write = argv[3] == "--write"
        run_reference(argv[1], Path(argv[2]), None if write else argv[3], write)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
