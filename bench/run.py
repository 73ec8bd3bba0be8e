"""barypoly benchmark: seeded workloads through the public CLI.

    python3 bench/run.py --workload {census,grid,probe} --seed N \
        --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details: sample counts, failures, the machine context.  The exit
code is 0 only when every output checked out.

A run sets up the workload's inputs three times (each in its own process;
``setup_s`` is the median), runs the fixed reference cases against
``reference.json``, then repeats measurement passes over the seeded plan, each
pass in a fresh process, while another pass fits in ``--seconds``.  Load is
closed-loop from one process: each call starts when the previous one returned.
The only concurrency is the program's own ``--workers nproc`` sweeps.  See
README.md for the workloads and for which metric each layer should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("census", "grid", "probe")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150


def _child(args, env):
    proc = subprocess.run([sys.executable, str(HERE / "child.py")] + args,
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark step {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _calibration_s():
    """Time of 100 speed probes (a fixed Fraction loop): machine drift."""
    return sum(speed.probe() for _ in range(100))


def _src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _numpy_version(env):
    proc = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() or None


def _setup(workload, seed, nproc, env):
    """Set up SETUP_REPEATS times; returns the plan dir, the median scaled
    and raw set-up seconds, and a problem if the set-ups differ."""
    times, raw, contents = [], [], []
    dirs = [WORK / f"{workload}-s{seed}-r{r}" for r in range(SETUP_REPEATS)]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        out = _child(["setup", workload, str(seed), str(nproc), str(d)], env)
        res = json.loads(out.strip().splitlines()[-1])
        times.append(res["setup_s"])
        raw.append(res["raw_setup_s"])
        contents.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    problem = None if all(c == contents[0] for c in contents) else \
        "set-up is not deterministic: repeated set-ups wrote different inputs"
    for d in dirs[1:]:
        shutil.rmtree(d, ignore_errors=True)
    return dirs[0], statistics.median(times), statistics.median(raw), problem


def _pass(plan_dir, tag, env, spans=None):
    result = plan_dir / f"result-{tag}.json"
    args = ["pass", str(plan_dir), str(result)] + ([str(spans)] if spans else [])
    _child(args, env)
    return json.loads(result.read_text())


def _importtime(env):
    """Cumulative import seconds of the barypoly package and of numpy."""
    pkg, npy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import barypoly.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        tot_pkg = tot_np = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name_field = parts[2][1:]
            name = name_field.strip()
            top = not name_field.startswith(" ")
            cum = int(parts[1]) / 1e6
            if top and (name == "barypoly" or name.startswith("barypoly.")):
                tot_pkg += cum
            if name == "numpy":
                tot_np += cum
        pkg.append(tot_pkg)
        npy.append(tot_np)
    return statistics.median(pkg), statistics.median(npy)


def _quantile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] if len(xs) > 1 else xs[0]


def per_call(passes, key="s"):
    """One record per call, with the median of its times over the passes
    (each pass runs every call once, in a fresh process)."""
    times = {}
    for records in passes:
        for r in records:
            times.setdefault((r["kind"], r["id"]), (r, []))[1].append(r[key])
    return [dict(r, s=statistics.median(ts)) for r, ts in times.values()]


def _rate(calls, kind):
    """Rows per second over all calls of a kind."""
    rows = sum(c["rows"] for c in calls if c["kind"] == kind)
    secs = sum(c["s"] for c in calls if c["kind"] == kind)
    return rows / secs if secs else 0.0


def _median_rate(calls, kind):
    """1 / median seconds per row.  A probe row's Frank-Wolfe cost has a long
    tail (0.06 s median, 2 s worst on the pentagon here), which would set a
    plain rows / seconds."""
    per_row = [c["s"] / c["rows"] for c in calls if c["kind"] == kind and c["rows"]]
    return 1.0 / statistics.median(per_row) if per_row else 0.0


def end_to_end(calls, setup_s):
    """End-to-end metrics from per-call times, and the samples behind them."""
    by = {}
    for c in calls:
        by.setdefault(c["kind"], []).append(c["s"])
    an = [1000 * s for s in by.get("analyze", [0.0])]
    orc = [1000 * s for s in by.get("oracle", [0.0])]
    metrics = {
        "setup_s": (setup_s, "s"),
        "analyze_ms.p50": (statistics.median(an), "ms"),
        "analyze_ms.p90": (_quantile(an, 90), "ms"),
        "oracle_check_ms.p50": (statistics.median(orc), "ms"),
        "oracle_check_ms.p90": (_quantile(orc, 90), "ms"),
        "cold_analyze_s": (statistics.median(by.get("cold", [0.0])), "s"),
        "sweep_rows_per_s": (_rate(calls, "sweep"), "1/s"),
        "sweep_rows_per_s.par": (_rate(calls, "sweep_par"), "1/s"),
        "continuity_rows_per_s": (_median_rate(calls, "continuity"), "1/s"),
        "semidiff_rows_per_s": (_median_rate(calls, "semidiff"), "1/s"),
    }
    samples = {k + "_calls": len(v) for k, v in by.items()}
    for kind in ("sweep", "sweep_par", "continuity", "semidiff"):
        samples[kind + "_rows"] = sum(c["rows"] for c in calls if c["kind"] == kind)
    return metrics, samples


def _cross_pass_problems(passes):
    """Same item, same output: across passes, and serial vs parallel sweep."""
    problems = []
    first = {}
    for records in passes:
        for r in records:
            key = r["id"]
            if r["digest"] is None:
                continue
            if key in first and first[key] != r["digest"]:
                problems.append(f"{key}: output differs between passes")
            first.setdefault(key, r["digest"])
    for records in passes:
        serial = {r["id"]: r["digest"] for r in records if r["kind"] == "sweep"}
        for r in records:
            if r["kind"] == "sweep_par" and r["digest"] != serial.get(r["id"]):
                problems.append(f"{r['id']}: --workers output differs from serial")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "barypoly" / "__init__.py").is_file():
        print(f"error: no barypoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["BARYPOLY_SEED"] = str(args.seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = _nproc()
    context = {
        "python": sys.version.split()[0], "numpy": _numpy_version(env),
        "nproc": nproc, "src_lines": _src_lines(),
        "calibration_s": _calibration_s(),
    }

    plan_dir, setup_s, raw_setup_s, setup_problem = _setup(args.workload, args.seed, nproc, env)
    ref_result = plan_dir / "result-reference.json"
    _child(["reference", str(HERE / "reference.json"), str(plan_dir / "reference"),
            str(ref_result)], env)
    reference = json.loads(ref_result.read_text())["records"]

    passes, layers = [], None
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-s{args.seed}.tsv"
        traced = _pass(plan_dir, "traced", env, spans_path)
        untraced = _pass(plan_dir, "untraced", env)
        passes = [traced["records"], untraced["records"]]
        layers, not_found = traced["layers"], traced["layers_not_found"]
        t_on = sum(r["s"] for r in traced["records"] if r["kind"] != "cold")
        t_off = sum(r["s"] for r in untraced["records"] if r["kind"] != "cold")
        serial = _rate(untraced["records"], "sweep")
        layers["cli.workers_speedup"] = (
            _rate(untraced["records"], "sweep_par") / serial if serial else 0.0)
        layers["trace.overhead_pct"] = 100.0 * (t_on / t_off - 1.0)
        layers["cli.import_s"], layers["cli.numpy_import_s"] = _importtime(env)
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(_pass(plan_dir, str(len(passes)), env)["records"])
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break

    records = [r for p in passes for r in p]
    problems = [f"{r['id']}: {r['problem']}" for r in records + reference if r["problem"]]
    problems += _cross_pass_problems(passes)
    if setup_problem:
        problems.append(setup_problem)
    attempted = len(records) + len(reference)
    failed = min(attempted, len(problems))
    measured = passes[1:] if args.trace else passes
    metrics, samples = end_to_end(per_call(measured), setup_s)
    raw_metrics, _ = end_to_end(per_call(measured, "raw_s"), raw_setup_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = layers
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {k: v for k, (v, _) in metrics.items()}
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out_metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in names.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "samples": samples,
        "failed_ratio": failed / attempted, "problems": problems[:20],
        "context": context,
        "unscaled_metrics": {k: v for k, (v, _) in raw_metrics.items()},
    }
    if args.trace:
        details["untraced_pass_metrics"] = {k: v for k, (v, _) in metrics.items()}
        details["layers_not_found"] = not_found
    print(json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    shutil.rmtree(plan_dir, ignore_errors=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
