"""Command-line front door.

Commands: validate, analyze, sweep, examples, oracle-check.  All output is
machine-readable (JSON, or CSV for sweeps) and byte-deterministic for given
inputs and flags, on every supported Python version: floats are added left
to right (linalg.float_sum), not with sum, whose rounding changed in 3.12.
Exit codes: 0 ok, 1 input/validation error, 2 point outside the polytope,
3 internal invariant failure (oracle disagreement or InternalError).
"""

import argparse
import itertools
import json
import os
import re
import sys
from fractions import Fraction

from . import coordinates as co
from . import oracle as orc
from .errors import (BarypolyError, InfeasibleError, InternalError, OracleMismatchError,
                     ParseError)
from .linalg import fr, rational_str
from .polytope import (Polytope, load_polytope, locate, parse_coordinates,
                       polytope_rows, read_json, validate)
from .report import AnalysisReport, LambdaVertexEntry, dumps, format_float

_SEED_ENV = "BARYPOLY_SEED"
# the most points --grid may build and --samples draw: the table's budget
MAX_GRID_POINTS = MAX_SAMPLES = co.MAX_PATTERNS


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "--point -1/2,0": argparse reads a token as a value, not a flag, when
        # this matches; its default accepts only plain numbers like -1 or -.5
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        _emit_error("ParseError", message)
        raise SystemExit(1)


def _emit_error(code, detail):
    print(json.dumps({"error": code, "detail": str(detail)}))


def _parse_vector(text, d, what):
    """d rationals, comma- or space-separated; ParseError names ``what``."""
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    try:
        xs = tuple(fr(t) for t in toks)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational list {text!r}: {exc}") from exc
    if len(xs) != d:
        raise ParseError(f"{what} must have {d} coordinates")
    return xs


def _analysis_report(p: Polytope, point) -> tuple:
    """(report, None) at an inside point, else (None, locate's separator);
    Interior or Boundary is read off Lambda(p)'s vertices (``is_interior``)."""
    try:
        tau = co.feasible_tau(p, point)
    except InfeasibleError:
        return None, locate(p, point).separator
    nb = co.nullbasis(p)
    lam = co.lambda_vertices(p, point)
    gam = co.gamma_polytope(p, tau, nb, lam)
    entries = []
    for v, supp in zip(lam.vertices, lam.vertex_supports):
        support = tuple(sorted(supp))
        zeros = tuple(j for j in range(1, p.n + 1) if j not in supp)
        entries.append(LambdaVertexEntry(v.lam, support, zeros))
    rep = AnalysisReport(
        polytope_dim=p.d,
        polytope_vertices=p.vertices,
        point=tuple(point),
        location="Interior" if co.is_interior(p.n, lam.vertex_supports) else "Boundary",
        tau=tau.lam,
        nbasis=gam.nbasis,
        lambda_vertices=tuple(entries),
        gamma_vertices=gam.vertices,
        dim=lam.dim,
        theorem_count_match=lam.theorem_count_match,
    )
    return rep, None


def run_validate(path) -> int:
    p = load_polytope(path)
    print(dumps({
        "valid": True,
        "n": p.n,
        "dim": p.d,
        "kernel_dim": p.kernel_dim(),
    }))
    return 0


def run_analyze(path, point_text) -> int:
    p = load_polytope(path)
    point = _parse_vector(point_text, p.d, "point")
    rep, separator = _analysis_report(p, point)
    if rep is None:
        a, b = separator
        print(dumps({
            "error": "Outside",
            "detail": "point is outside the polytope",
            "certificate": {"normal": [rational_str(x) for x in a],
                            "offset": rational_str(b)},
        }))
        return 2
    print(rep.to_json())
    return 0


def _grid_points(p: Polytope, k: int):
    los = [min(v[l] for v in p.vertices) for l in range(p.d)]
    his = [max(v[l] for v in p.vertices) for l in range(p.d)]
    axes = []
    for lo, hi in zip(los, his):
        span = hi - lo
        axes.append([lo + span * Fraction(i + 1, k + 1) for i in range(k)])
    return [tuple(c) for c in itertools.product(*axes)]


def _load_points(path, d):
    doc = read_json(path)
    if isinstance(doc, dict):
        doc = doc.get("points")
    if not isinstance(doc, list):
        raise ParseError("points file must hold a list of points")
    return [parse_coordinates(row, d, f"point {i + 1}") for i, row in enumerate(doc)]


def _census_cells(p, keys):
    """vertex_count, dim and theorem_count_match of Lambda at a point, read off
    its vertex keys (``co._vertex_keys``): the cells build no Fraction."""
    count, dim, match = co._census(p, keys)
    return [str(count), str(dim), "true" if match else "false"]


def _sweep_row(p, mode, point, h, t0, steps):
    """One CSV row; an error leaves the rest of the row empty and puts its code
    in the last cell (a point too long to print leaves its own cells empty)."""
    width = len(point) + (3 if mode == "census" else 3 + steps)
    cells = []
    error = ""
    try:
        cells += [rational_str(x) for x in point]
        # the table is read once at the basepoint: the census cells, the
        # selection and the probe's basepoint all come from these rows
        rows = list(co._feasible_rows(p, point))
        keys = co._vertex_keys(rows)
        cells += _census_cells(p, keys)
        if mode == "continuity":
            from . import probes
            rep = probes.continuity_probe(p, point, h, t0=t0, steps=steps, base=keys)
            cells += [format_float(s.distance) for s in rep.steps]
        elif mode == "semidiff":
            from . import probes
            # the witness distances alone: the row prints nothing else
            zero_set = _pick_selection(rows)
            *_, witness, _ = probes._semidiff_witness(p, point, zero_set, h, t0, steps,
                                                      base=keys)
            cells += [format_float(d) for d in witness]
    except BarypolyError as exc:
        error = exc.code
    cells += [""] * (width - len(cells))
    return ",".join(cells + [error])


def _pick_selection(rows):
    """First zero pattern (lexicographic) among the feasible ``rows`` of
    ``co._feasible_rows`` at a point, preferring strictly positive
    complements."""
    first_feasible = None
    for combo, _, xs, _ in rows:
        if all(xs):  # all d + 1 entries outside the zero set are positive
            return frozenset(combo)
        if first_feasible is None:
            first_feasible = combo
    if first_feasible is None:
        # _census_cells found Lambda(p) non-empty on the same rows
        raise InternalError("no feasible selection pattern at this point")
    return frozenset(first_feasible)


def run_sweep(path, mode, grid=None, points_file=None, t0="1/8", steps=8,
              h=None, workers=1) -> int:
    # flags that need no polytope are checked before the file is read
    if (grid is None) == (points_file is None):
        raise ParseError("exactly one of --grid or --points is required")
    if grid is not None and grid < 1:
        raise ParseError(f"--grid must be >= 1, got {grid}")
    if workers < 1:
        raise ParseError(f"--workers must be >= 1, got {workers}")
    try:
        t0_frac = fr(t0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad --t0 {t0!r}: {exc}") from exc
    probe = mode in ("continuity", "semidiff")
    if probe and h is None:
        raise ParseError(f"--h is required for mode {mode}")
    if probe:
        # only probe rows import the probes: other commands compile none
        from . import probes
        if not probes._float_steps(t0_frac, steps):
            raise ParseError(f"mode {mode} needs --t0 > 0, --steps >= 3, and --t0 "
                             "and --t0/2^(steps-1) in [float min, float max]")
    # the file's shape, then what needs only its d, then validation (a hull
    # walk at d = 2, else phase ones only for uncertified vertices)
    rows, d = polytope_rows(read_json(path))
    if grid is not None and grid ** d > MAX_GRID_POINTS:
        raise ParseError(f"--grid {grid} gives {grid}^{d} points, more than "
                         f"the limit of {MAX_GRID_POINTS}")
    pts = _load_points(points_file, d) if grid is None else None
    hvec = _parse_vector(h, d, "direction") if probe else None
    p = validate(rows, d)
    if pts is None:
        pts = _grid_points(p, grid)
    header = [f"p{i + 1}" for i in range(d)]
    header += ["vertex_count", "dim", "theorem_count_match"]
    if probe:
        header += [f"dist_{k}" for k in range(steps)]
    header.append("error")
    print(",".join(header), flush=True)
    # rows are computed serially for every --workers value, each written at once
    for pt in pts:
        print(_sweep_row(p, mode, pt, hvec, t0_frac, steps), flush=True)
    return 0


def run_examples(name) -> int:
    from .fixtures import fixture_document, fixture_names
    if name is None:
        print("\n".join(fixture_names()))
        return 0
    try:
        doc = fixture_document(name)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc
    print(dumps(doc))
    return 0


def run_oracle_check(path, point_text, samples) -> int:
    if samples < 0:
        raise ParseError(f"--samples must be >= 0, got {samples}")
    if samples > MAX_SAMPLES:
        raise ParseError(f"--samples {samples} is over the limit of {MAX_SAMPLES}")
    # the file's shape, the point, the seed and the pattern budget, which
    # need only d and n, then validation (see run_sweep)
    rows, d = polytope_rows(read_json(path))
    point = _parse_vector(point_text, d, "point")
    seed_text = os.environ.get(_SEED_ENV, "0")
    try:
        seed = int(seed_text)
    except ValueError as exc:
        raise ParseError(f"{_SEED_ENV} must be an integer, got {seed_text!r}") from exc
    co.check_pattern_count(len(rows[0]), d)
    p = validate(rows, d)
    lam = co.lambda_vertices(p, point)
    try:
        ora = orc.dd_vertices(p, point)
    except InfeasibleError as exc:
        # the enumeration found the point inside: the routes disagree
        raise OracleMismatchError(
            f"oracle found no vertex, enumeration found {len(lam.vertices)}") from exc
    # both lists are sorted and repeat no vertex: equal lists are equal sets
    agree = ora.vertices == tuple(lam.vertex_arrays())
    samples_ok = orc.samples_feasible(p, point, ora.vertices, samples, seed)
    print(dumps({
        "agreement": agree,
        "method": ora.method,
        "vertex_count": len(lam.vertices),
        "lambda_vertices": [[rational_str(x) for x in v] for v in lam.vertex_arrays()],
        "oracle_vertices": [[rational_str(x) for x in v] for v in ora.vertices],
        "samples": samples,
        "samples_feasible": samples_ok,
        "seed": seed,
    }))
    return 0 if (agree and samples_ok) else 3


def _build_parser():
    ap = _Parser(prog="barypoly",
                 description="Exact coordinate-polytope analysis for convex polytopes")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a polytope file")
    v.add_argument("file")
    v.set_defaults(run=lambda ns: run_validate(ns.file))

    a = sub.add_parser("analyze", help="full analysis at one point")
    a.add_argument("file")
    a.add_argument("--point", required=True, help="comma-separated rationals")
    a.set_defaults(run=lambda ns: run_analyze(ns.file, ns.point))

    s = sub.add_parser("sweep", help="batch census or probe runs, CSV on stdout")
    s.add_argument("file")
    s.add_argument("--mode", required=True,
                   choices=["census", "continuity", "semidiff"])
    s.add_argument("--grid", type=int, default=None,
                   help="k interior grid points per axis over the bounding box")
    s.add_argument("--points", default=None, help="JSON file with sample points")
    s.add_argument("--t0", default="1/8", help="initial step (rational)")
    s.add_argument("--steps", type=int, default=8)
    s.add_argument("--h", default=None, help="probe direction, comma-separated")
    s.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; rows are computed serially")
    s.set_defaults(run=lambda ns: run_sweep(
        ns.file, ns.mode, grid=ns.grid, points_file=ns.points, t0=ns.t0,
        steps=ns.steps, h=ns.h, workers=ns.workers))

    e = sub.add_parser("examples", help="print a built-in polytope file")
    e.add_argument("name", nargs="?", default=None)
    e.set_defaults(run=lambda ns: run_examples(ns.name))

    o = sub.add_parser("oracle-check",
                       help="cross-check enumeration against the oracle")
    o.add_argument("file")
    o.add_argument("--point", required=True)
    o.add_argument("--samples", type=int, default=10)
    o.set_defaults(run=lambda ns: run_oracle_check(ns.file, ns.point, ns.samples))
    return ap


# built once per process; each call of main only parses
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            code = ns.run(ns)
        except BarypolyError as exc:
            _emit_error(exc.code, exc)
            code = exc.exit_code
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: rows already written stay, and stdout goes
        # to devnull so that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
