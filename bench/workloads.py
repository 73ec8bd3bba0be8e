"""Seeded inputs for the benchmark workloads.

Each workload is a family of polytopes and points, written as files, and a
plan: the list of CLI calls one measurement pass makes, with the exit code and
per-row error that each call must produce.  Errors are predicted here with an
exact ``locate``: outside points give ``Infeasible`` rows (exit code 2 for
``analyze`` and ``oracle-check``), probe steps that leave the polytope give
``LeavesPolytope`` rows.  Those are expected results, not failures.

Every workload runs every operation kind, so every end-to-end metric exists
on every workload; the workloads differ in how inputs share work:

- ``census``: 50 polytopes, each used by a few calls (no per-polytope reuse).
- ``grid``: 8 polytopes, each used by many points (heavy reuse).
- ``probe``: 3 fixture polytopes, points clustered along short rays (reuse of
  the polytope and of the chamber that holds the points).
"""

import json
import os
import random
from fractions import Fraction

from barypoly.fixtures import fixture_document
from barypoly.oracle import random_interior_point, random_polytope
from barypoly.polytope import Location, locate, parse_polytope, polytope_document

T0 = Fraction(1, 8)          # the CLI's default --t0; probe rows step t0 / 2^k
ORACLE_SAMPLES = "5"
CENSUS_SEED_BASE = 9000      # the acceptance census uses seeds 9000..9049


class Inputs:
    """Writes polytope and point files into ``out`` and collects plan items."""

    def __init__(self, out, rng, nproc):
        self.out, self.rng, self.nproc = out, rng, nproc
        self.items = []

    def polytope(self, name, doc):
        with open(os.path.join(self.out, name + ".json"), "w") as fh:
            json.dump(doc, fh)
        return name + ".json", parse_polytope(doc)

    def points_file(self, name, pts):
        with open(os.path.join(self.out, name + ".json"), "w") as fh:
            json.dump([_fmt(q) for q in pts], fh)
        return name + ".json"

    def interior(self, p):
        return random_interior_point(p, self.rng)

    def outside(self, p):
        """A point beyond a random vertex, seen from the centroid."""
        c = p.centroid()
        v = p.vertices[self.rng.randrange(p.n)]
        s = 1 + Fraction(self.rng.randint(1, 8), 8)
        return tuple(a + s * (b - a) for a, b in zip(c, v))

    def direction(self, d):
        while True:
            h = tuple(Fraction(self.rng.randint(-8, 8), 256) for _ in range(d))
            if any(h):
                return h

    def point_call(self, kind, fname, p, pt):
        """An ``analyze``, ``oracle-check`` or cold ``analyze`` call."""
        tag = locate(p, pt).tag
        command = "oracle-check" if kind == "oracle" else "analyze"
        argv = [command, fname, "--point=" + ",".join(_fmt(pt))]
        if kind == "oracle":
            argv += ["--samples", ORACLE_SAMPLES]
        self.items.append({
            "kind": kind, "id": f"{kind}/{len(self.items)}", "argv": argv,
            "poly": fname, "point": _fmt(pt), "location": tag.value,
            "rc": 2 if tag == Location.OUTSIDE else 0,
        })

    def sweep_calls(self, mode, fname, p, pts, h=None, par=False):
        """A ``sweep`` call over ``pts``; ``par`` adds the same call with
        ``--workers nproc``, whose output must be byte-identical."""
        pfile = self.points_file(f"pts{len(self.items)}", pts)
        argv = ["sweep", fname, "--mode", mode, "--points", pfile]
        if h is not None:
            argv.append("--h=" + ",".join(_fmt(h)))
        kind = "sweep" if mode == "census" else mode
        item = {
            "kind": kind, "id": f"{kind}/{len(self.items)}", "poly": fname,
            "argv": argv + ["--workers", "1"], "rc": 0, "mode": mode,
            "points": [_fmt(q) for q in pts],
            "errors": [_row_error(mode, p, q, h) for q in pts],
        }
        self.items.append(item)
        if par:
            self.items.append(dict(item, kind="sweep_par",
                                   argv=argv + ["--workers", str(self.nproc)]))


def _fmt(pt):
    return [str(x) for x in pt]


def _row_error(mode, p, q, h):
    """The error column the CLI must print for point q in this mode."""
    tag = locate(p, q).tag
    if tag == Location.OUTSIDE:
        return "Infeasible"
    if mode == "census":
        return ""
    far = tuple(a + T0 * b for a, b in zip(q, h))
    if locate(p, far).tag == Location.OUTSIDE:
        return "LeavesPolytope"
    if mode == "semidiff" and tag != Location.INTERIOR:
        return "LeavesPolytope"
    return ""


def _probe_rows(inp, f, p, count, modes=("continuity", "semidiff")):
    """``count`` single-row probe sweeps per mode, each with its own point
    and direction: the rate metrics take a median over rows."""
    for _ in range(count):
        q, h = inp.interior(p), inp.direction(p.d)
        for mode in modes:
            inp.sweep_calls(mode, f, p, [q], h)


def _census(inp):
    polys = []
    for i in range(50):
        d = 2 if i < 25 else 3
        n = random.Random(CENSUS_SEED_BASE + i).randint(d + 2, 8)
        p = random_polytope(d, n, seed=CENSUS_SEED_BASE + i)
        polys.append(inp.polytope(f"c{i:02d}", polytope_document(p)))
    for i, (f, p) in enumerate(polys):
        inp.point_call("analyze", f, p, inp.interior(p))
        pt = inp.outside(p) if i % 5 == 3 else inp.interior(p)
        inp.point_call("analyze", f, p, pt)
        for _ in range(3):      # 150 calls: fifteen beyond the p90
            inp.point_call("oracle", f, p, inp.interior(p))
    for f, p in polys[0::2]:
        pts = [inp.interior(p), inp.interior(p), inp.outside(p)]
        inp.rng.shuffle(pts)
        inp.sweep_calls("census", f, p, pts, par=True)
    # Frank-Wolfe rows on census polytopes with 6 or more vertices took
    # 0.06-3 s each here, so the probe rows use the polygons with 4 or 5
    for f, p in polys:
        if p.d == 2 and p.n <= 5:
            _probe_rows(inp, f, p, 3)
    for f, p in polys[1::5] + polys[3::10]:
        inp.point_call("cold", f, p, inp.interior(p))


def _grid(inp):
    polys = {
        "prism8": inp.polytope("prism8", fixture_document("prism8")),
        "pentagon": inp.polytope("pentagon", fixture_document("pentagon")),
    }
    # three random polytopes of each shape, so that one unusually cheap or
    # costly draw moves the rates less
    for d, n in ((3, 10), (2, 9)):
        for tag in "abc":
            p = random_polytope(d, n, seed=inp.rng.randrange(1 << 30))
            polys[f"r{d}n{n}{tag}"] = inp.polytope(f"r{d}n{n}{tag}", polytope_document(p))
    sizes = {"prism8": 18, "pentagon": 30, "r3n10a": 4, "r3n10b": 4, "r3n10c": 4,
             "r2n9a": 6, "r2n9b": 6, "r2n9c": 6}
    for name, (f, p) in polys.items():
        pts = [inp.outside(p) if k % 6 == 5 else inp.interior(p)
               for k in range(sizes[name])]
        inp.sweep_calls("census", f, p, pts, par=True)
        for q in pts[:ANALYZE_COUNTS[name]]:
            inp.point_call("analyze", f, p, q)
    # Cold starts and oracle-check on one polytope, so their quantiles fall
    # inside one cost group: oracle-check took 0.14-0.21 s on prism8 and
    # 0.03-0.04 s on the pentagon here.
    f, p = polys["prism8"]
    for _ in range(11):
        inp.point_call("cold", f, p, inp.interior(p))
    for _ in range(20):
        inp.point_call("oracle", f, p, inp.interior(p))
    # probe rows on r2n9 took 0.5-20 s each here (Frank-Wolfe runs to its
    # iteration cap) and semidiff on prism8 about 10 s, so the grid's probe
    # rows use the pentagon
    _probe_rows(inp, *polys["pentagon"], 32)


# analyze calls per grid polytope.  Sorted by cost the groups run pentagon,
# prism8, r2n9, r3n10; as many pentagon calls as r2n9 and r3n10 calls put the
# median in the middle of prism8's, and the p90 inside r3n10's.
ANALYZE_COUNTS = {"pentagon": 9, "prism8": 10, "r2n9a": 1, "r2n9b": 1,
                  "r2n9c": 1, "r3n10a": 2, "r3n10b": 2, "r3n10c": 2}


def _probe(inp):
    polys = {name: inp.polytope(name, fixture_document(name))
             for name in ("square", "pentagon", "prism8")}
    # Counts put each median inside the pentagon's rows.  Semidiff on prism8
    # takes about 10 s a row here, so prism8 gets continuity rows only.
    _probe_rows(inp, *polys["square"], 4)
    _probe_rows(inp, *polys["pentagon"], 60)
    _probe_rows(inp, *polys["prism8"], 2, modes=("continuity",))
    for name, (f, p) in polys.items():
        for r in range(12):
            q, h = inp.interior(p), inp.direction(p.d)
            ray = [tuple(a + T0 / (1 << k) * b for a, b in zip(q, h))
                   for k in range(8)]
            inp.sweep_calls("census", f, p, ray, par=True)
            if r < 6:
                for pt in ray[:2]:
                    inp.point_call("analyze", f, p, pt)
            if r < 8:
                inp.point_call("oracle", f, p, ray[1])
            if name == "pentagon" and r < 11:
                inp.point_call("cold", f, p, ray[2])


_BUILDERS = {"census": _census, "grid": _grid, "probe": _probe}


def build(workload, seed, nproc, out):
    """Write the workload's inputs into ``out`` and return its plan.

    The plan lists one pass of calls in a seeded order; the same
    (workload, seed) always gives the same files and plan.
    """
    rng = random.Random(f"{workload}:{seed}")
    inp = Inputs(out, rng, nproc)
    _BUILDERS[workload](inp)
    items = inp.items
    rng.shuffle(items)
    return {"workload": workload, "seed": seed, "items": items}
