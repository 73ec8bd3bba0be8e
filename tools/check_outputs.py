"""Check the CLI's outputs against their pinned digests: ``python tools/check_outputs.py``.

Each check of ``CHECKS`` runs in a fresh temporary directory.  A hashing check writes its
inputs, runs its CLI calls as ``python -m barypoly`` subprocesses and compares the sha256 of
each byte stream it returns, the calls' stdout in order, with its pinned digest; the
reference and memory checks pass when their own asserts do.  Prints one line per check
(name, digest, ok or FAILED, seconds), then the output of each failing check, and exits 1
if any failed.  A new digest is recorded on the parent tree, never on the change it checks.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from barypoly import coordinates, linalg  # noqa: E402
from barypoly.fixtures import fixture_document, get_fixture  # noqa: E402
from barypoly.oracle import random_polytope  # noqa: E402
from barypoly.polytope import polytope_document, validate  # noqa: E402

# tools/ is on the path for the memory check's fresh interpreter; "0" is the
# default seed oracle-check draws its samples with
ENV = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tools'}", BARYPOLY_SEED="0")
FIXTURES = ("square", "pentagon", "pyramid", "prism8")
COPLANAR = {"dim": 3, "vertices": [[0, 0, 1], [1, 0, 2], [0, 1, 3], [1, 1, 4], [2, 1, 5]]}
CUBE = list(itertools.product((0, 1), repeat=4))
CUBE4 = validate([[v[l] for v in CUBE] for l in range(4)], 4)
SQTET = [(*s, *t) for s in itertools.product((0, 1), repeat=2)
         for t in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
SQUARE_TETRAHEDRON = validate([[v[l] for v in SQTET] for l in range(5)], 5)
# a convex pentagon moved off its integer corners by 1/(2^64 - k)
WIDE = {"dim": 2, "vertices": [[str(x + Fraction(1, 2 ** 64 - 3 * i - l)) for l, x in enumerate(c)]
                               for i, c in enumerate([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])]}
CHECKS = {}  # name -> (the digests of the streams run(tmp dir) returns, run)


class CheckFailed(Exception):
    """A call exited nonzero without ``code=True``, or a check's own test failed."""


def check(name, *digests):
    def register(run):
        CHECKS[name] = (digests, run)
        return run
    return register


def python(*args, code=False) -> bytes:
    """stdout of ``python *args``, run in the repository root, and an
    ``exit N`` line when ``code``; without it a nonzero exit fails the check."""
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=ENV, capture_output=True)
    if code:
        return proc.stdout + f"exit {proc.returncode}\n".encode()
    if proc.returncode:
        raise CheckFailed((proc.stdout + proc.stderr).decode()
                          + f"exit {proc.returncode}: python {' '.join(map(str, args))}")
    return proc.stdout


def cli(*args, code=False) -> bytes:
    return python("-m", "barypoly", *args, code=code)


def write(t: Path, name, doc, points=()) -> tuple:
    """(t/<name>.json, t/<name>-points.json): a Polytope, fixture name or
    document, and its points, given as --point values, as "p/q" strings."""
    if isinstance(doc, str):
        doc = fixture_document(doc)
    elif not isinstance(doc, dict):
        doc = polytope_document(doc)
    path, points_path = t / f"{name}.json", t / f"{name}-points.json"
    path.write_text(json.dumps(doc))
    if points:
        points_path.write_text(json.dumps([q.split(",") for q in points]))
    return path, points_path


def arg(q) -> str:
    return ",".join(map(str, q))


def facet_point(p):
    """The centroid of the first d vertices whose wall has every vertex on
    one side: a point in the relative interior of a facet."""
    _, rows = linalg.integer_rows([[1, *v] for v in p.vertices])
    for s in itertools.combinations(range(p.n), p.d):
        c = linalg.cofactors([rows[j] for j in s])
        signs = {(x > 0) - (x < 0) for x in (linalg.dot(c, r) for r in rows)}
        if any(c) and not {-1, 1} <= signs:
            return tuple(sum(col) / p.d for col in zip(*(p.vertices[j] for j in s)))


def sweeps(t, mode, files, h, steps="5") -> bytes:
    """``sweep`` rows in ``mode`` along ``h`` from t0 = 1/2 on each (polytope, points) pair."""
    return b"".join(cli("sweep", path, "--mode", mode, "--points", pts, f"--h={h}",
                        "--t0", "1/2", "--steps", steps) for path, pts in files)


def pentagon_prism8_rows(t, mode, pentagon=(), prism8=()) -> bytes:
    """``sweep`` rows in ``mode`` on the pentagon and prism8, at their points and those given."""
    pentagon = ["-121/9000,776/3375", "-951/5000,309/1000", "1/10,1/5", "0,0", *pentagon]
    prism8 = ["5/8,5/8,9/20", "3/13,7/13,3/13", "1/2,1/2,1/2", *prism8]
    return (sweeps(t, mode, [write(t, "pentagon", "pentagon", pentagon)], "-1/32,7/32")
            + sweeps(t, mode, [write(t, "prism8", "prism8", prism8)], "3/16,-3/16,-1/8"))


def appended(name, vertex) -> dict:
    doc = fixture_document(name)
    doc["vertices"].append(vertex)
    return doc


def validations(t, docs) -> bytes:
    """``validate`` on each document, with exit codes."""
    return b"".join(cli("validate", write(t, name, doc)[0], code=True)
                    for name, doc in docs.items())


@check("reference outputs")
def reference_outputs(t):
    """The 13 fixed reference cases must print the stored outputs byte for byte (float
    distances within rel 1e-9) on every Python version."""
    python("bench/child.py", "reference", "bench/reference.json", t / "ref", t / "ref.json")
    records = json.loads((t / "ref.json").read_text())["records"]
    bad = [f"{r['id']}: {r['problem']}\n" for r in records if r["problem"]]
    report = "".join(bad) + f"reference: {len(records) - len(bad)}/{len(records)} outputs match"
    if bad or not records:
        raise CheckFailed(report)
    return [report.encode()]


@check("semidiff witness distances",
       "371d86d7f693ebb78507e5ae11d58e3c55bfa6831a2987b9bea642f187662543")
def semidiff_witness_distances(t):
    """Semidiff rows whose witness distances are nonzero, on the pentagon and prism8: their
    stdout must hash to the value it had before the quotient sets were built on integers, so
    a rounding change in them fails here."""
    return [pentagon_prism8_rows(t, "semidiff")]


@check("continuity distances", "dcfdda2a8c92c9089d8d8723f0e1b6dc19f5cbba1678bfeb9d3ba9683c874d24")
def continuity_distances(t):
    """Continuity rows on the pentagon and prism8, one of them leaving the pentagon: their
    stdout must hash to the value it had before the Hausdorff distances skipped the vertices
    that cannot raise the maximum, so a change in any printed distance fails here."""
    return [pentagon_prism8_rows(t, "continuity", ["0,1"], ["1772/3347,1711/3347,1778/3347"])]


@check("probe ties and polygons",
       "ade6504f6c00514b70c0dc913bb31d1fcfbfdd3f05df0f065550f390d44382af")
def probe_ties_and_polygons(t):
    """Continuity and semidiff sweeps where vertex distances tie (the square at its centre
    and at (1/3, 1/4)) and on two seeded polygons, random_polytope(2, 9, seed=6) and
    random_polytope(2, 8, seed=9003), each at its centroid and three seeded interior points.
    Stdout must hash to the value it had before the Hausdorff runs ended at the first
    nearest-vertex bound within the maximum and read both directions off one matrix of
    squared distances."""
    rng = random.Random(1)
    files = [write(t, "square", "square", ["1/2,1/2", "1/3,1/4"])]
    for name, p in {"d2n9": random_polytope(2, 9, seed=6),
                    "d2n8": random_polytope(2, 8, seed=9003)}.items():
        points = [p.centroid()]
        for _ in range(3):
            w = [rng.randint(1, 99) for _ in p.vertices]
            points.append([sum(c * v[l] for c, v in zip(w, p.vertices)) / sum(w)
                           for l in range(p.d)])
        files.append(write(t, name, p, [arg(q) for q in points]))
    return [sweeps(t, "continuity", files, "-1/32,7/32")
            + sweeps(t, "semidiff", files, "-1/32,7/32")]


@check("phase-one outputs", "a6d8a203dad737ff13ad2ad755b8113eb536248c582e8f307f7db43a4d8146bb")
def phase_one_outputs(t):
    """Analyze at an interior, a boundary and an outside point of each fixture, and validate
    on the pentagon with its centre appended: the phase-one answers behind tau, the
    location, the outside certificate and the NonExtremeVertex index. Stdout and exit codes
    must hash to the value they had while phase one still returned a status record."""
    points = {"square": ("1/3,1/4", "1/2,0", "2,1/2"),
              "pentagon": ("1/10,1/5", "951/2000,1309/2000", "0,2"),
              "pyramid": ("6/5,4/5,2/5", "1,1/2,0", "0,0,-1"),
              "prism8": ("1/3,1/2,2/3", "1,1/3,1/2", "2,0,0")}
    return [b"".join(cli("analyze", write(t, name, name)[0], "--point", point, code=True)
                     for name, pts in points.items() for point in pts)
            + validations(t, {"pentagon-centre": appended("pentagon", ["0", "0"])})]


@check("table reads", "ac1d304d77aefe8c13e8132ecf0cfa081b58b90a9e0eb0f355d015a4d5b479fd")
def table_reads(t):
    """Census sweeps and analyze calls on seeded d3n10 and d2n9 polytopes and on the 4-cube
    (whose affinely dependent 4-subsets give zero walls), at an interior point, a point on a
    vertex-pair segment, a vertex and an outside point: every Lambda(p) read off the pattern
    table. Stdout and exit codes must hash to the value they had while the table still
    eliminated every zero pattern on its own."""
    out = b""
    for name, p in {"d3n10": random_polytope(3, 10, seed=5),
                    "d2n9": random_polytope(2, 9, seed=6), "cube4": CUBE4}.items():
        c, v, w = p.centroid(), p.vertices[0], p.vertices[1]
        # interior, on the segment v w, the vertex v, and past v away from c
        points = [arg(q) for q in (c, tuple((2 * a + b) / 3 for a, b in zip(v, w)), v,
                                   tuple(2 * a - b for a, b in zip(v, c)))]
        path, pts = write(t, name, p, points)
        out += cli("sweep", path, "--mode", "census", "--points", pts, code=True)
        out += b"".join(cli("analyze", path, f"--point={q}", code=True) for q in points)
    return [out]


@check("lone-point memory")
def lone_point_memory_check(t):
    return [python("-c", "import check_outputs; check_outputs.lone_point_memory()")]


def parabola():
    """The polygon of the parabola points (i, i²), i = 0..84."""
    verts = [(i, i * i) for i in range(85)]
    return validate([[v[l] for v in verts] for l in range(2)], 2)


def lone_point_memory():
    """Lambda_vertices on the polygon of the parabola points (i, i²), i = 0..84, at
    (42, 1864): C(85, 3) = 98770 zero patterns and 16403 vertices.  A point read on a
    polytope without a table takes them off the wall values at the point and keeps nothing
    on the polytope, where the pattern table it once built held 103 MB.  The integer pass
    alone (_vertices_at, whose result is the vertex keys) must peak under 14 MB: 10.7 MB
    now, 16.9 MB while the keep tuples were listed first.  The traced peak of the whole
    read, less the 20 MB the returned vertex lists hold (35 MB while the result also kept
    the integer pass's int rows, which the read now drops), and what the polytope keeps
    must stay under 20 MB.  simplicial_coords and selection_jacobian read their keep set's
    own walls and build no table either.  Runs in a fresh interpreter, started by the
    check above."""
    p = parabola()
    pt = p.as_point((42, 1864))
    tracemalloc.start()
    keys = coordinates._vertices_at(p, pt)
    integer_peak = tracemalloc.get_traced_memory()[1]
    del keys
    tracemalloc.stop()
    print(f"integer pass: traced peak {integer_peak / 1e6:.1f} MB")
    assert integer_peak < 14e6
    tracemalloc.start()
    lam = coordinates.lambda_vertices(p, (42, 1864))
    held, peak = tracemalloc.get_traced_memory()
    count = len(lam.vertices)
    del lam
    kept = tracemalloc.get_traced_memory()[0]
    work = peak - (held - kept)  # the peak less the result's own size
    print(f"{count} vertices; traced peak {peak / 1e6:.1f} MB, "
          f"{(held - kept) / 1e6:.1f} MB the result, "
          f"{work / 1e6:.1f} MB besides the result, "
          f"{kept / 1e6:.1f} MB kept on the polytope")
    assert count == 16403
    assert work < 20e6 and kept < 20e6
    from barypoly import probes

    zero_set = [j for j in range(1, 86) if j not in (1, 43, 85)]
    sc = coordinates.simplicial_coords(p, pt, zero_set)
    jacobian = probes.selection_jacobian(p, zero_set)
    print(f"keep set (1, 43, 85): sigma feasible {sc.feasible}, "
          f"J {len(jacobian)} x {len(jacobian[0])}, no table")
    assert p._pattern_table == []


@check("document memory")
def document_memory_check(t):
    return [python("-c", "import check_outputs; check_outputs.document_memory()")]


def document_memory():
    """analyze's document on the polygon of the parabola points (i, i²), i = 0..84, at
    (42, 1864), 16403 vertices: written off the integer pass (cli._analysis_report), with
    no Fraction and no record per vertex, its traced peak must stay under 110 MB: 93.7 MB
    now, 127.1 MB while the CLI built the report's Fraction vertices first.  Runs in a
    fresh interpreter, started by the check above."""
    from barypoly import cli

    p = parabola()
    tracemalloc.start()
    doc, _ = cli._analysis_report(p, p.as_point((42, 1864)))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    count = len(doc["lambda_vertices"])
    print(f"{count} vertices; traced peak {peak / 1e6:.1f} MB")
    assert count == 16403
    assert peak < 110e6


@check("table memory")
def table_memory_check(t):
    return [python("-c", "import check_outputs; check_outputs.table_memory()")]


def table_memory():
    """The pattern table of the parabola polygon: C(85, 2) = 3570 walls and C(85, 3) = 98770
    rows, each a keep set and the ids of its 3 walls.  What the table holds, traced from
    the start of its build, must stay under 125 MB: 99.5 MB now, 174.2 MB while every row
    also held its 82-entry zero set and the table a second index of its rows keyed by it.
    The polygon has no singular row, so the table lists all of them.  On that object, which
    now holds the table, the point read at (42, 1864) (_vertices_at, off the wall values)
    and the table read there (_feasible_rows) must give the same 16403 vertex keys.  Runs
    in a fresh interpreter, started by the check above."""
    p = parabola()
    tracemalloc.start()
    table = coordinates._table(p)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(f"{len(table[0])} walls, {len(table[1])} rows; the table holds {held / 1e6:.1f} MB")
    assert len(table[1]) == 98770
    assert held < 125e6
    pt = p.as_point((42, 1864))
    lone = coordinates._vertices_at(p, pt)
    read = coordinates._vertex_keys(coordinates._feasible_rows(p, pt))
    print(f"(42, 1864): {len(lone)} keys off the wall values, {len(read)} off the table")
    assert len(lone) == 16403 and lone == read


@check("ray reads on zero walls",
       "203cec7a62693a7e953a820b3114e2fcd203fed9425a3ceea1a8320940bced2a",
       "ba83c908f9189a8776bc7522037fb1baf55d28ae5786560340f951ff0a658fd3")
def ray_reads_on_zero_walls(t):
    """Continuity and semidiff sweeps on the 4-cube, whose affinely dependent 4-subsets keep
    zero walls in the pattern table, at an interior point, the centre and a facet point:
    every step of every ray reads the table through the one row reader. Stdout must hash to
    the value it had while the table still stored each pattern's determinant."""
    files = [write(t, "cube4", CUBE4, ["1/3,2/5,1/2,3/7", "1/2,1/2,1/2,1/2", "0,1/3,1/3,1/3"])]
    return [sweeps(t, mode, files, "1/16,-1/32,1/64,0", steps="4")
            for mode in ("continuity", "semidiff")]


@check("census grids", "4a0e9fac278b9db00eb06fb4b458249f8dee5634ee87c4dc34c194585cb280fb")
def census_grids(t):
    """Census sweeps over a 6-point grid per axis on the four fixtures and on seeded d3n10
    and d2n9 polytopes: vertex counts, dims and n - d flags read off the integer pass's
    vertex keys, and the Infeasible rows outside. Stdout and exit codes must hash to the
    value they had while each census row still built and sorted Lambda's Fraction
    vertices."""
    polys = {name: name for name in FIXTURES}
    polys.update(d3n10=random_polytope(3, 10, seed=5), d2n9=random_polytope(2, 9, seed=6))
    return [b"".join(cli("sweep", write(t, name, p)[0], "--mode", "census", "--grid", "6",
                         code=True) for name, p in polys.items())]


@check("census grid on the 4-cube",
       "fefae302fa5e82ab821e9f7e0222ed94bd84dd450c0635d5b6546f6b83f93f88")
def census_grid_on_the_4_cube(t):
    """A census sweep over a 3-point grid per axis on the 4-cube: 81 points, each on a wall
    (every 4-cube point is, as its affinely dependent 4-subsets give zero walls), so every
    row reads the surviving rows' vertex keys. Stdout and exit code must hash to the value
    they had while every table read still ran the reader over all C(16, 5) rows."""
    return [cli("sweep", write(t, "cube4", CUBE4)[0], "--mode", "census", "--grid", "3",
                code=True)]


@check("plane validation", "80c5673756a4f7d05463ce9180e6b9940e25e43e07513ad4ca38d0ac258b2235")
def plane_validation(t):
    """Validate on plane point sets: the pentagon with its centre appended, the square with
    an edge midpoint appended, four collinear points, a seeded d2n9 polygon and 200 rational
    points of the unit circle. The NonExtremeVertex indices, the RankDeficient error and the
    accepted polygons, with exit codes, must hash to the value they had while every vertex
    was tested by a phase one."""
    # ((1 - s^2)/(1 + s^2), 2s/(1 + s^2)), s = k/20, is on the unit circle
    circle = [((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s))
              for s in (Fraction(k, 20) for k in range(-100, 100))]
    return [validations(t, {
        "pentagon-centre": appended("pentagon", ["0", "0"]),
        "square-midpoint": appended("square", ["1/2", "0"]),
        "collinear": {"dim": 2, "vertices": [[k, 2 * k] for k in range(4)]},
        "d2n9": random_polytope(2, 9, seed=6),
        "circle200": {"dim": 2, "vertices": [[str(x), str(y)] for x, y in circle]}})]


@check("solid validation", "766d1aac3e153780387ec3b27dcb726a0329c84f9680ccc844080d25949a82b6")
def solid_validation(t):
    """Validate on solid point sets: prism8 with its centroid appended and listed first, the
    pyramid with an apex-edge midpoint appended, a tetrahedron with a fifth point that the
    centroid functional does not certify (extreme at z = 11/10, certified by 16 of the
    functional's 4n corrections; inside at z = 9/10, where no functional can), five coplanar
    points, a repeated vertex, and seeded d3n100 and d4n40 polytopes. The NonExtremeVertex
    indices, the errors and the accepted polytopes, with exit codes, must hash to the value
    they had while every vertex was tested by a phase one."""
    prism8, centre = fixture_document("prism8")["vertices"], ["1/2", "1/2", "1/2"]
    tetrahedron = [[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4]]
    return [validations(t, {
        "prism8-centre-last": {"dim": 3, "vertices": prism8 + [centre]},
        "prism8-centre-first": {"dim": 3, "vertices": [centre] + prism8},
        "pyramid-midpoint": appended("pyramid", ["1/2", "1/2", "1"]),
        "tetrahedron-outer": {"dim": 3, "vertices": tetrahedron + [["3/2", "3/2", "11/10"]]},
        "tetrahedron-inner": {"dim": 3, "vertices": tetrahedron + [["3/2", "3/2", "9/10"]]},
        "coplanar": COPLANAR,
        "repeated": {"dim": 3, "vertices": prism8 + [prism8[2]]},
        "d3n100": random_polytope(3, 100, seed=11), "d4n40": random_polytope(4, 40, seed=11)})]


def cloud(d, n, seed) -> list:
    """n seeded points of R^d with coordinates k/97, |k| <= 1000."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(-1000, 1000), 97) for _ in range(d)) for _ in range(n)]


def centroid(points) -> tuple:
    return tuple(sum(col) / len(points) for col in zip(*points))


def vertices_document(points) -> dict:
    return {"dim": len(points[0]), "vertices": [[str(x) for x in v] for v in points]}


@check("cloud validation",
       "7f20ed03bdd700d8ab0e9d3e45f3df66dc72f47f8f20e9b076f25d1ee6fc8112")
def cloud_validation(t):
    """Validate on seeded 3-D and 4-D point sets of up to 120 points: a k/97 cloud led by the
    centroid of its points, seeded polytopes followed by their centroid, and seeded
    polytopes with a facet point put among their vertices. The NonExtremeVertex indices,
    with exit codes, must hash to the value they had while every vertex's certificate ran
    before the first phase one."""
    docs = {}
    for d, n, seed in ((3, 120, 31), (4, 80, 32)):
        points = cloud(d, n - 1, seed)
        docs[f"d{d}-cloud-centre-first"] = [centroid(points)] + points
        p = random_polytope(d, n - 1, seed=seed)
        docs[f"d{d}-centre-last"] = list(p.vertices) + [centroid(p.vertices)]
        p = random_polytope(d, n // 2, seed=seed)
        verts = list(p.vertices)
        docs[f"d{d}-facet-point"] = verts[:n // 4] + [facet_point(p)] + verts[n // 4:]
    return [validations(t, {name: vertices_document(v) for name, v in docs.items()})]


@check("kernel basis", "8d38c8592be31b31ce99cfc7f42f79cb4cdff310f6839690d65b4aaab5e05af3")
def kernel_basis(t):
    """Analyze at an interior point, a vertex-pair midpoint and a facet point of the four
    fixtures and of seeded d3n10 and d4n9 polytopes (the boundary points read dim Λ off the
    rank of N's rows), at an interior point of a pentagon whose coordinates have
    denominators near 2^64, and validate on collinear and coplanar sets (RankDeficient).
    Stdout and exit codes must hash to the value they had while validation's kernel basis
    still came from the Fraction rref."""
    polys = {name: get_fixture(name) for name in FIXTURES}
    polys.update(d3n10=random_polytope(3, 10, seed=5), d4n9=random_polytope(4, 9, seed=7))
    calls = [(path, arg(q)) for name, p in polys.items() for path, _ in [write(t, name, p)]
             for q in (p.centroid(), tuple((a + b) / 2 for a, b in zip(*p.vertices[:2])),
                       facet_point(p))]
    calls.append((write(t, "wide", WIDE)[0], "1,8/5"))
    return [b"".join(cli("analyze", path, f"--point={q}", code=True) for path, q in calls)
            + validations(t, {
                "collinear": {"dim": 2, "vertices": [[k, 3 * k - 1] for k in range(4)]},
                "coplanar": COPLANAR})]


@check("oracle outputs", "c2e437efdb2393e21ced407c47f16b2439b21c2529fe73a503de6eeab273a7b9")
def oracle_outputs(t):
    """Oracle-check at an interior point, a vertex-pair midpoint, a facet point and an
    outside point of the four fixtures and of seeded polytopes with d = 2-5 and kernel
    dimension k = 0, 1, 2 and above 2, and at an interior point of the pentagon with
    denominators near 2^64, each with --samples 0 and --samples 50: the DD oracle's
    vertices, the agreement and the sample verdict. Stdout and exit codes must hash to the
    value they had while the oracle still ran a Fraction rref."""
    polys = {name: get_fixture(name) for name in FIXTURES}
    # k = n - d - 1 = 0, 1, 2, 4 and 6
    for d, n, seed in ((2, 3, 21), (3, 5, 22), (4, 7, 23), (5, 10, 24), (2, 9, 25)):
        polys[f"d{d}n{n}"] = random_polytope(d, n, seed=seed)
    calls = [(path, arg(q)) for name, p in polys.items() for path, _ in [write(t, name, p)]
             for c, v, w in [(p.centroid(), *p.vertices[:2])]
             for q in (c, tuple((a + b) / 2 for a, b in zip(v, w)), facet_point(p),
                       tuple(2 * a - b for a, b in zip(v, c)))]
    calls.append((write(t, "wide", WIDE)[0], "1,8/5"))
    return [b"".join(cli("oracle-check", path, f"--point={q}", "--samples", samples,
                         code=True) for path, q in calls for samples in (0, 50))]


@check("documents", "b357486b743a6674926b7ad8735368fce9f9581570007739b40d57aca255fff4")
def documents(t):
    """Examples for the four fixtures, validate on them and on seeded d3n10 and d5n10
    polytopes, and analyze at the centroids of prism8, d3n10 and d5n10 (k = 4 to 6, many Γ
    vertices) and at a point past d5n10's first vertex (the Outside document): every
    indented JSON document the CLI writes but oracle-check's. Stdout and exit codes must
    hash to the value they had while the documents were written by json.dumps and Γ's
    consistency test still ran on Fractions."""
    polys = {name: get_fixture(name) for name in FIXTURES}
    polys.update(d3n10=random_polytope(3, 10, seed=5), d5n10=random_polytope(5, 10, seed=24))
    c, v = polys["d5n10"].centroid(), polys["d5n10"].vertices[0]
    points = [("prism8", polys["prism8"].centroid()), ("d3n10", polys["d3n10"].centroid()),
              ("d5n10", c), ("d5n10", tuple(2 * a - b for a, b in zip(v, c)))]
    return [b"".join(cli("examples", name, code=True) for name in FIXTURES)
            + validations(t, polys)
            + b"".join(cli("analyze", t / f"{name}.json", f"--point={arg(q)}", code=True)
                       for name, q in points)]


@check("zero walls in R^5",
       "2341911661499256432a002adf77bf7143f8f015d3abf8cfa0e3055485f084c5")
def zero_walls_in_r5(t):
    """A census sweep and analyze calls on the square × tetrahedron in R^5, whose walls of
    the affinely dependent 5-subsets are zero (816 of C(16, 5) = 4368), and whole 4-vertex
    prefixes among them (48 of C(15, 4) = 1365): at the centroid, a seeded interior point,
    a vertex-pair midpoint, a facet point and a vertex, and the sweep also past that
    vertex. Stdout and exit codes must hash to the value they had while every wall had an
    elimination of its own."""
    p = SQUARE_TETRAHEDRON
    c, v, w = p.centroid(), p.vertices[0], p.vertices[1]
    rng = random.Random(5)
    weights = [rng.randint(1, 99) for _ in p.vertices]
    seeded = [sum(k * u[l] for k, u in zip(weights, p.vertices)) / sum(weights)
              for l in range(p.d)]
    points = [arg(q) for q in (c, seeded, tuple((a + b) / 2 for a, b in zip(v, w)),
                               facet_point(p), v)]
    path, pts = write(t, "sqtet", p, points + [arg(2 * a - b for a, b in zip(v, c))])
    return [cli("sweep", path, "--mode", "census", "--points", pts, code=True)
            + b"".join(cli("analyze", path, f"--point={q}", code=True) for q in points)]


def main() -> int:
    failures = []
    for name, (digests, run) in CHECKS.items():
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            try:
                streams, error = run(Path(tmp)), ""
            except CheckFailed as exc:
                streams, error = [], str(exc)
        got = [hashlib.sha256(s).hexdigest() for s in streams] if digests else []
        ok = not error and got == list(digests)
        output = error + b"".join(streams).decode()
        # a hashing check shows its digests, another its own lines
        shown = " ".join(got) if digests else "; ".join(output.splitlines()) if ok else "-"
        print(f"{name:<27} {shown or '-'} {'ok' if ok else 'FAILED'} "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        if not ok:
            failures.append(f"\n--- {name} ---\n{output}")
    if failures:
        print("\n".join(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
