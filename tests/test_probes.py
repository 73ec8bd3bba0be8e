import math
import random
from fractions import Fraction

import numpy as np
import pytest

from barypoly import linalg
from barypoly.coordinates import simplicial_coords
from barypoly.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InfeasibleSelectionError,
    LeavesPolytopeError,
    SingularPatternError,
)
from barypoly.probes import (
    FloatPolytope,
    _differences,
    _lstsq,
    _min_norm_point,
    _selection_jacobian_exact,
    continuity_probe,
    hausdorff,
    point_polytope_distance,
    selection_jacobian,
    semidiff_probe,
)
from barypoly.polytope import validate
from helpers import float_polytope

F = Fraction
CENTER = (F(1, 2), F(1, 2))


def fp(*pts):
    return float_polytope([tuple(map(F, p)) for p in pts])


def wolfe(b_rows, x, tol=1e-9):
    """``_min_norm_point`` from x to the hull of ``b_rows``, run to its stop."""
    return _min_norm_point(*_differences(b_rows, x), tol)


def test_distance_vertex_short_circuit():
    b = fp((0, 0), (1, 0))
    assert point_polytope_distance(np.array([1.0, 0.0]), b) == 0.0


def test_distance_segment_orthogonal():
    b = fp((0, 0), (1, 0))
    d = point_polytope_distance(np.array([0.5, 1.0]), b)
    assert abs(d - 1.0) < 1e-9


def test_distance_square_side():
    b = fp((0, 0), (1, 0), (1, 1), (0, 1))
    d = point_polytope_distance(np.array([2.0, 0.5]), b)
    # dense boundary-sampling oracle
    best = math.inf
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for a, c in zip(corners, corners[1:] + corners[:1]):
        for i in range(2001):
            t = i / 2000
            x = a[0] + t * (c[0] - a[0])
            y = a[1] + t * (c[1] - a[1])
            best = min(best, math.hypot(x - 2.0, y - 0.5))
    assert abs(d - best) < 1e-6
    assert abs(d - 1.0) < 1e-9


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        point_polytope_distance(np.array([0.0, 0.0, 0.0]), fp((0, 0), (1, 0)))


def test_distance_past_the_float_range_is_inf():
    # |q|^2 overflows: the distance reads inf, as IEEE addition gives
    q = (1.2e154, 1.2e154)
    assert point_polytope_distance(q, fp((0, 0))) == math.inf
    assert point_polytope_distance(q, fp((0, 0), (1, 0), (0, 1))) == math.inf


@pytest.mark.parametrize("call", [
    lambda: hausdorff(FloatPolytope(((5.0,),), 1), FloatPolytope(((0.0,), (math.nan,)), 1)),
    lambda: point_polytope_distance((5.0,), FloatPolytope(((0.0,), (math.nan,)), 1)),
    lambda: point_polytope_distance((math.inf, 0.0), fp((0, 0), (1, 0), (0, 1))),
], ids=["hausdorff-nan-vertex", "distance-nan-vertex", "distance-inf-point"])
def test_public_distances_refuse_non_finite_entries(call):
    # the hull of a point with a NaN coordinate is undefined: both wrappers
    # raise, as for tol <= 0, where they once returned 5.0 with a stop met
    with pytest.raises(ValueError, match="finite"):
        call()


def test_distance_interior_point_zero():
    b = fp((0, 0), (1, 0), (1, 1), (0, 1))
    d = point_polytope_distance(np.array([0.3, 0.6]), b, tol=1e-9)
    assert d < 1e-9


def test_min_norm_point_matches_exact_reference():
    # the corral method against the brute-force Fraction minimiser, with x
    # outside, inside, at a vertex and on an edge of a seeded point set; the
    # dyadic inputs are exact floats, so both see the same points
    from helpers import min_norm_sq_reference

    rng = random.Random(2024)
    for d in (2, 3, 4):
        for trial in range(24):
            m = rng.randint(1, 7)
            pts = np.array([[rng.randint(-1024, 1024) / 256 for _ in range(d)]
                            for _ in range(m)])
            kind = trial % 4
            if kind == 0:    # |x_1| > 4 >= every |b_1|
                x = np.array([rng.choice((-1, 1)) * rng.randint(1100, 4096) / 256]
                             + [rng.randint(-4096, 4096) / 256 for _ in range(d - 1)])
            elif kind == 1:
                w = [rng.randint(1, 99) for _ in range(m)]
                x = np.array(w, dtype=float) @ pts / sum(w)
            elif kind == 2:
                x = pts[rng.randrange(m)].copy()
            else:
                x = (pts[rng.randrange(m)] + pts[rng.randrange(m)]) / 2
            dist, converged = wolfe(pts, x)
            ref = math.sqrt(min_norm_sq_reference(
                [tuple(map(F, row)) for row in pts], tuple(map(F, x))))
            assert converged
            assert abs(dist - ref) <= 1e-12 + 1e-9 * ref, (d, trial, dist, ref)
            if kind == 0:
                assert ref > 0
            if kind == 2:
                assert dist == 0.0
    # x on a segment of the set and one more point within 1e-7..1e-6 of x,
    # where the corral starts; the distance is 0.  In the first case the gap
    # there is 1e-14, five times the threshold, and the entering point's
    # weight is 1e-14, below the 1e-12 that drops a point already in the corral
    cases = [(np.array([(0.0, 1e-7), (1.0, 0.0), (-1.0, 0.0)]), np.zeros(2))]
    for trial in range(30):
        d = 2 + trial % 3
        m = rng.randint(2, 6)
        pts = np.array([[rng.randint(-1024, 1024) / 256 for _ in range(d)]
                        for _ in range(m)])
        a, b = rng.sample(range(m), 2)
        x = (pts[a] + pts[b]) / 2
        step = np.array([rng.uniform(-1, 1) for _ in range(d)])
        step *= rng.uniform(1e-7, 1e-6) / np.linalg.norm(step)
        pts = np.insert(pts, rng.randint(0, m), x + step, axis=0)
        cases.append((pts, x))
    for pts, x in cases:
        dist, converged = wolfe(pts, x)
        assert min_norm_sq_reference([tuple(map(F, row)) for row in pts],
                                     tuple(map(F, x))) == 0
        assert converged
        assert dist <= 1e-12, (pts, x, dist)


@pytest.mark.parametrize("fill, solves", [(0.0, 1), (1.0, 2)])
def test_min_norm_point_stall_far_from_the_gap_is_not_converged(
        monkeypatch, fill, solves):
    # a faulty minor-cycle solve stalls the first major cycle at y = (2, 1),
    # where the gap is 2, far above the threshold of 1.7e-14.  Weights (1, 0)
    # would drop the entering point; weights (0, 1) walk to the corral {(2, -1)},
    # where |y|² does not fall.  Either stall stops at once, not converged.
    from barypoly import probes

    calls = []

    def solve(cols, rhs):
        calls.append((len(rhs), len(cols)))
        return [fill] * len(cols)

    monkeypatch.setattr(probes, "_lstsq", solve)
    pts = [(2.0, 1.0), (2.0, -1.0), (4.0, 0.0)]
    dist, converged = wolfe(pts, (0.0, 0.0))
    assert dist == math.sqrt(5.0)
    assert not converged
    assert len(calls) == solves


def test_lstsq_matches_numpy_on_full_rank_systems():
    # seeded m x n systems, n <= m <= 10, against the SVD least squares;
    # the error is relative to the largest weight
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(2000):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
        b = rng.standard_normal(m)
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        got = _lstsq(a.T.tolist(), b.tolist())
        assert all(type(x) is float for x in got)
        worst = max(worst, float(np.abs(np.array(got) - want).max()
                                 / max(np.abs(want).max(), 1e-300)))
    assert worst < 1e-10


def test_lstsq_dependent_columns_give_finite_weights():
    # repeated and parallel columns, and more columns than rows: a basic
    # solution (dependent columns weigh 0), finite, with numpy's residual
    cases = [
        ([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [1.0, -1.0]),
        ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], [3.0, 1.0, 4.0]),
        ([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0], [5.0, -3.0]], [2.0, 7.0]),
        ([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0]),
    ]
    for cols, rhs in cases:
        u = _lstsq(cols, rhs)
        assert all(math.isfinite(x) for x in u)
        a = np.array(cols).T
        want = np.linalg.lstsq(a, np.array(rhs), rcond=None)[0]
        got_res = np.linalg.norm(a @ np.array(u) - rhs)
        want_res = np.linalg.norm(a @ want - rhs)
        assert abs(got_res - want_res) <= 1e-12 * (1.0 + want_res)
    u = _lstsq([[1.0, 1.0], [2.0, 2.0]], [3.0, 3.0])
    assert u[1] == 0.0 and abs(u[0] - 3.0) < 1e-15
    assert _lstsq([], [1.0, 2.0]) == []


def test_min_norm_point_collinear_points():
    # three collinear points on a ray from x; the nearest point is (1, 0),
    # on the edge from (1, 1) to (1, -1)
    dist, converged = wolfe([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (1.0, -1.0)],
                            (0.0, 0.0))
    assert converged
    assert dist == 1.0


def test_continuity_probe_meets_every_stop(prism8, monkeypatch):
    # Frank-Wolfe with away steps ran out of iterations on one of this row's
    # distance calls; the corral method meets its gap on all of them.  Of
    # each step's 28 vertices, 92 in all over the 8 steps run
    # _min_norm_point, and all but each step's first come back within the
    # largest distance before them, their cutoff, so they cannot raise it.
    # The loop ends at the first vertex whose nearest-vertex bound is within
    # the maximum: every vertex that made no call has its bound's root
    # within the returned distance
    from collections import Counter

    from barypoly import probes
    from helpers import reference_differences

    met, bounded, ran, skipped = [], [], [], []
    real, real_hausdorff = probes._min_norm_point, probes._hausdorff_status

    def traced(pts, sq, tol, *rest):
        dist, ok = real(pts, sq, tol, *rest)
        met.append(ok)
        bounded.append(dist <= rest[0])
        ran.append(min(sq))
        return dist, ok

    def traced_hausdorff(a, b, tol):
        start = len(ran)
        worst, ok = real_hausdorff(a, b, tol)
        bounds = Counter(min(reference_differences(dst.vertices, tuple(map(float, x)))[1])
                         for src, dst in ((a, b), (b, a)) for x in src.vertices)
        left = bounds - Counter(ran[start:])
        assert left.total() == bounds.total() - (len(ran) - start)
        skipped.extend((math.sqrt(bound), worst) for bound in left.elements())
        return worst, ok

    monkeypatch.setattr(probes, "_min_norm_point", traced)
    monkeypatch.setattr(probes, "_hausdorff_status", traced_hausdorff)
    rep = continuity_probe(prism8, (F(1772, 3347), F(1711, 3347), F(1778, 3347)),
                           (F(-1, 128), F(1, 32), F(-3, 256)))
    assert len(met) == 92
    assert all(met)
    assert sum(bounded) == 84
    assert len(skipped) == 8 * 28 - 92
    assert all(root <= worst for root, worst in skipped)
    assert rep.verdict == "Inconclusive"  # the last distance is ~5e-5 > 1e-7


def test_unmet_stop_makes_both_probes_inconclusive(square, monkeypatch):
    # a distance that missed its stop makes the verdict Inconclusive, whatever
    # the probe's own tests say: here Converges and Diverges without the patch
    from barypoly import probes

    h = (F(1, 64), F(0))
    calls = [lambda: continuity_probe(square, CENTER, h, tolerance=10.0),
             lambda: semidiff_probe(square, CENTER, {2}, h)]
    assert [call().verdict for call in calls] == ["Converges", "Diverges"]
    real = probes._min_norm_point
    monkeypatch.setattr(probes, "_min_norm_point",
                        lambda *a: (real(*a)[0], False))
    assert [call().verdict for call in calls] == ["Inconclusive", "Inconclusive"]


def test_growing_distances_make_continuity_diverge(square, monkeypatch):
    # the final distance above the first and the tolerance, on a tail that
    # grows, is continuity's divergence test
    from barypoly import probes

    dists = iter(1e-3 * 2.0 ** k for k in range(8))
    monkeypatch.setattr(probes, "_hausdorff_status", lambda *a: (next(dists), True))
    rep = continuity_probe(square, CENTER, (F(1, 64), F(0)))
    assert rep.verdict == "Diverges"
    assert [s.distance for s in rep.steps] == [1e-3 * 2.0 ** k for k in range(8)]


def test_min_norm_point_iteration_cap(monkeypatch):
    # x = (2, 1/2) is nearest the square's edge x = 1: the first major cycle
    # reaches distance 1 but meets no stop, so a cap of one cycle returns
    # converged False
    from barypoly import probes

    verts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert wolfe(verts, (2.0, 0.5)) == (1.0, True)
    monkeypatch.setattr(probes, "_MAX_ITER", 1)
    assert wolfe(verts, (2.0, 0.5)) == (1.0, False)


def test_hausdorff_basics():
    a = fp((0, 0), (1, 0), (1, 1))
    assert hausdorff(a, a) == 0.0
    assert abs(hausdorff(fp((0, 0)), fp((3, 4))) - 5.0) < 1e-12
    seg1 = fp((0, 0), (1, 0))
    seg2 = fp((0, 1), (1, 1))
    assert abs(hausdorff(seg1, seg2) - 1.0) < 1e-9
    # vertices given as any sequence of rows, a numpy array too
    seg3 = FloatPolytope(vertices=np.array([(0.0, 1.0), (1.0, 1.0)]), ambient_dim=2)
    assert hausdorff(seg1, seg3) == hausdorff(seg1, seg2)
    assert hausdorff(seg3, FloatPolytope(vertices=[[0, 0], [1, 0]], ambient_dim=2)) \
        == hausdorff(seg2, seg1)


def test_hausdorff_mismatch():
    with pytest.raises(DimensionMismatchError):
        hausdorff(fp((0, 0)), fp((0, 0, 0)))


def test_float_polytope_vertex_longer_than_its_dim():
    # zip would drop the third coordinate and measure the distance as 0.0
    with pytest.raises(DimensionMismatchError):
        point_polytope_distance((0, 0), FloatPolytope(((0.0, 0.0, 5.0),), 2))
    with pytest.raises(DimensionMismatchError):
        FloatPolytope(np.array([(0.0, 1.0), (1.0, 1.0)]), 3)


def test_float_polytope_without_vertices():
    # hausdorff would raise a bare ValueError from min() over no distances
    with pytest.raises(EmptyInputError):
        hausdorff(fp((0, 0)), FloatPolytope((), 2))
    with pytest.raises(EmptyInputError):
        FloatPolytope(np.empty((0, 2)), 2)


def test_float_polytope_from_no_exact_points():
    # the rounding helper reads the dim off a first vertex that may not be
    # there, and the constructor refuses the empty set (not an IndexError);
    # the package keeps no such constructor
    with pytest.raises(EmptyInputError):
        float_polytope([])
    assert not hasattr(FloatPolytope, "from_exact")


def test_hausdorff_pseudometric_random():
    rng = random.Random(123)
    tol = 1e-9

    def rand_poly():
        m = rng.randint(1, 6)
        return fp(*[(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(m)])

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        dab, dba = hausdorff(a, b, tol), hausdorff(b, a, tol)
        assert dab == dba  # symmetric by construction
        assert hausdorff(a, c, tol) <= hausdorff(a, b, tol) + hausdorff(b, c, tol) + 3 * tol


def test_continuity_probe_square_center(square):
    rep = continuity_probe(square, CENTER, (F(1), F(0)),
                           t0=F(1, 8), steps=6, tolerance=1e-2)
    # exact expectation: both vertices move by t*sqrt(2)
    for s in rep.steps:
        assert abs(s.distance - math.sqrt(2.0) * s.t) < 1e-9
        assert abs(s.ratio - math.sqrt(2.0)) < 1e-6
    assert rep.verdict == "Converges"
    assert [s.t for s in rep.steps] == [0.125 / 2 ** k for k in range(6)]


def test_continuity_probe_zero_direction(square):
    rep = continuity_probe(square, CENTER, (F(0), F(0)), t0=F(1, 8), steps=4,
                           tolerance=1e-7)
    assert all(s.distance == 0.0 for s in rep.steps)
    assert rep.verdict == "Converges"


def test_continuity_probe_boundary_inward(square):
    # dimension jumps 0 -> 1 away from the edge, distances still collapse
    rep = continuity_probe(square, (F(1, 2), F(0)), (F(0), F(1)),
                           t0=F(1, 8), steps=6, tolerance=1e-2)
    for s in rep.steps:
        assert abs(s.distance - math.sqrt(2.0) * s.t) < 1e-9
    assert rep.verdict == "Converges"


def test_continuity_probe_leaves_polytope(square):
    with pytest.raises(LeavesPolytopeError):
        continuity_probe(square, CENTER, (F(10), F(0)), t0=F(1), steps=4)
    with pytest.raises(LeavesPolytopeError):
        continuity_probe(square, (F(5), F(5)), (F(1), F(0)), t0=F(1, 8), steps=4)


def test_selection_jacobian_triangle():
    tri = validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    jac = selection_jacobian(tri, frozenset())
    assert np.allclose(jac, np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]))
    assert all(abs(sum(col)) < 1e-12 for col in zip(*jac))


def test_selection_jacobian_square(square):
    jac = selection_jacobian(square, {4})
    assert np.allclose(jac, np.array(
        [[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0], [0.0, 0.0]]))


def test_selection_jacobian_singular(prism8):
    with pytest.raises(SingularPatternError):
        selection_jacobian(prism8, {5, 6, 7, 8})


@pytest.mark.parametrize("zero_set", [{0, 1}, {1, 5}, {1, 2}, set()])
def test_selection_jacobian_bad_zero_set(square, zero_set):
    with pytest.raises(ValueError) as jac_err:
        selection_jacobian(square, zero_set)
    with pytest.raises(ValueError) as sc_err:
        simplicial_coords(square, CENTER, zero_set)
    assert str(jac_err.value) == str(sc_err.value)


def test_selection_jacobian_kernel_consistency(square, pentagon, pyramid, prism8):
    rng = random.Random(3)
    from itertools import combinations
    for p in (square, pentagon, pyramid, prism8):
        k = p.kernel_dim()
        for combo in combinations(range(1, p.n + 1), k):
            try:
                jac = _selection_jacobian_exact(p, frozenset(combo))
            except SingularPatternError:
                continue
            h = [F(rng.randint(-5, 5), 3) for _ in range(p.d)]
            jh = [linalg.dot(row, h) for row in jac]
            # V (J h) = h and 1^T (J h) = 0, exactly
            for l in range(p.d):
                assert sum(w * v[l] for w, v in zip(jh, p.vertices)) == h[l]
            assert sum(jh) == 0
            break


def test_selection_jacobian_finite_differences(square, pentagon, pyramid, prism8):
    from helpers import interior_point
    from itertools import combinations
    rng = random.Random(17)
    step = F(1, 10_000)
    for p in (square, pentagon, pyramid, prism8):
        q = interior_point(p, rng)
        k = p.kernel_dim()
        jac = None
        for combo in combinations(range(1, p.n + 1), k):
            try:
                jac = selection_jacobian(p, frozenset(combo))
            except SingularPatternError:
                continue
            zero = frozenset(combo)
            break
        assert jac is not None
        fd = np.zeros_like(jac)
        for l in range(p.d):
            qp = tuple(x + (step if i == l else 0) for i, x in enumerate(q))
            qm = tuple(x - (step if i == l else 0) for i, x in enumerate(q))
            sp = simplicial_coords(p, qp, zero).sigma
            sm = simplicial_coords(p, qm, zero).sigma
            fd[:, l] = [(float(a) - float(b)) / (2 * float(step))
                        for a, b in zip(sp, sm)]
        assert np.abs(jac - fd).max() < 1e-8


def test_semidiff_square_witness_exact(square):
    rep = semidiff_probe(square, CENTER, {4}, (F(1), F(0)),
                         t0=F(1, 16), steps=6)
    # v = J h is itself a vertex of every quotient set here
    assert all(s.distance == 0.0 for s in rep.steps)
    # the quotient sets grow without bound: consecutive Hausdorff distances
    # double each step (the coordinate polytope at p is a segment, not a point)
    pair = rep.metadata["pairwise_hausdorff"]
    assert all(b > a for a, b in zip(pair, pair[1:]))
    assert rep.verdict != "Converges"
    diam = rep.metadata["diameters"]
    assert all(b > a for a, b in zip(diam, diam[1:]))


def test_semidiff_triangle_singleton():
    tri = validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    rep = semidiff_probe(tri, (F(1, 4), F(1, 4)), frozenset(), (F(1), F(1)),
                         t0=F(1, 16), steps=5)
    assert all(s.distance < 1e-12 for s in rep.steps)
    assert all(h < 1e-12 for h in rep.metadata["pairwise_hausdorff"])
    assert rep.verdict == "Converges"


def test_semidiff_zero_direction_blows_up(square):
    rep = semidiff_probe(square, CENTER, {4}, (F(0), F(0)),
                         t0=F(1, 16), steps=5)
    # 0 is always in the quotient set, but diameters scale like 1/t
    assert all(s.distance == 0.0 for s in rep.steps)
    diam = rep.metadata["diameters"]
    assert diam[-1] > 10 * diam[0] > 0
    assert rep.verdict != "Converges"


def test_semidiff_infeasible_selection(square):
    with pytest.raises(InfeasibleSelectionError):
        semidiff_probe(square, (F(3, 4), F(1, 4)), {2}, (F(1), F(0)),
                       t0=F(1, 16), steps=4)


@pytest.mark.parametrize("name, zero_set, error", [
    ("prism8", {5, 6, 7, 8}, SingularPatternError),   # vertices 1-4 coplanar
    ("prism8", {1, 2, 3, 9}, ValueError),
    ("square", {1, 2}, ValueError),
    ("square", set(), ValueError),
])
def test_semidiff_zero_set_without_a_row(name, zero_set, error, square, prism8):
    # a zero set with no row in the probe's table raises what solving it
    # raises, with the same message
    p = {"square": square, "prism8": prism8}[name]
    q = p.centroid()
    with pytest.raises(error) as want:
        simplicial_coords(p, q, zero_set)
    with pytest.raises(error) as got:
        semidiff_probe(p, q, zero_set, (F(1, 64),) * p.d, t0=F(1, 16), steps=3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("t0, steps", [
    (F(1, 8), 1100),           # the last step underflows to 0.0
    (F(1, 10**400), 8),        # below the smallest normal float
    (F(10**400), 8),           # above the largest float
])
def test_probe_steps_outside_the_float_range(square, t0, steps):
    h = (F(0), F(0))
    with pytest.raises(ValueError, match="float min, float max"):
        continuity_probe(square, CENTER, h, t0=t0, steps=steps)
    with pytest.raises(ValueError, match="float min, float max"):
        semidiff_probe(square, CENTER, {4}, h, t0=t0, steps=steps)


def test_semidiff_leaves_polytope(square):
    with pytest.raises(LeavesPolytopeError):
        semidiff_probe(square, CENTER, {4}, (F(100), F(0)), t0=F(1), steps=4)


def test_probes_read_one_pattern_table(monkeypatch):
    # each polytope object builds the walls of its pattern table once, and
    # the probes read Lambda at the basepoint and at every step off it: no
    # phase one, and C(8, 3) = 56 walls off C(7, 2) = 21 cofactor pencils
    # for a first prism8 continuity row, none for a second one (a scan at
    # the basepoint and at each of 8 steps made 630 eliminations a row).
    # sigma_Z(p) and sigma_Z(p + h) of a semidiff row are each one cofactors
    # call on the d x (d+1) translated keep set, and not read off the table.
    # Fresh objects: the session fixtures may already hold their tables.
    from barypoly import coordinates, linalg, polytope, simplex
    from barypoly.fixtures import fixture_document

    prism8, square, pyramid = (polytope.parse_polytope(fixture_document(name))
                               for name in ("prism8", "square", "pyramid"))
    phase_ones, prefixes, keep_walls = [], [], []
    real_fp, real_pencil = simplex.feasible_point, linalg.cofactor_pencil
    real_cofactors = linalg.cofactors
    for mod in (simplex, coordinates, polytope):
        monkeypatch.setattr(mod, "feasible_point",
                            lambda *a: phase_ones.append(a) or real_fp(*a))
    monkeypatch.setattr(linalg, "cofactor_pencil",
                        lambda rows: prefixes.append(rows) or real_pencil(rows))
    monkeypatch.setattr(linalg, "cofactors",
                        lambda rows: keep_walls.append(rows) or real_cofactors(rows))
    continuity_probe(prism8, (F(1, 2),) * 3, (F(1, 64), F(-1, 32), F(1, 128)))
    assert len(prefixes) == math.comb(7, 2) == 21
    continuity_probe(prism8, (F(1, 3), F(2, 5), F(1, 2)), (F(0), F(1, 16), F(0)))
    assert len(prefixes) == 21 and keep_walls == []
    prefixes.clear()
    # the square's C(4, 2) = 6 walls off C(3, 1) = 3 prefixes; sigma_Z(p)
    # and sigma_Z(p + h) each off one cofactor vector of 2 x 3 rows, the
    # keep set's 3 vertices translated
    semidiff_probe(square, CENTER, {4}, (F(1), F(0)), t0=F(1, 16), steps=3)
    assert len(prefixes) == 3 and len(square._pattern_table[0]) == 6
    assert [(len(rows), len(rows[0])) for rows in keep_walls] == [(2, 3)] * 2
    semidiff_probe(square, CENTER, {3}, (F(0), F(1)), t0=F(1, 16), steps=3)
    assert len(prefixes) == 3 and len(keep_walls) == 4
    # boundary basepoints: on a square's edge, and on the pyramid's base,
    # where the vertex supports cover 4 of the 5 indices
    with pytest.raises(LeavesPolytopeError, match="basepoint must be interior"):
        semidiff_probe(square, (F(1, 2), F(0)), {4}, (F(0), F(1)),
                       t0=F(1, 16), steps=3)
    with pytest.raises(LeavesPolytopeError, match="basepoint must be interior"):
        semidiff_probe(pyramid, (F(1), F(1, 2), F(0)), {5}, (F(0), F(0), F(1)),
                       t0=F(1, 16), steps=3)
    assert phase_ones == []


def test_probe_point_must_have_d_coordinates(square):
    with pytest.raises(DimensionMismatchError, match="lengths must equal d"):
        continuity_probe(square, (F(1, 2), F(1, 2), F(1, 2)), (F(1), F(0)))


def test_distance_tolerance_must_be_positive():
    with pytest.raises(ValueError, match="tol must be positive"):
        point_polytope_distance(np.array([0.5, 0.5]), fp((0, 0), (1, 0), (0, 1)),
                                tol=0)
