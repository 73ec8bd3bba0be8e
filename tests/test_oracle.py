import random
import sys
from fractions import Fraction

import pytest

from barypoly import oracle, simplex
from barypoly.coordinates import feasible_tau, lambda_vertices, nullbasis
from barypoly.errors import InfeasibleError, InternalError, OracleMismatchError
from barypoly.fixtures import fixture_names, get_fixture
from barypoly.oracle import (
    _dd_reduced,
    _reduced_system,
    _scan_reduced,
    dd_vertices,
    random_feasible_sample,
    random_interior_point,
    random_polytope,
)
from barypoly.polytope import Location, Polytope, locate, validate
from barypoly.simplex import convex_membership
from helpers import (fraction_system, integer_system, interior_point, mat_vec,
                     ray_fractions, reference_reduced_system, vertices_agree)

F = Fraction
CENTER = (F(1, 2), F(1, 2))


def test_dd_square_matches_main_path(square):
    ora = dd_vertices(square, CENTER)
    lam = lambda_vertices(square, CENTER)
    assert ora.method == "DoubleDescription"
    assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices])
    assert ora.vertices == tuple(sorted(ora.vertices))


def test_dd_simplex_singleton():
    tri = validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    ora = dd_vertices(tri, (F(1, 4), F(1, 4)))
    assert len(ora.vertices) == 1
    assert ora.vertices[0] == (F(1, 2), F(1, 4), F(1, 4))


def test_dd_pentagon_center(pentagon):
    ora = dd_vertices(pentagon, (F(0), F(0)))
    lam = lambda_vertices(pentagon, (F(0), F(0)))
    # measured: five vertices at the center (see test_coordinates)
    assert len(ora.vertices) == 5
    assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices])


def test_dd_outside(square, pentagon):
    tri = validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    # the triangle has k = 0: its one candidate () survives exactly when
    # tau >= 0, i.e. when the point is inside
    for p, q in ((square, (F(5), F(5))), (pentagon, (F(3), F(0))),
                 (tri, (F(2, 3), F(2, 3))), (tri, (F(-1, 8), F(0)))):
        with pytest.raises(InfeasibleError, match="outside the polytope"):
            dd_vertices(p, q)
    assert dd_vertices(tri, (F(1, 2), F(1, 2))).vertices == ((F(0), F(1, 2), F(1, 2)),)


def test_dd_makes_no_simplex_call(square, prism8, monkeypatch):
    # the oracle reads tau off a kernel basis; the phase-one simplex is the
    # other route's tool
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = simplex.feasible_point
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("barypoly") \
                and getattr(mod, "feasible_point", None) is real:
            monkeypatch.setattr(mod, "feasible_point", counting)
    dd_vertices(square, CENTER)
    dd_vertices(prism8, (F(1, 3), F(1, 4), F(1, 5)))
    with pytest.raises(InfeasibleError):
        dd_vertices(square, (F(5), F(5)))
    assert calls == []
    feasible_tau(square, CENTER)   # the counter does see simplex calls
    assert len(calls) == 1


def test_reduced_system_is_tau_and_nullbasis(square, pentagon, prism8):
    for p in (square, pentagon, prism8):
        q = p.centroid()
        scale, rows, free = _reduced_system(p, q)
        tau, nb = fraction_system(scale, rows)
        assert nb == nullbasis(p) and len(free) == p.kernel_dim()
        assert mat_vec(p.stacked_rows(), tau) == list(q) + [1]


def test_dd_reduced_any_particular_solution(square, pentagon, pyramid, prism8):
    # feasible_tau's tau and the kernel's tau give translated reduced
    # polytopes with the same coordinate vertices, the same set of primitive
    # rays, from int rows over the lcm of its denominators as well as over
    # the elimination's L
    rng = random.Random(3)
    differ = 0
    for p in (square, pentagon, pyramid, prism8):
        q = interior_point(p, rng)
        scale, rows, free = _reduced_system(p, q)
        tau, nb = fraction_system(scale, rows)
        taus = (feasible_tau(p, q).lam, tuple(tau))
        differ += taus[0] != taus[1]
        lams = [_dd_reduced(*integer_system(t, nb), free) for t in taus]
        lams.append(_dd_reduced(scale, rows, free))
        assert lams[0] == lams[1] == lams[2]
        assert ray_fractions(lams[0]) == list(dd_vertices(p, q).vertices)
    assert differ  # the basepoints differ on some of the polytopes


def test_reduced_system_has_unit_rows_on_free_columns():
    # the RREF's free columns carry N's unit rows and a zero tau, L e_j and 0
    # on the int rows g = L (N, tau), which the double description's
    # starting simplex reads
    rng = random.Random(18)
    polys = [get_fixture(name) for name in fixture_names()]
    polys += [random_polytope(2 + s % 2, rng.randint(4 + s % 2, 8), seed=300 + s)
              for s in range(10)]
    for p in polys:
        scale, rows, free = _reduced_system(p, interior_point(p, rng))
        assert len(free) == p.kernel_dim()
        for j, f in enumerate(free):
            assert rows[f] == [scale * (i == j) for i in range(len(free))] + [0]


def test_reduced_system_pivot_in_the_last_column_is_internal():
    # four collinear points and a point off their line: [V; 1^T | -(p; 1)]
    # pivots in its last column, which valid input never reaches
    line = Polytope(d=2, n=4, vertices=tuple((F(k), F(2 * k)) for k in range(4)),
                    _kernel_rows=())
    for route in (_reduced_system, reference_reduced_system):
        with pytest.raises(InternalError, match="full row rank"):
            route(line, (F(1), F(0)))
    scale, rows, free = _reduced_system(line, (F(1), F(2)))
    tau, nb, ref_free = reference_reduced_system(line, (F(1), F(2)))
    assert (free, fraction_system(scale, rows)) == (ref_free, (tau, nb))


def test_scan_route_mismatch_raises(square, monkeypatch):
    # an active-set scan that misses a vertex is an invariant violation
    real = oracle._scan_reduced
    monkeypatch.setattr(oracle, "_scan_reduced",
                        lambda *args: set(sorted(real(*args))[1:]))
    with pytest.raises(OracleMismatchError, match="disagree"):
        dd_vertices(square, CENTER)


def test_scan_route_agrees_low_kernel_dim(square, pentagon, pyramid):
    for p, q in ((square, CENTER), (pentagon, (F(0), F(0))),
                 (pyramid, (F(1), F(1), F(1, 2)))):
        k = p.kernel_dim()
        assert k <= 2
        scale, rows, free = _reduced_system(p, q)
        _, nb = fraction_system(scale, rows)
        # the scan and double description from feasible_tau's basepoint
        scale, rows = integer_system(feasible_tau(p, q).lam, nb)
        scan = _scan_reduced(scale, rows, k)
        assert scan and scan == _dd_reduced(scale, rows, free)


def test_dd_cube_center_degenerate(prism8):
    q = (F(1, 2), F(1, 2), F(1, 2))
    ora = dd_vertices(prism8, q)
    lam = lambda_vertices(prism8, q)
    assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices])
    # the center is maximally symmetric: some vertices have tiny supports
    supports = sorted(sum(1 for x in v if x > 0) for v in ora.vertices)
    assert supports[0] == 2  # opposite-corner midpoints survive as vertices


def test_dd_boundary_and_degenerate_agreement(prism8, pyramid, pentagon):
    # boundary points make the reduced polytope lower-dimensional, which
    # drives the implicit-equality path of the double description
    cases = []
    for axis in range(3):
        for val in (F(0), F(1)):
            q = [F(1, 2)] * 3
            q[axis] = val
            cases.append((prism8, tuple(q), 1))  # cube face centers: dim 1
    base_center = tuple(
        sum(v[l] for v in pyramid.vertices[:4]) / 4 for l in range(3))
    cases.append((pyramid, base_center, 1))  # non-simplicial facet: dim 1
    v1, v2 = pentagon.vertices[0], pentagon.vertices[1]
    cases.append((pentagon, tuple((a + b) / 2 for a, b in zip(v1, v2)), 0))
    for p, q, want_dim in cases:
        lam = lambda_vertices(p, q)
        ora = dd_vertices(p, q)
        assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices])
        assert lam.dim == want_dim


def test_dd_random_agreement():
    rng = random.Random(500)
    for seed in range(10):
        d = 2 + seed % 2
        n = rng.randint(d + 1, 8)
        p = random_polytope(d, n, seed=200 + seed)
        q = interior_point(p, rng)
        ora = dd_vertices(p, q)
        lam = lambda_vertices(p, q)
        assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices]), \
            f"disagreement for d={d} n={n} seed={200 + seed}"


def test_random_feasible_sample_deterministic(square):
    verts = dd_vertices(square, CENTER).vertices
    a = random_feasible_sample(verts, CENTER, 5, seed=4)
    b = random_feasible_sample(verts, CENTER, 5, seed=4)
    assert [s.lam for s in a] == [s.lam for s in b]
    c = random_feasible_sample(verts, CENTER, 5, seed=5)
    assert [s.lam for s in a] != [s.lam for s in c]


def test_random_feasible_sample_exact(square):
    verts = dd_vertices(square, CENTER).vertices
    samples = random_feasible_sample(verts, CENTER, 10, seed=0)
    assert len(samples) == 10
    for s in samples:
        assert sum(s.lam) == 1 and all(x >= 0 for x in s.lam)
        for l in range(2):
            assert sum(w * v[l] for w, v in zip(s.lam, square.vertices)) \
                == CENTER[l]
        assert convex_membership(list(verts), s.lam) is not None
    assert random_feasible_sample(verts, CENTER, 0, seed=1) == []


def test_random_feasible_sample_simplex_constant():
    tri = validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    q = (F(1, 3), F(1, 6))
    samples = random_feasible_sample(dd_vertices(tri, q).vertices, q, 4, seed=2)
    assert len({s.lam for s in samples}) == 1


def test_random_feasible_sample_matches_weighted_formula():
    # one integer-weighted sum per coordinate equals the Fraction weights w·x
    for name in fixture_names():
        p = get_fixture(name)
        q = p.centroid()
        verts = dd_vertices(p, q).vertices
        for seed in range(10):
            rng = random.Random(seed)
            expected = []
            for _ in range(4):
                raw = [rng.randint(0, 999) for _ in verts]
                if sum(raw) == 0:
                    raw[0] = 1
                total = Fraction(sum(raw))
                weights = [Fraction(r) / total for r in raw]
                expected.append(tuple(sum((w * x for w, x in zip(weights, col)), F(0))
                                      for col in zip(*verts)))
            samples = random_feasible_sample(verts, q, 4, seed)
            assert [s.lam for s in samples] == expected
            assert all(s.point == q for s in samples)


def test_random_feasible_sample_pinned(pentagon):
    # the integer-weighted sums keep the draws and the values: seed 11's
    # samples at the pentagon's (1/10, 1/5), as the Fraction sums w·x gave them
    q = (F(1, 10), F(1, 5))
    samples = random_feasible_sample(dd_vertices(pentagon, q).vertices, q, 3, seed=11)
    assert [s.lam for s in samples] == [tuple(F(x) for x in row) for row in [
        ["211441475428/686073407535", "5232562151111/29249945857860",
         "25307576324727833/263091313881076590", "130717690617616/681583714717815",
         "253967528484035/1129047910113396"],
        ["1160017671257/4016414789532", "1482318312019/8154057002832",
         "871209755664403/7858115535719358", "26894771697541/162862498149624",
         "132920811420361/524577667182192"],
        ["963988520336/2989228248531", "120544538139/674297817284",
         "13444317141034441/163755901911025242", "91090254519239/424238087852397",
         "236508569563387/1171255308622308"],
    ]]
    assert all(type(x) is F for s in samples for x in s.lam)


def test_random_polytope_deterministic_and_valid():
    p1 = random_polytope(2, 6, seed=9)
    p2 = random_polytope(2, 6, seed=9)
    assert p1 == p2
    assert p1.n == 6 and p1.d == 2
    p3 = random_polytope(3, 7, seed=10)
    assert p3.n == 7 and p3.d == 3


def test_random_interior_point_is_seeded_and_interior(pentagon, prism8):
    for p in (pentagon, prism8):
        q = random_interior_point(p, random.Random(7))
        assert q == random_interior_point(p, random.Random(7))
        assert q != random_interior_point(p, random.Random(8))
        assert locate(p, q).tag == Location.INTERIOR
