import random
from fractions import Fraction

import pytest

from barypoly.coordinates import feasible_tau, lambda_vertices, nullbasis
from barypoly.errors import InfeasibleError
from barypoly.oracle import (
    _dd_reduced,
    _scan_reduced,
    dd_vertices,
    random_feasible_sample,
    random_polytope,
    vertices_agree,
)
from barypoly.polytope import validate
from barypoly.simplex import convex_membership
from helpers import interior_point

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


def test_dd_outside(square):
    with pytest.raises(InfeasibleError):
        dd_vertices(square, (F(5), F(5)))


def test_scan_route_agrees_low_kernel_dim(square, pentagon, pyramid):
    for p, q in ((square, CENTER), (pentagon, (F(0), F(0))),
                 (pyramid, (F(1), F(1), F(1, 2)))):
        k = p.kernel_dim()
        assert k <= 2
        tau, nb = feasible_tau(p, q).lam, nullbasis(p)
        scan = _scan_reduced(nb, tau, k)
        assert scan and scan == _dd_reduced(nb, tau, k)


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


def test_random_polytope_deterministic_and_valid():
    p1 = random_polytope(2, 6, seed=9)
    p2 = random_polytope(2, 6, seed=9)
    assert p1 == p2
    assert p1.n == 6 and p1.d == 2
    p3 = random_polytope(3, 7, seed=10)
    assert p3.n == 7 and p3.d == 3
