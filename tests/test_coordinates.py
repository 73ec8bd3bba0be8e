import random
from fractions import Fraction

import pytest

from barypoly import linalg
from barypoly.coordinates import (
    BarycentricVector,
    caratheodory_decompose,
    circular_windows,
    feasible_tau,
    gamma_polytope,
    is_interior,
    lambda_vertices,
    nullbasis,
    segment_interval,
    simplicial_coords,
)
from barypoly.errors import (
    DimensionMismatchError,
    InconsistentInputsError,
    InfeasibleError,
    NotAnIntervalError,
    NotMemberError,
    SingularMatrixError,
    SingularPatternError,
    UnboundedDirectionError,
)
from barypoly.oracle import dd_vertices, random_feasible_sample, random_polytope
from barypoly.polytope import validate
from barypoly.simplex import convex_membership
from helpers import (
    brute_force_vertices,
    interior_point,
    mat_mul,
    mat_vec,
    pentagon_edge_region_point,
    reference_gamma_polytope,
    solve_linear,
)

F = Fraction
CENTER = (F(1, 2), F(1, 2))


@pytest.fixture(scope="module")
def triangle():
    return validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)


def _check_feasible(p, bv):
    assert len(bv.lam) == p.n
    assert sum(bv.lam) == 1
    assert all(x >= 0 for x in bv.lam)
    for l in range(p.d):
        assert sum(w * v[l] for w, v in zip(bv.lam, p.vertices)) == bv.point[l]


def test_nullbasis_square(square):
    nb = nullbasis(square)
    assert len(nb) == 4 and all(len(row) == 1 for row in nb)
    col = [row[0] for row in nb]
    scale = col[0]
    assert scale != 0
    assert col == [scale, -scale, scale, -scale]


def test_nullbasis_simplex_and_pentagon(triangle, pentagon):
    assert nullbasis(triangle) == [[], [], []]
    nb = nullbasis(pentagon)
    assert len(nb) == 5 and all(len(row) == 2 for row in nb)
    stacked = pentagon.stacked_rows()
    for j in range(2):
        col = [row[j] for row in nb]
        assert mat_vec(stacked, col) == [F(0)] * 3


def test_feasible_tau_square(square):
    tau = feasible_tau(square, CENTER)
    _check_feasible(square, tau)
    # phase-one output is a basic solution: support columns affinely independent
    support = [square.vertices[j] for j, x in enumerate(tau.lam) if x != 0]
    assert linalg.affine_dim(support) == len(support) - 1


def test_feasible_tau_triangle_unique(triangle):
    tau = feasible_tau(triangle, (F(1, 3), F(1, 3)))
    assert tau.lam == (F(1, 3), F(1, 3), F(1, 3))


def test_feasible_tau_outside(square):
    with pytest.raises(InfeasibleError):
        feasible_tau(square, (F(2), F(2)))


def test_circular_windows():
    assert circular_windows(4, 2) == [frozenset({i}) for i in (1, 2, 3, 4)]
    assert circular_windows(5, 2) == [
        frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}),
        frozenset({4, 5}), frozenset({5, 1}),
    ]
    assert circular_windows(4, 3) == []


def test_simplicial_coords_square(square):
    sc = simplicial_coords(square, CENTER, {4})
    assert sc.sigma == (F(1, 2), F(0), F(1, 2), F(0)) and sc.feasible
    sc = simplicial_coords(square, CENTER, {3})
    assert sc.sigma == (F(0), F(1, 2), F(0), F(1, 2)) and sc.feasible
    sc = simplicial_coords(square, (F(3, 4), F(1, 4)), {2})
    assert not sc.feasible
    assert min(sc.sigma) < 0
    # stacked system still holds for the infeasible solution
    assert sum(sc.sigma) == 1
    for l in range(2):
        assert sum(w * v[l] for w, v in zip(sc.sigma, square.vertices)) \
            == (F(3, 4), F(1, 4))[l]


def test_simplicial_coords_singular_pattern(prism8):
    # dropping the whole top face leaves the coplanar bottom face
    with pytest.raises(SingularPatternError):
        simplicial_coords(prism8, (F(1, 2), F(1, 2), F(1, 2)), {5, 6, 7, 8})


def test_simplicial_coords_reads_its_own_walls(prism8, monkeypatch):
    # one row read alone: the reader gets the values of that row's d + 1
    # walls, not all C(n, d) of them
    from barypoly import coordinates

    got = []
    real = coordinates._read_rows

    def spy(rows, vals):
        got.append(len(vals))
        return real(rows, vals)

    monkeypatch.setattr(coordinates, "_read_rows", spy)
    sc = simplicial_coords(prism8, (F(1, 3), F(1, 2), F(2, 3)), {1, 3, 6, 8})
    assert got == [prism8.d + 1]
    assert sc.sigma == (0, F(1, 12), 0, F(1, 4), F(5, 12), 0, F(1, 4), 0)


def test_simplicial_coords_singular_on_the_4_cube():
    # the 4-cube's patterns whose 5 kept vertices are affinely dependent
    # (four of them on a square 2-face) raise, at any point; the others give
    # the coordinates of the point
    import itertools

    cube = list(itertools.product((0, 1), repeat=4))
    p = validate([[v[l] for v in cube] for l in range(4)], 4)
    point = (F(1, 3), F(2, 5), F(1, 2), F(3, 7))
    singular = 0
    for keep in itertools.combinations(range(16), 5):
        zeros = set(range(1, 17)) - {k + 1 for k in keep}
        if linalg.affine_dim([cube[k] for k in keep]) < 4:
            singular += 1
            with pytest.raises(SingularPatternError):
                simplicial_coords(p, point, zeros)
        else:
            sigma = simplicial_coords(p, point, zeros).sigma
            assert [sum(w * v[l] for w, v in zip(sigma, cube)) for l in range(4)] \
                == list(point)
    assert singular > 0


def test_simplicial_coords_bad_zero_set(square):
    with pytest.raises(ValueError):
        simplicial_coords(square, CENTER, {1, 2})
    with pytest.raises(ValueError):
        simplicial_coords(square, CENTER, {9})


@pytest.mark.parametrize("zero_set", [[F(3, 2)], [1.5], ["1"], [2.0]],
                         ids=["fraction", "float", "string", "integral-float"])
def test_simplicial_coords_non_integer_zero_set(square, zero_set):
    # an entry that is not an integer is a malformed zero set, as an entry out
    # of range is: ValueError, not a singular pattern or a TypeError, and 2.0
    # is refused although it equals the valid entry 2
    with pytest.raises(ValueError, match="zero set entries must be integers"):
        simplicial_coords(square, CENTER, zero_set)


def test_is_interior_reads_the_vertex_supports(square, prism8):
    # interior iff the supports of Lambda's vertices cover 1..n
    for p, q, inside in ((square, CENTER, True),
                         (square, (F(1, 2), F(0)), False),
                         (square, (F(0), F(0)), False),
                         (prism8, (F(1, 2),) * 3, True),
                         (prism8, (F(0), F(1, 3), F(1, 2)), False)):
        assert is_interior(p.n, lambda_vertices(p, q).vertex_supports) is inside


def test_lambda_vertices_square_center(square):
    lam = lambda_vertices(square, CENTER)
    assert [v.lam for v in lam.vertices] == [
        (F(0), F(1, 2), F(0), F(1, 2)),
        (F(1, 2), F(0), F(1, 2), F(0)),
    ]
    assert lam.dim == 1
    assert lam.theorem_count_match
    assert set(lam.vertex_supports) == {frozenset({1, 3}), frozenset({2, 4})}
    assert {v.lam for v in lam.vertices} == brute_force_vertices(square, CENTER)


def test_lambda_vertices_triangle(triangle):
    lam = lambda_vertices(triangle, (F(1, 4), F(1, 4)))
    assert len(lam.vertices) == 1 and lam.dim == 0
    _check_feasible(triangle, lam.vertices[0])


def test_lambda_vertices_pentagon_center(pentagon):
    lam = lambda_vertices(pentagon, (F(0), F(0)))
    assert lam.dim == 2
    # measured: the exact center lies strictly inside five triangles, so the
    # coordinate polytope is a pentagon here, not the classical n-d count
    assert len(lam.vertices) == 5
    assert not lam.theorem_count_match
    assert {v.lam for v in lam.vertices} == brute_force_vertices(pentagon, (F(0), F(0)))


def test_lambda_vertices_outside(square):
    with pytest.raises(InfeasibleError):
        lambda_vertices(square, (F(2), F(2)))


def test_lambda_vertices_boundary_polygon(square, pentagon):
    for p, q in ((square, (F(1, 2), F(0))), (square, (F(0), F(0)))):
        lam = lambda_vertices(p, q)
        assert lam.dim == 0 and len(lam.vertices) == 1
    v1, v2 = pentagon.vertices[0], pentagon.vertices[1]
    mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
    lam = lambda_vertices(pentagon, mid)
    assert lam.dim == 0 and len(lam.vertices) == 1


@pytest.mark.parametrize("read", [
    lambda p, point: lambda_vertices(p, point),
    lambda p, point: simplicial_coords(p, point, (1,)),
    lambda p, point: feasible_tau(p, point),
], ids=["lambda_vertices", "simplicial_coords", "feasible_tau"])
@pytest.mark.parametrize("point", [(F(1, 2),), (F(1, 2), F(1, 2), 7)],
                         ids=["short", "long"])
def test_wrong_length_points_are_refused(square, read, point):
    # a point whose length is not d is refused, as locate refuses it, and
    # never read as the point its first d coordinates make
    with pytest.raises(DimensionMismatchError, match="point has length"):
        read(square, point)


def test_a_point_read_builds_no_table(monkeypatch):
    # a point read on a fresh prism8 takes the wall values at the point off
    # C(7, 2) = 21 cofactors of 2 x 3 translated prefixes and builds no
    # wall, the second read too; once a table is built (here by _table, as
    # a sweep or a ray builds it) a read is a lookup: the build takes the
    # C(8, 3) = 56 walls of 3 x 4 rows, and the read after it none.  A
    # fresh object: the session fixture may already hold its table
    from barypoly.coordinates import _table
    from barypoly.fixtures import fixture_document
    from barypoly.polytope import parse_polytope

    p = parse_polytope(fixture_document("prism8"))
    calls = []
    real_cofactors = linalg.cofactors
    monkeypatch.setattr(linalg, "cofactors",
                        lambda rows: calls.append(rows) or real_cofactors(rows))

    def shapes():
        found = {(len(rows), *{len(row) for row in rows}) for rows in calls}
        counted = len(calls)
        calls.clear()
        return counted, found

    points = [(F(1, 3), F(2, 5), F(1, 2)), (F(1, 2),) * 3, (F(1, 4), F(1, 4), F(3, 4))]
    lams = [lambda_vertices(p, q) for q in points[:1]]
    assert shapes() == (21, {(2, 3)})
    lams.append(lambda_vertices(p, points[1]))
    assert shapes() == (21, {(2, 3)}) and p._pattern_table == []
    _table(p)
    assert shapes() == (56, {(3, 4)})
    lams.append(lambda_vertices(p, points[2]))
    assert shapes() == (0, set())
    assert [list(lam.vertex_arrays()) for lam in lams] == [
        sorted(brute_force_vertices(p, q)) for q in points]


def test_square_row_signs():
    # the square (0,0), (1,0), (1,1), (0,1), worked by hand.  Its walls
    # f_S(x, y) = det[(1, x, y); (1, v_a); (1, v_b)] over the pairs
    # 12, 13, 14, 23, 24, 34 are y, y - x, -x, 1 - x, 1 - x - y and 1 - y.
    # Zero set {1} keeps v2 v3 v4 with xs (f_34, -f_24, f_23) = (1 - y,
    # x + y - 1, 1 - x), whose sum is 1; likewise {2}: (f_34, -f_14, f_13),
    # {3}: (f_24, -f_14, f_12), {4}: (f_23, -f_13, f_12), each summing to 1.
    # So every row is live, and needs each wall it reads with a + sign >= 0
    # and each with a - sign <= 0
    from barypoly.coordinates import _feasible_rows, _patterns, _survivors, _table
    from barypoly.fixtures import fixture_document
    from barypoly.polytope import parse_polytope

    p = parse_polytope(fixture_document("square"))
    walls, rows, order, live, ge, le = _patterns(p)
    assert walls == [(0, 0, 1), (0, -1, 1), (0, -1, 0), (1, -1, 0), (1, -1, -1), (1, 0, -1)]
    assert order == list(rows.values()) == [
        ((1,), (1, 2, 3), [5, ~4, 3]), ((2,), (0, 2, 3), [5, ~2, 1]),
        ((3,), (0, 1, 3), [4, ~2, 0]), ((4,), (0, 1, 2), [3, ~1, 0])]
    assert live == 0b1111
    assert ge == [0b1100, 0b0010, 0, 0b1001, 0b0100, 0b0011]
    assert le == [0, 0b1000, 0b0110, 0, 0b0001, 0]
    table = _table(p)
    # at (1/3, 1/4), E = 12: the values 3, -1, -4, 8, 5, 9 rule out
    # ge[1] | ge[2] | le[0] | le[3] | le[4] | le[5] = rows {1} and {2}
    assert _survivors(table, [3, -1, -4, 8, 5, 9]) == 0b1100
    assert list(_feasible_rows(p, (Fraction(1, 3), Fraction(1, 4)))) == [
        ((3,), (0, 1, 3), (5, 4, 3), 12), ((4,), (0, 1, 2), (8, 1, 3), 12)]
    # at the centre, E = 2, the zero walls 13 and 24 rule out nothing
    assert _survivors(table, [1, 0, -1, 1, 0, 1]) == 0b1111


def test_lambda_vertices_random_properties():
    rng = random.Random(2024)
    for seed in range(8):
        d = 2 + seed % 2
        n = rng.randint(d + 2, 7)
        p = random_polytope(d, n, seed=100 + seed)
        q = interior_point(p, rng)
        lam = lambda_vertices(p, q)
        k = p.kernel_dim()
        assert lam.dim <= k
        for v, supp in zip(lam.vertices, lam.vertex_supports):
            _check_feasible(p, v)
            assert sum(1 for x in v.lam if x == 0) >= k
            pts = [p.vertices[j - 1] for j in sorted(supp)]
            assert linalg.affine_dim(pts) == len(pts) - 1
        # every vertex is reproduced by some feasible zero pattern over its zeros
        from itertools import combinations
        for v in lam.vertices:
            zeros = [j + 1 for j, x in enumerate(v.lam) if x == 0]
            reproduced = False
            for z in combinations(zeros, k):
                try:
                    sc = simplicial_coords(p, q, z)
                except SingularPatternError:
                    continue
                if sc.feasible and sc.sigma == v.lam:
                    reproduced = True
                    break
            assert reproduced
        # every feasible circular-window solution appears in the vertex list
        verts = {v.lam for v in lam.vertices}
        for win in circular_windows(p.n, p.d):
            try:
                sc = simplicial_coords(p, q, win)
            except SingularPatternError:
                continue
            if sc.feasible:
                assert sc.sigma in verts
        # random feasible samples stay inside the hull of the vertex list
        for s in random_feasible_sample(dd_vertices(p, q).vertices, q, 3, seed=seed):
            assert convex_membership(sorted(verts), s.lam) is not None


def test_interval_polytope_d1():
    seg = validate([[F(0), F(3)]], 1)
    lam = lambda_vertices(seg, (F(1),))
    assert [v.lam for v in lam.vertices] == [(F(2, 3), F(1, 3))]
    assert lam.dim == 0 and lam.theorem_count_match


def test_twelve_gon_desk_scale():
    import math
    import time
    pts = []
    for i in range(12):
        ang = 2 * math.pi * i / 12
        pts.append((F(round(math.cos(ang) * 10000), 10000),
                    F(round(math.sin(ang) * 10000), 10000)))
    poly = validate([[p[0] for p in pts], [p[1] for p in pts]], 2)
    start = time.perf_counter()
    lam = lambda_vertices(poly, (F(1, 100), F(1, 50)))  # 220 zero patterns
    assert time.perf_counter() - start < 5.0
    assert lam.dim == poly.kernel_dim() == 9
    assert len(lam.vertices) == 70
    for v in lam.vertices:
        assert sum(v.lam) == 1 and min(v.lam) >= 0


def test_gamma_square(square):
    tau = feasible_tau(square, CENTER)
    nb = nullbasis(square)
    lam = lambda_vertices(square, CENTER)
    gam = gamma_polytope(square, tau, nb, lam)
    assert len(gam.vertices) == 2
    assert all(len(c) == 1 for c in gam.vertices)
    assert (F(0),) in gam.vertices
    # H-representation rows are tau_j + (N c)_j >= 0
    assert len(gam.hrep_rows) == 4
    for (coeffs, off), row, t in zip(gam.hrep_rows, nb, tau.lam):
        assert tuple(row) == coeffs and off == t
    # mapping back reproduces the vertex list exactly (bijection)
    for c, v in zip(gam.vertices, lam.vertices):
        mapped = tuple(t + linalg.dot(row, c) for t, row in zip(tau.lam, nb))
        assert mapped == v.lam


def test_gamma_simplex(triangle):
    q = (F(1, 3), F(1, 3))
    tau = feasible_tau(triangle, q)
    lam = lambda_vertices(triangle, q)
    gam = gamma_polytope(triangle, tau, nullbasis(triangle), lam)
    assert gam.vertices == ((),)


def test_gamma_rank_deficient_basis(pentagon):
    q = (F(0), F(0))
    tau = feasible_tau(pentagon, q)
    lam = lambda_vertices(pentagon, q)
    # both columns equal: N has rank 1 < n-d-1 = 2
    bad_nb = [[row[0], row[0]] for row in nullbasis(pentagon)]
    with pytest.raises(SingularMatrixError):
        gamma_polytope(pentagon, tau, bad_nb, lam)


def test_gamma_needs_the_unit_rows(pentagon):
    # declared narrowing: Gamma reads c off N's unit rows, so a full-rank
    # basis without them is refused, which elimination used to accept
    q = (F(0), F(0))
    tau = feasible_tau(pentagon, q)
    lam = lambda_vertices(pentagon, q)
    mixed = mat_mul(nullbasis(pentagon), [[F(1), F(1)], [F(0), F(1)]])
    assert linalg.rank(mixed) == 2
    assert len(reference_gamma_polytope(pentagon, tau, mixed, lam).vertices) == 5
    with pytest.raises(SingularMatrixError):
        gamma_polytope(pentagon, tau, mixed, lam)


def test_gamma_inconsistent_inputs(square):
    tau_wrong = feasible_tau(square, (F(1, 4), F(1, 4)))
    lam = lambda_vertices(square, CENTER)
    # a kernel basis of a different polytope spans the wrong directions
    bad_nb = [[F(1)], [F(0)], [F(0)], [F(-1)]]
    with pytest.raises(InconsistentInputsError):
        gamma_polytope(square, tau_wrong, bad_nb, lam)


def test_gamma_with_denominators_near_2_64():
    # a convex pentagon moved off its integer corners by 1/(2^64 - k): the
    # vertices' common denominator M, tau's T and N's L are all wide, and
    # the integer test must still give the eliminated Gamma and refuse a
    # basepoint tau from another point, as the elimination does
    corners = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]
    verts = [[x + F(1, 2 ** 64 - 3 * i - l) for l, x in enumerate(c)]
             for i, c in enumerate(corners)]
    p = validate([list(col) for col in zip(*verts)], 2)
    q = (F(1), F(8, 5))
    tau, nb, lam = feasible_tau(p, q), nullbasis(p), lambda_vertices(p, q)
    gam = gamma_polytope(p, tau, nb, lam)
    assert gam == reference_gamma_polytope(p, tau, nb, lam)
    assert len(gam.vertices) == 5
    assert max(x.denominator for c in gam.vertices for x in c) > 2 ** 64
    other = feasible_tau(p, (F(1), F(1)))
    for route in (gamma_polytope, reference_gamma_polytope):
        with pytest.raises(InconsistentInputsError):
            route(p, other, nb, lam)


def test_tau_independence_fixtures(square, pentagon, pyramid):
    rng = random.Random(11)
    from barypoly.polytope import locate
    for p in (square, pentagon, pyramid):
        q = interior_point(p, rng)
        tau = feasible_tau(p, q)
        tau2 = BarycentricVector(lam=locate(p, q).barycentric, point=tau.point)
        nb = nullbasis(p)
        lam = lambda_vertices(p, q)
        g1 = gamma_polytope(p, tau, nb, lam)
        g2 = gamma_polytope(p, tau2, nb, lam)
        if tau.lam == tau2.lam:
            continue
        # reduced vertex sets are translates by the unique c' with N c' = tau - tau2
        k = p.kernel_dim()
        nt = [list(col) for col in zip(*nb)]
        gram = mat_mul(nt, nb)
        diff = [a - b for a, b in zip(tau.lam, tau2.lam)]
        shift = solve_linear(gram, mat_vec(nt, diff))
        assert mat_vec(nb, shift) == diff
        translated = {tuple(a + s for a, s in zip(c, shift)) for c in g1.vertices}
        assert translated == set(g2.vertices)
        # both basepoints induce the same coordinate vertices
        for gam, t in ((g1, tau), (g2, tau2)):
            mapped = {
                tuple(tt + linalg.dot(row, c) for tt, row in zip(t.lam, nb))
                for c in gam.vertices
            }
            assert mapped == {v.lam for v in lam.vertices}


def test_segment_interval_square(square):
    tau = BarycentricVector(lam=(F(1, 2), F(0), F(1, 2), F(0)), point=CENTER)
    a, b = segment_interval(tau, (F(1), F(-1), F(1), F(-1)))
    assert (a, b) == (F(-1, 2), F(0))
    a2, b2 = segment_interval(tau, (F(-1), F(1), F(-1), F(1)))
    assert (a2, b2) == (F(0), F(1, 2))
    # endpoints reproduce the two vertices
    n_col = (F(1), F(-1), F(1), F(-1))
    ends = {
        tuple(t + a * c for t, c in zip(tau.lam, n_col)),
        tuple(t + b * c for t, c in zip(tau.lam, n_col)),
    }
    lam = lambda_vertices(square, CENTER)
    assert ends == {v.lam for v in lam.vertices}


def test_segment_interval_errors(pentagon):
    tau = feasible_tau(pentagon, (F(0), F(0)))
    with pytest.raises(NotAnIntervalError):
        segment_interval(tau, (F(1),) * 5)
    sq_tau = BarycentricVector(lam=(F(1, 2), F(0), F(1, 2), F(0)), point=CENTER)
    with pytest.raises(UnboundedDirectionError):
        segment_interval(sq_tau, (F(1), F(1), F(1), F(1)))


def test_caratheodory_square_midpoint(square):
    lam = lambda_vertices(square, CENTER)
    x = BarycentricVector(lam=(F(1, 4),) * 4, point=CENTER)
    pairs = caratheodory_decompose(lam, x)
    assert [w for _, w in pairs] == [F(1, 2), F(1, 2)]


def test_caratheodory_vertex_case(square):
    lam = lambda_vertices(square, CENTER)
    x = BarycentricVector(lam=lam.vertices[1].lam, point=CENTER)
    assert caratheodory_decompose(lam, x) == [(1, F(1))]


def test_caratheodory_not_member(square):
    lam = lambda_vertices(square, CENTER)
    bad = list(lam.vertices[0].lam)
    bad[0] += F(1, 1000)
    x = BarycentricVector(lam=tuple(bad), point=CENTER)
    with pytest.raises(NotMemberError):
        caratheodory_decompose(lam, x)


def test_caratheodory_pentagon_samples(pentagon):
    rng = random.Random(31)
    q = pentagon_edge_region_point(pentagon, 1, rng)
    lam = lambda_vertices(pentagon, q)
    assert len(lam.vertices) == 3
    cases = [(lam, s) for s in random_feasible_sample(
        dd_vertices(pentagon, q).vertices, q, 10, seed=9)]
    # the uniform mix of all five centre vertices comes back as <= 3 points
    centre = lambda_vertices(pentagon, (F(0), F(0)))
    mix = tuple(sum(c) / 5 for c in zip(*centre.vertex_arrays()))
    cases.append((centre, BarycentricVector(lam=mix, point=centre.point)))
    for lam, s in cases:
        pairs = caratheodory_decompose(lam, s)
        assert len(pairs) <= 3
        assert sum(w for _, w in pairs) == 1
        assert all(w > 0 for _, w in pairs)
        recon = [
            sum((w * lam.vertices[i].lam[l] for i, w in pairs), F(0))
            for l in range(pentagon.n)
        ]
        assert tuple(recon) == s.lam


def test_circular_windows_need_more_vertices_than_dimensions():
    with pytest.raises(ValueError, match="need n > d"):
        circular_windows(2, 2)
