"""Property tests: the integer pattern scan against an independent route.

``lambda_vertices`` scans zero patterns with fraction-free integer
elimination; ``helpers.brute_force_vertices`` solves every pattern with
Fraction Gauss-Jordan.  Both must give the same vertex set at interior,
boundary, chamber-wall and large-bit-size points of random polytopes.  At the
same points ``dim`` must equal the affine dimension of the vertex list, every
Gamma vertex c must map back to its Lambda vertex as tau + N·c, and Gamma,
read off N's unit rows, must equal ``helpers.reference_gamma_polytope``'s
elimination; both must refuse the same inconsistent inputs.  Along a ray, the
vertex lists read off a polytope's pattern table must equal a fresh
elimination's at every t, and row Z of that elimination must hold sigma_Z
and J_Z·h exactly; the rows read off the table at a point must equal the
elimination's there.  A table read runs the reader over the rows that the
wall signs leave, and must give the feasible rows of the reader over all
rows, row for row; off every wall the census is the count of those rows.
``caratheodory_decompose``'s support points must be affinely independent.
``locate``, which decides by feasibility alone, must agree with the supports
of those vertex lists, and so with ``analyze``'s location, which reads them,
and the double-description oracle must give the same vertex lists and refuse
the same outside points.  The census cells, read off the integer pass's
vertex keys, must equal the count, affine dimension and n - d test of the
Fraction vertices (``helpers.reference_census``).  The oracle's integer
rays, as Fractions, must give the list of ``helpers.reference_dd_reduced``, the same
insertion over Fractions on the Fraction rref's tau and N, for d = 2, 3 and
4, and its k <= 2 scan on integer cross products must give the list of
``helpers.reference_scan_reduced``, which solves each subset over Fractions,
from either basepoint tau.  The oracle's sorted int rows must be its Fraction
list (``helpers.reference_dd_vertices``) scaled to ints, and the sampler on
them must draw ``helpers.reference_sample_sums``' values.  The oracle's
primitive-row elimination must give g / L = the Fraction rref's (N, tau) and
free columns on drawn rational systems, and oracle-check's integer sample verdict the exact test of the
Fraction samples.  ``report.dumps`` must write the bytes of
``json.dumps(doc, indent=2)`` for nested documents of any strings, ints,
bools and None.  ``semidiff_probe``, which runs the
witness half the sweep runs and builds its quotient sets on integers, must
give ``helpers.reference_semidiff_probe``'s report, and a semidiff sweep row
the row formatted from that report's witness distances.  The Hausdorff
distance, which skips the vertices that cannot raise its maximum, must give
``helpers.reference_hausdorff_status``'s value bit for bit, with its flag True
wherever the reference's is, on coordinate polytopes along rays, quotient
sets and raw float vertex sets; ``continuity_probe`` must give the steps of
``helpers.reference_continuity_probe``.  ``_min_norm_point`` and
``_hausdorff_status`` must give the distance (by ``repr``) and the flag of
the reference kernel, ``helpers.reference_min_norm_point`` and
``helpers.reference_pruned_hausdorff_status``, on float point sets of
dimension 1 to 8 with 1 to 14 points, overflowing and non-finite ones
included, at every kind of cutoff.  ``simplicial_coords``, which reads its
keep set's Cramer vector off one cofactor call, must give
the one solution of [V_keep; 1^T]·lam = [q; 1] at every zero set, and
SingularPatternError exactly where the keep set is affinely dependent; the
selection Jacobian must equal ``helpers.reference_selection_jacobian``'s
Fraction solves.  Both probe references read every
vertex list off the Fraction route, ``lambda_vertices``.  On d = 2 point
sets ``validate``'s hull walk, and on d = 3 and d = 4 point sets its integer
certificates with phase ones for the rest, must raise the error, at the
vertex index, or give the kernel rows of ``helpers.reference_validate``'s
phase ones.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from barypoly import linalg
from barypoly.cli import _analysis_report, _pick_selection, _sweep_row, main
from barypoly.coordinates import (
    BarycentricVector,
    _census,
    _census_at,
    _evaluate,
    _feasible,
    _feasible_rows,
    _lambda_rows,
    _masked_rows,
    _pattern_order,
    _ray_keys,
    _read_rows,
    _sigma,
    _table,
    _vertex_keys,
    _vertex_list,
    _vertex_rows,
    _vertices_at,
    _wall_values,
    caratheodory_decompose,
    feasible_tau,
    gamma_polytope,
    lambda_vertices,
    nullbasis,
    simplicial_coords,
)
from barypoly.errors import (
    BarypolyError,
    InconsistentInputsError,
    InfeasibleError,
    InternalError,
    SingularPatternError,
)
from barypoly.fixtures import get_fixture
from barypoly.oracle import (
    _dd_reduced,
    _dd_rows,
    _reduced_system,
    _sample_sums,
    _scan_reduced,
    dd_vertices,
    random_feasible_sample,
    random_polytope,
    samples_feasible,
)
from barypoly.polytope import Location, Polytope, locate, polytope_document, validate
from barypoly.probes import (
    ProbeReport,
    FloatPolytope,
    ProbeStep,
    _differences,
    _hausdorff_status,
    _min_norm_point,
    _semidiff_witness,
    _selection_jacobian_exact,
    continuity_probe,
    semidiff_probe,
)
from barypoly.report import dumps, format_float
from helpers import (
    brute_force_vertices,
    facet_point,
    float_polytope,
    fraction_system,
    integer_system,
    mat_vec,
    matrices,
    rationals,
    reference_dd_reduced,
    reference_dd_vertices,
    reference_sample_sums,
    ray_fractions,
    reference_census,
    reference_continuity_probe,
    reference_gamma_polytope,
    reference_differences,
    reference_hausdorff_status,
    reference_min_norm_point,
    reference_pruned_hausdorff_status,
    reference_patterns,
    reference_reduced_system,
    reference_report,
    reference_rref,
    reference_scan_reduced,
    reference_selection_jacobian,
    reference_semidiff_probe,
    reference_validate,
    reference_walls,
)

F = Fraction
BIG = 1 << 64

PROPERTY = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def polytopes(draw, max_n=9, dims=(2, 3)):
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(d + 1, max_n))
    return random_polytope(d, n, seed=draw(st.integers(0, 10**6)))


def _combination(vertices, weights):
    total = sum(weights)
    d = len(vertices[0])
    return tuple(sum((F(w) / total * v[l] for w, v in zip(weights, vertices)), F(0))
                 for l in range(d))


def _zero_set(p, keep):
    """The zero set of a row's keep set: the 1-based indices it leaves out."""
    return tuple(j for j in range(1, p.n + 1) if j - 1 not in keep)


def _rationals(p, rows):
    """(zero set, sigma) per row of (keep, xs, den)."""
    return [(_zero_set(p, keep), _sigma(p.n, keep, xs, den)) for keep, xs, den in rows]


def _table_read(p, q):
    """The rows (keep, xs, den) read off the polytope's table at q."""
    walls, order, *_ = _table(p)
    return _read_rows(order, _evaluate(walls, q))


def _lone_read(p, q):
    """The rows read off the wall values at q, with the patterns streamed."""
    return _read_rows(_pattern_order(p), _wall_values(p.vertices, q))


def _fractions_at(p, q):
    """Lambda(q)'s sorted Fraction vertices, from both passes of the table."""
    keys = _vertex_keys(_feasible_rows(p, q))
    return [lam for lam, _ in _vertex_list(*_vertex_rows(p.n, keys))]


def _eliminated(p, q):
    """(zero set, sigma) per row of a fresh elimination at q, in its order."""
    return [(combo, _sigma(p.n, keep, [x for x, in nums], den))
            for combo, keep, den, nums in reference_patterns(p, q)]


def _feasible_eliminated(p, q):
    return [(combo, sigma) for combo, sigma in _eliminated(p, q)
            if all(x >= 0 for x in sigma)]


def _check_against_brute_force(p, q):
    lam = lambda_vertices(p, q)
    brute = sorted(brute_force_vertices(p, q))
    assert [v.lam for v in lam.vertices] == brute
    assert lam.vertex_supports == tuple(
        frozenset(j + 1 for j, x in enumerate(v) if x != 0) for v in brute)
    assert lam.dim == linalg.affine_dim(lam.vertex_arrays())
    tau, nb = feasible_tau(p, q), nullbasis(p)
    gam = gamma_polytope(p, tau, nb, lam)
    assert [tuple(t + linalg.dot(row, c) for t, row in zip(tau.lam, nb))
            for c in gam.vertices] == brute
    assert gam == reference_gamma_polytope(p, tau, nb, lam)
    return lam


@PROPERTY
@given(polytopes(), st.data())
def test_interior_points(p, data):
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    q = _combination(p.vertices, weights)
    _check_against_brute_force(p, q)
    # the scan yields exactly the feasible patterns, in lexicographic order
    expected = []
    for combo in combinations(range(1, p.n + 1), p.kernel_dim()):
        try:
            sc = simplicial_coords(p, q, combo)
        except SingularPatternError:
            continue
        if sc.feasible:
            expected.append((combo, sc.sigma))
    assert _rationals(p, _feasible_rows(p, q)) == expected == _feasible_eliminated(p, q)


@PROPERTY
@given(polytopes(), st.data())
def test_ray_table_matches_the_scan(p, data):
    # Lambda(q + t·h) read off the polytope's table by _feasible_rows equals
    # the distinct feasible rows of a fresh elimination at q + t·h, and is
    # empty exactly where those are: at 0 and the probe steps t0/2^k, at
    # chamber walls (zeros of some sigma_Z(q + t·h)), between walls, and past
    # the last wall either way
    kind = data.draw(st.sampled_from(["interior", "vertex", "midpoint"]))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    if kind == "interior":
        weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
        q = _combination(p.vertices, weights)
    elif kind == "vertex":
        q = p.vertices[i]
    else:
        q = tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j]))
    h = tuple(F(x) for x in data.draw(st.lists(st.integers(-3, 3), min_size=p.d,
                                               max_size=p.d)))
    table = list(reference_patterns(p, q, h))
    walls = sorted({F(-a, b) for _, _, _, nums in table for a, b in nums if b})
    ts = [F(0)] + [F(1, 8) / (1 << k) for k in range(4)]
    if walls:
        between = [(x + y) / 2 for x, y in zip(walls, walls[1:])]
        ts += data.draw(st.lists(st.sampled_from(walls + between), min_size=2,
                                 max_size=4))
        ts += [walls[0] - 1, walls[-1] + 1]

    def at(t):
        return tuple(a + t * b for a, b in zip(q, h))

    for t in ts:
        want = sorted({sigma for _, sigma in _feasible_eliminated(p, at(t))})
        assert _fractions_at(p, at(t)) == want
    # a nonzero direction leaves the polytope both ways, and the exit is a wall
    assert bool(walls) == any(h)
    if walls:
        assert _fractions_at(p, at(walls[0] - 1)) == []
        assert _fractions_at(p, at(walls[-1] + 1)) == []


@PROPERTY
@given(polytopes(), st.data())
def test_pattern_rows_hold_sigma_and_jacobian(p, data):
    # row Z of reference_patterns(p, q, h) holds sigma_Z(q) and J_Z·h, which
    # semidiff_probe reads as simplicial_coords at q and at q + h, at any q,
    # inside or not; the rows are exactly the nonsingular zero sets, in
    # lexicographic order
    coords = st.lists(st.integers(-9, 9), min_size=p.d, max_size=p.d)
    q = tuple(F(x, 4) for x in data.draw(coords))
    h = tuple(F(x, 3) for x in data.draw(coords))
    table = list(reference_patterns(p, q, h))
    nonsingular = []
    for combo in combinations(range(1, p.n + 1), p.kernel_dim()):
        try:
            simplicial_coords(p, q, combo)
        except SingularPatternError:
            continue
        nonsingular.append(combo)
    assert [row[0] for row in table] == nonsingular
    for combo, keep, den, nums in table:
        sigma, jh = (_sigma(p.n, keep, col, den) for col in zip(*nums))
        assert sigma == simplicial_coords(p, q, combo).sigma
        moved = simplicial_coords(p, tuple(a + b for a, b in zip(q, h)), combo).sigma
        assert [x - y for x, y in zip(moved, sigma)] == list(jh)
        jac = _selection_jacobian_exact(p, combo)
        assert list(jh) == [linalg.dot(row, h) for row in jac]
    # the table holds every zero set in lexicographic order, and the reader
    # gives the reference's rows at 0 with the unit directions: the same
    # nonsingular zero sets, and sigma_Z(0) and J_Z, read off the table at 0
    # and at the unit vectors, equal as rationals
    units = [tuple(F(int(c == l)) for c in range(p.d)) for l in range(p.d)]
    reference = list(reference_patterns(p, [0] * p.d, *units))
    assert [_zero_set(p, keep) for keep, _ in _table(p)[1]] == list(
        combinations(range(1, p.n + 1), p.kernel_dim()))
    at_zero, *at_units = (_rationals(p, _table_read(p, x))
                          for x in [(F(0),) * p.d, *units])
    assert [combo for combo, _ in at_zero] == [row[0] for row in reference]
    for i, (combo, keep, den, nums) in enumerate(reference):
        sigma, *jac = (_sigma(p.n, keep, col, den) for col in zip(*nums))
        assert at_zero[i] == (combo, sigma)
        for read, column in zip(at_units, jac):
            assert read[i] == (combo, tuple(a + b for a, b in zip(sigma, column)))


@PROPERTY
@given(polytopes(), st.data())
def test_table_rows_match_the_elimination(p, data):
    # the rows read off the polytope's affine table at q, with no
    # elimination, equal those of reference_patterns(p, q) row for row: the
    # same zero sets in the same order and the same sigma_Z(q) as rationals,
    # at interior points, on vertex-pair segments and outside; so do the
    # feasible ones, and Lambda(q) is empty outside
    kind = data.draw(st.sampled_from(["interior", "segment", "outside"]))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    if kind == "interior":
        weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
        q = _combination(p.vertices, weights)
    elif kind == "segment":
        w = data.draw(st.integers(0, 8))
        q = _combination([p.vertices[i], p.vertices[j]], [w, 8 - w])
    else:
        # past vertex i, away from the centroid: outside, as v_i is extreme
        s = F(data.draw(st.integers(1, 9)), 4)
        q = tuple(v + s * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    assert _rationals(p, _table_read(p, q)) == _eliminated(p, q)
    assert _rationals(p, _feasible_rows(p, q)) == _feasible_eliminated(p, q)
    assert (_fractions_at(p, q) == []) == (kind == "outside")


@functools.cache
def _wall_polytope(kind, seed):
    """A segment, the 4-cube {0,1}^4 (16 vertices, C(16, 11) = 4368 zero
    patterns, and affinely dependent 4-subsets: four vertices of a square
    2-face), the square × tetrahedron in R^5 (16 vertices, 816 of its
    C(16, 5) = 4368 5-subsets affinely dependent, and whole 4-vertex
    prefixes of them too) or a seeded polytope with d = 2, 3, 4 or 5."""
    if kind == "segment":
        return validate([[F(-1, 3), F(5, 2)]], 1)
    if kind in ("cube4", "sqtet"):
        tet = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        verts = (list(product((0, 1), repeat=4)) if kind == "cube4" else
                 [(*s, *t) for s in product((0, 1), repeat=2) for t in tet])
        d = len(verts[0])
        return validate([[v[l] for v in verts] for l in range(d)], d)
    d, n = {"d2": (2, 7), "d3": (3, 8), "d4": (4, 7), "d5": (5, 9)}[kind]
    return random_polytope(d, n, seed=seed)


def _fresh(p):
    """A copy of ``p`` that holds no pattern table."""
    return Polytope(p.d, p.n, p.vertices, p._kernel_rows)


@pytest.mark.parametrize("kind, seed", [
    *((name, 0) for name in ("square", "pentagon", "pyramid", "prism8")),
    ("segment", 0), ("cube4", 0), ("sqtet", 0),
    *((f"d{d}", seed) for d in (2, 3, 4, 5) for seed in range(3))])
def test_walls_are_the_per_wall_cofactors(kind, seed):
    # the walls built prefix by prefix, one cofactor pencil per (d-1)-vertex
    # prefix, are the walls of one cofactors call per d-subset
    # (reference_walls), entry for entry: on the fixtures, a segment (d = 1,
    # an empty prefix), seeded d = 2..5 polytopes, the 4-cube and the square
    # × tetrahedron, where rank-deficient prefixes give zero walls
    p = _fresh(get_fixture(kind) if kind in FIXTURES else _wall_polytope(kind, seed))
    walls = _table(p)[0]
    assert walls == reference_walls(p)
    assert len(walls) == math.comb(p.n, p.d)
    if kind == "sqtet":
        assert sum(not any(wall) for wall in walls) == 816
        # 48 of the C(15, 4) = 1365 prefixes are affinely dependent
        assert sum(linalg.affine_dim([p.vertices[j] for j in prefix]) < 3
                   for prefix in combinations(range(p.n - 1), 4)) == 48


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4"]),
       st.integers(0, 3), st.data())
def test_wall_table_matches_the_elimination(kind, seed, data):
    # the rows the reader gives off the wall table at q equal those of a
    # fresh elimination
    # of every zero pattern at q, reference_patterns: the same zero sets in
    # lexicographic order and the same sigma_Z(q) as rationals, for d = 1..4,
    # at interior points, vertices, on vertex-pair segments, on a wall (the
    # affine hull of d vertices, inside or outside) and outside; a row read
    # alone by simplicial_coords, on its own d + 1 walls, agrees
    p = _wall_polytope(kind, seed)
    q = _wall_point(p, data)
    expected = _eliminated(p, q)
    assert _rationals(p, _table_read(p, q)) == expected
    combo, sigma = data.draw(st.sampled_from(expected))
    assert simplicial_coords(p, q, combo).sigma == sigma


@functools.cache
def _keep_sets(kind, seed):
    """(zero set, keep, whether the keep set is affinely independent) for
    every zero set of a fixture or a ``_wall_polytope``, in lexicographic
    order; nothing here depends on the point."""
    p = get_fixture(kind) if kind in FIXTURES else _wall_polytope(kind, seed)
    rows = []
    for combo in combinations(range(1, p.n + 1), p.kernel_dim()):
        keep = [j for j in range(p.n) if j + 1 not in combo]
        rows.append((combo, keep, linalg.affine_dim([p.vertices[j] for j in keep]) == p.d))
    return rows


@pytest.mark.parametrize("kind, seed", [
    ("square", 0), ("pentagon", 0), ("pyramid", 0), ("prism8", 0), ("segment", 0),
    ("d2", 1), ("d3", 2), ("d4", 3), ("d5", 4), ("cube4", 0), ("sqtet", 0)])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_simplicial_coords_solves_its_keep_set(kind, seed, data):
    # at every zero set, simplicial_coords gives the one solution of
    # [V_keep; 1^T]·lam = [q; 1]: sigma is 0 on the zero set, and its keep
    # entries satisfy the system exactly (times E·M, E the lcm of the
    # denominators of V and q and M that of lam's, every product is of
    # ints), on a keep set that is affinely independent, so that the
    # solution is unique; feasible says whether it is >= 0.  It raises
    # SingularPatternError exactly where the keep set is affinely dependent,
    # so the system is singular (four vertices of a square face of the
    # pyramid, prism8, the 4-cube or the square × tetrahedron); for
    # d = 1..5, at interior points, vertices, on vertex-pair segments, on a
    # wall and outside.  A polytope that holds a table and a fresh one, which
    # keeps none, share one route, so the zero sets alternate between them
    p = get_fixture(kind) if kind in FIXTURES else _wall_polytope(kind, seed)
    fresh = _fresh(p)
    _table(p)
    q = _wall_point(p, data)
    columns = [(*v, F(1)) for v in p.vertices]
    scale = math.lcm(*(x.denominator for v in (*columns, q) for x in v))
    columns = [[x.numerator * (scale // x.denominator) for x in v] for v in columns]
    rhs = [x * scale for x in (*q, 1)]
    singular = 0
    for i, (combo, keep, independent) in enumerate(_keep_sets(kind, seed)):
        poly = (p, fresh)[i % 2]
        if not independent:
            singular += 1
            with pytest.raises(SingularPatternError):
                simplicial_coords(poly, q, combo)
            continue
        sc = simplicial_coords(poly, q, combo)
        assert sc.zero_set == frozenset(combo)
        assert [sc.sigma[j - 1] for j in combo] == [0] * len(combo)
        lam = [sc.sigma[j] for j in keep]
        den = math.lcm(*(x.denominator for x in lam))
        ints = [x.numerator * (den // x.denominator) for x in lam]
        assert [sum(x * columns[j][l] for j, x in zip(keep, ints))
                for l in range(p.d + 1)] == [den * b for b in rhs]
        assert sc.feasible == (min(lam) >= 0)
    assert bool(singular) == (kind in ("pyramid", "prism8", "cube4", "sqtet"))
    assert fresh._pattern_table == []


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4", "d5", "sqtet"]),
       st.integers(0, 3), st.data())
def test_selection_jacobian_reads_its_keep_set(kind, seed, data):
    # the Jacobian is d + 1 simplicial_coords reads of its keep set, at 0
    # and at each e_l: at drawn zero sets it equals the Fraction solves of
    # helpers.reference_selection_jacobian, for d = 1..5, on a polytope that
    # holds a table and on a fresh one, which keeps no table, and raises
    # SingularPatternError where the reference's system is singular (the
    # 4-cube and the square × tetrahedron)
    p = _wall_polytope(kind, seed)
    fresh = _fresh(p)
    _table(p)
    combos = list(combinations(range(1, p.n + 1), p.kernel_dim()))
    for combo in data.draw(st.lists(st.sampled_from(combos), min_size=1, max_size=4)):
        try:
            want = reference_selection_jacobian(p, combo)
        except SingularPatternError:
            for poly in (p, fresh):
                with pytest.raises(SingularPatternError):
                    _selection_jacobian_exact(poly, combo)
            continue
        for poly in (p, fresh):
            assert _selection_jacobian_exact(poly, combo) == want
    assert fresh._pattern_table == []


def _leibniz(rows):
    """The determinant of a square matrix of Fractions, as a sum over
    permutations: no elimination."""
    total = F(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(rows, perm))
    return total


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4"]),
       st.integers(0, 3), st.data())
def test_lone_rows_match_the_table(kind, seed, data):
    # lone and table reads give the same rows through _read_rows: the rows
    # read off the wall values at q alone, with the patterns streamed and no
    # table built, equal the table's rows at q row for row: the same zero
    # sets in the same order and the same sigma_Z(q) as rationals, for
    # d = 1..4 and the 4-cube, whose affinely dependent 4-subsets have value
    # 0 at every q; at interior points, vertices, on vertex-pair segments, on
    # a wall and outside.  Each wall value is L'^d·det[v_s - q] (the
    # 4-cube's 1820 are left to the rows)
    p = _wall_polytope(kind, seed)
    q = _wall_point(p, data)
    assert _rationals(p, _lone_read(p, q)) == _rationals(p, _table_read(p, q))
    values = _wall_values(p.vertices, q)
    assert len(values) == math.comb(p.n, p.d)
    if kind != "cube4":
        scale = math.lcm(*(x.denominator for v in (*p.vertices, q) for x in v))
        assert values == [scale ** p.d * _leibniz([[a - b for a, b in zip(p.vertices[s], q)]
                                                   for s in subset])
                          for subset in combinations(range(p.n), p.d)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4"]),
       st.integers(0, 3), st.data())
def test_a_point_read_ignores_the_table(kind, seed, data):
    # _vertices_at reads the wall values at q on an object that holds a
    # table too, and gives the vertex keys and supports of the table's
    # feasible rows there, for d = 1..4 and the 4-cube; at interior points,
    # vertices, on vertex-pair segments, on a wall and outside (no key), in
    # the same order: the table lists the streamed rows less the singular
    p = _wall_polytope(kind, seed)
    _table(p)
    q = _wall_point(p, data)
    assert list(_vertices_at(p, q).items()) == list(
        _vertex_keys(_feasible_rows(p, q)).items())


@PROPERTY
@given(st.one_of(polytopes(), st.builds(_wall_polytope, st.just("cube4"), st.just(0))),
       st.data())
def test_a_lone_read_equals_a_table_read(p, data):
    # lambda_vertices on a fresh object, which reads the point off its wall
    # values, equals lambda_vertices on an object whose table is built: the
    # same vertices, supports, dim and n - d test, and both refuse an
    # outside point.  The integer pass's int rows are the vertices scaled by
    # the lcm of their denominators, as gamma_polytope reads them
    q = _wall_point(p, data)
    fresh = validate([[v[l] for v in p.vertices] for l in range(p.d)], p.d)
    _table(p)
    try:
        built = lambda_vertices(p, q)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            lambda_vertices(fresh, q)
        return
    lone = lambda_vertices(fresh, q)
    assert fresh._pattern_table == []
    # == compares the vertices, supports, dim and n - d test
    assert lone == built
    assert _lambda_rows(fresh, q)[2] == linalg.integer_rows(lone.vertex_arrays())


def _wall_point(p, data):
    """An interior point, a vertex, a point on a vertex-pair segment, on a
    wall (the affine hull of d vertices, inside or outside) or outside."""
    where = data.draw(st.sampled_from(["interior", "vertex", "segment", "wall",
                                       "outside"]))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    if where == "interior":
        weights = data.draw(st.lists(st.integers(1, 99), min_size=p.n, max_size=p.n))
        q = _combination(p.vertices, weights)
    elif where == "vertex":
        q = p.vertices[i]
    elif where == "segment":
        w = data.draw(st.integers(0, 8))
        q = _combination([p.vertices[i], p.vertices[j]], [w, 8 - w])
    elif where == "wall":
        s = data.draw(st.lists(st.integers(0, p.n - 1), min_size=p.d,
                               max_size=p.d, unique=True))
        weights = data.draw(st.lists(st.integers(-3, 9), min_size=p.d,
                                     max_size=p.d).filter(sum))
        q = _combination([p.vertices[k] for k in s], weights)
    else:
        t = F(data.draw(st.integers(1, 9)), 4)
        q = tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    return q


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(polytopes(), st.builds(_wall_polytope, st.just("cube4"), st.just(0))),
       st.data())
def test_census_reads_the_integer_pass(p, data):
    # the census cells, read off the integer pass's vertex keys with no
    # Fraction, or off the count of surviving rows where the point is on no
    # wall (_census_at, which a census sweep row prints), equal the count,
    # affine dimension and n - d test of the Fraction lambda_vertices at the
    # same point (helpers.reference_census), on seeded d = 2, 3 polytopes
    # and the 4-cube, whose zero walls leave patterns out; all refuse an
    # outside point with InfeasibleError, and the supports lambda_vertices
    # takes from the keys are the nonzero indices of its Fraction vertices
    q = _wall_point(p, data)
    keys = _vertex_keys(_feasible_rows(p, q))
    row = _sweep_row(p, "census", q, None, F(1, 8), 8).split(",")[p.d:]
    try:
        want = reference_census(p, q)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            _census(p, keys)
        with pytest.raises(InfeasibleError):
            _census_at(p, q)
        assert row == ["", "", "", "Infeasible"]
        assert locate(p, q).tag == Location.OUTSIDE
        return
    count, dim, match = want
    assert _census(p, keys) == _census_at(p, q) == want
    assert row == [str(count), str(dim), "true" if match else "false", ""]
    lam = lambda_vertices(p, q)
    assert lam.vertex_supports == tuple(frozenset(j + 1 for j, x in enumerate(v) if x)
                                        for v in lam.vertex_arrays())


def _full_read(p, vals):
    """The feasible rows of every row of p's table at ``vals``, the reader
    run over all C(n, d + 1) rows."""
    return list(_feasible(_read_rows(_table(p)[1], vals)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4"]),
       st.integers(0, 3), st.data())
def test_masked_read_is_the_full_read(kind, seed, data):
    # the rows the reader gives over the rows the wall signs leave
    # (_masked_rows) are the feasible rows of the reader over all rows, row
    # for row and in table order: for d = 1..4 and the 4-cube, whose zero
    # walls and singular rows are in the table, at the wall values of
    # interior points, vertices, vertex-pair segments, walls and outside
    # points, and at the values at·v·F + slope·u·E of a ray step t = u/v
    # from there, as _ray_keys forms them
    p = _wall_polytope(kind, seed)
    table = _table(p)
    walls = table[0]
    q = _wall_point(p, data)
    h = tuple(F(x, 4) for x in data.draw(st.lists(st.integers(-4, 4), min_size=p.d,
                                                  max_size=p.d)))
    t = F(data.draw(st.integers(1, 64)), data.draw(st.integers(1, 16)))
    e, (pt,) = linalg.integer_rows([q])
    f, (hv,) = linalg.integer_rows([h])
    at = [sum(a * b for a, b in zip(wall, (e, *pt))) for wall in walls]
    slope = [sum(a * b for a, b in zip(wall[1:], hv)) for wall in walls]
    step = [x * t.denominator * f + y * t.numerator * e for x, y in zip(at, slope)]
    for vals in (_evaluate(walls, q), step):
        assert list(_masked_rows(table, vals)) == _full_read(p, vals)
    assert list(_feasible_rows(p, q)) == _full_read(p, _evaluate(walls, q))


@PROPERTY
@given(st.one_of(polytopes(), st.builds(_wall_polytope, st.sampled_from(["segment", "d4"]),
                                        st.integers(0, 3))),
       st.data())
def test_off_wall_census_counts_the_survivors(p, data):
    # at a point on no wall, inside or outside, _census_at counts the
    # surviving rows with no key: it equals _census over the vertex keys of
    # the full read there, and both raise InfeasibleError outside
    if data.draw(st.booleans()):
        weights = data.draw(st.lists(st.integers(1, 99), min_size=p.n, max_size=p.n))
        q = _combination(p.vertices, weights)
    else:
        i = data.draw(st.integers(0, p.n - 1))
        s = F(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        q = tuple(v + s * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    vals = _evaluate(_table(p)[0], q)
    assume(all(vals))
    keys = _vertex_keys(_full_read(p, vals))
    try:
        want = _census(p, keys)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            _census_at(p, q)
        return
    assert _census_at(p, q) == want
    assert want[1] == p.kernel_dim()


@pytest.mark.parametrize("kind, seed", [("cube4", 0), ("d4", 1), ("d3", 2)])
def test_walls_are_the_independent_d_subsets(kind, seed):
    # every d-subset of the vertices has a wall, in lexicographic order, and
    # the wall is zero exactly where the subset is affinely dependent: the
    # 4-cube has such subsets (four vertices of a square 2-face).  The
    # streamed patterns are every zero pattern, and exactly the singular
    # ones, whose d + 1 vertices are affinely dependent, read den == 0 and
    # give no row; the table lists the others once each, and reads them all
    p = _wall_polytope(kind, seed)
    walls, order, *_ = _table(p)
    subsets = list(combinations(range(p.n), p.d))
    dependent = [s for s in subsets
                 if linalg.affine_dim([p.vertices[k] for k in s]) < p.d - 1]
    assert len(walls) == len(subsets)
    assert [s for s, wall in zip(subsets, walls) if not any(wall)] == dependent
    streamed = [keep for keep, _ in _pattern_order(p)]
    keeps = set(streamed)
    singular = {keep for keep in keeps
                if linalg.affine_dim([p.vertices[k] for k in keep]) < p.d}
    assert len(streamed) == len(keeps) == math.comb(p.n, p.d + 1)
    assert {keep for keep, *_ in _lone_read(p, p.centroid())} == keeps - singular
    assert [keep for keep, _ in order] == [keep for keep in streamed
                                           if keep not in singular]
    assert {keep for keep, *_ in _table_read(p, p.centroid())} == keeps - singular
    assert bool(dependent) == bool(singular) == (kind == "cube4")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["segment", "d2", "d3", "cube4", "d4"]),
       st.integers(0, 3), st.data())
def test_cramer_sums_are_the_pattern_determinants(kind, seed, data):
    # each pattern's Cramer sum, the sum of its wall values at q signed by
    # its ids, which _read_rows takes as the denominator, is
    # ±E·det[1^T; L·V_keep] at every q: the determinant of the pattern's
    # fresh elimination in reference_patterns, and 0 on the singular
    # patterns (the 4-cube's), which the reference skips.  The lone read's
    # sum, over the values L'^d·det[v_s - q], is the table's times
    # L'^d / (E·L^d), sign included; at interior points, vertices, on
    # vertex-pair segments, on a wall and outside
    p = _wall_polytope(kind, seed)
    q = _wall_point(p, data)
    walls, order, *_ = _table(p)

    def sums(vals):
        return {_zero_set(p, keep): sum(vals[w] if w >= 0 else -vals[~w] for w in ids)
                for keep, ids in order}

    table, lone = sums(_evaluate(walls, q)), sums(_wall_values(p.vertices, q))
    dets = {combo: den for combo, _, den, _ in reference_patterns(p, q)}
    assert {combo: abs(x) for combo, x in table.items()} == {
        combo: abs(dets.get(combo, 0)) for combo in table}
    e = math.lcm(*(x.denominator for x in q))
    scale = math.lcm(*(x.denominator for v in p.vertices for x in v))
    wide = math.lcm(scale, e)
    assert {combo: x * wide ** p.d for combo, x in table.items()} == {
        combo: x * e * scale ** p.d for combo, x in lone.items()}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_ray_steps_are_table_reads(data):
    # on the 4-cube, whose zero walls stay in the table, the vertex keys
    # _ray_keys reads at each step off the wall values along the ray equal
    # those of a table read at q + t·h: at the probe steps t0/2^k and at a
    # t that may cross walls or leave the cube
    p = _wall_polytope("cube4", 0)
    q = _wall_point(p, data)
    h = tuple(F(x, 8) for x in data.draw(st.lists(st.integers(-4, 4), min_size=4,
                                                  max_size=4)))
    ts = [F(1, 2) / (1 << k) for k in range(4)] + [F(data.draw(st.integers(1, 64)), 8)]
    assert list(_ray_keys(p, q, h, ts)) == [
        _vertex_keys(_feasible_rows(p, tuple(a + t * b for a, b in zip(q, h))))
        for t in ts]


@PROPERTY
@given(polytopes(), st.data())
def test_boundary_points(p, data):
    i = data.draw(st.integers(0, p.n - 1))
    lam = _check_against_brute_force(p, p.vertices[i])
    assert [v.lam for v in lam.vertices] == [tuple(F(int(j == i)) for j in range(p.n))]
    # midpoints of boundary segments between two vertices (edges, face diagonals)
    mids = [tuple((x + y) / 2 for x, y in zip(p.vertices[a], p.vertices[b]))
            for a, b in combinations(range(p.n), 2)]
    mids = [m for m in mids if locate(p, m).tag == Location.BOUNDARY]
    assert mids
    _check_against_brute_force(p, data.draw(st.sampled_from(mids)))


@PROPERTY
@given(polytopes(), st.data())
def test_caratheodory_support_is_affinely_independent(p, data):
    # caratheodory_decompose keeps the basic solution of its one phase one:
    # at interior and vertex-pair midpoints, over feasible samples and the
    # barycentre of all vertices, the support points are affinely independent,
    # at most n - d, positively weighted, and rebuild x exactly
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    mid = tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j]))
    seed = data.draw(st.integers(0, 10**6))
    for q in (_combination(p.vertices, weights), mid):
        lam = lambda_vertices(p, q)
        verts = lam.vertex_arrays()
        xs = random_feasible_sample(verts, q, 3, seed)
        xs.append(BarycentricVector(lam=tuple(sum(c) / len(verts) for c in zip(*verts)),
                                    point=lam.point))
        for x in xs:
            pairs = caratheodory_decompose(lam, x)
            support = [verts[k] for k, _ in pairs]
            assert linalg.affine_dim(support) == len(pairs) - 1
            assert len(pairs) <= p.n - p.d
            assert all(w > 0 for _, w in pairs)
            assert sum(w for _, w in pairs) == 1
            assert tuple(sum((w * v[l] for (_, w), v in zip(pairs, support)), F(0))
                         for l in range(p.n)) == x.lam


@PROPERTY
@given(polytopes(), st.data())
def test_large_bit_size_rationals(p, data):
    big = st.integers(BIG >> 1, BIG)
    weights = data.draw(st.lists(big, min_size=p.n, max_size=p.n))
    q = _combination(p.vertices, weights)
    assume(max(x.denominator for x in q) > BIG)  # not shrunk to equal weights
    lam = _check_against_brute_force(p, q)
    # an affine map with ~64-bit denominators keeps the coordinates
    scale = F(data.draw(big), data.draw(big))
    shift = [F(data.draw(st.integers(-BIG, BIG)), data.draw(big)) for _ in range(p.d)]
    moved = [tuple(scale * x + s for x, s in zip(v, shift)) for v in p.vertices]
    pm = validate([[v[l] for v in moved] for l in range(p.d)], p.d)
    qm = tuple(scale * x + s for x, s in zip(q, shift))
    lam_moved = _check_against_brute_force(pm, qm)
    assert lam_moved.vertices == tuple(
        type(v)(lam=v.lam, point=qm) for v in lam.vertices)


@PROPERTY
@given(polytopes(), st.data())
def test_chamber_wall_points(p, data):
    # a strictly positive combination of d vertices lies on a chamber wall
    # (for d = 3, on a vertex triangle, where many zero patterns give the
    # same sigma) or on the boundary
    idx = data.draw(st.lists(st.integers(0, p.n - 1), min_size=p.d,
                             max_size=p.d, unique=True))
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.d, max_size=p.d))
    _check_against_brute_force(p, _combination([p.vertices[i] for i in idx],
                                               weights))


@PROPERTY
@given(polytopes())
def test_nullbasis_has_unit_rows_on_free_columns(p):
    # the contract Gamma and the oracle rely on: row f_j of N is e_j, f_j the
    # j-th free column of the RREF of [V; 1^T]
    _, pivots = reference_rref(p.stacked_rows())
    free = [c for c in range(p.n) if c not in pivots]
    k, nb = p.kernel_dim(), nullbasis(p)
    assert len(free) == k
    assert [nb[f] for f in free] == [[int(i == j) for i in range(k)]
                                     for j in range(k)]
    # validation's kept rows are the kernel basis of [V; 1^T], transposed
    cols = linalg.nullspace_basis(p.stacked_rows())
    assert nb == [[col[i] for col in cols] for i in range(p.n)]


@PROPERTY
@given(polytopes(), st.data())
def test_gamma_refuses_inconsistent_inputs_as_the_elimination_did(p, data):
    # a basepoint tau from another point, and an N with one non-unit row
    # perturbed: both versions raise InconsistentInputsError
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    q = _combination(p.vertices, weights)
    i = data.draw(st.integers(0, p.n - 1))
    lam, nb = lambda_vertices(p, q), nullbasis(p)
    cases = [(feasible_tau(p, p.vertices[i]), nb)]
    if p.kernel_dim():
        # q is interior, so Lambda(q) spans R^k and some vertex has c_1 != 0
        _, pivots = reference_rref(p.stacked_rows())
        r = data.draw(st.sampled_from(pivots))
        bumped = [list(row) for row in nb]
        bumped[r][0] += data.draw(st.sampled_from([-1, F(1, 3), 2]))
        cases.append((feasible_tau(p, q), bumped))
    for tau, basis in cases:
        for route in (gamma_polytope, reference_gamma_polytope):
            with pytest.raises(InconsistentInputsError):
                route(p, tau, basis, lam)


@pytest.mark.parametrize("name, point, patterns, vertices", [
    ("square", (F(1, 2), F(1, 2)), 4, 2),         # each diagonal from 2 patterns
    ("prism8", (F(1, 2),) * 3, 50, 6),            # cube centre: 50 patterns
    ("pentagon", (F(0), F(0)), 5, 5),             # no diagonal through the centre
])
def test_duplicate_patterns_are_deduplicated(name, point, patterns, vertices):
    p = get_fixture(name)
    found = _rationals(p, _feasible_rows(p, point))
    assert found == _feasible_eliminated(p, point)
    assert len(found) == patterns
    assert [z for z, _ in found] == sorted(z for z, _ in found)
    lam = lambda_vertices(p, point)
    assert len(lam.vertices) == vertices
    assert ([v.lam for v in lam.vertices] == sorted({s for _, s in found})
            == sorted(brute_force_vertices(p, point)))


@PROPERTY
@given(polytopes(), st.data())
def test_locate_agrees_with_vertex_supports(p, data):
    kind = data.draw(st.sampled_from(["interior", "vertex", "midpoint", "outside"]))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    if kind == "interior":
        weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
        q = _combination(p.vertices, weights)
    elif kind == "vertex":
        q = p.vertices[i]
    elif kind == "midpoint":
        q = tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j]))
    else:  # pushed out past vertex i, away from the centroid
        t = F(data.draw(st.integers(1, 64)), 64)
        q = tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    loc = locate(p, q)
    try:
        lam = lambda_vertices(p, q)
    except InfeasibleError:
        assert loc.tag is Location.OUTSIDE
        a, b = loc.separator
        assert all(linalg.dot(a, v) <= b for v in p.vertices)
        assert linalg.dot(a, q) > b
        return
    assert kind != "outside"
    covered = frozenset().union(*lam.vertex_supports) == set(range(1, p.n + 1))
    assert (loc.tag is Location.INTERIOR) == covered
    assert loc.tag is not Location.OUTSIDE
    x = loc.barycentric
    assert mat_vec(p.stacked_rows(), x) == list(q) + [1]
    assert all(xj > 0 if covered else xj >= 0 for xj in x)


@PROPERTY
@given(polytopes(), st.data())
def test_analyze_location_agrees_with_locate(p, data):
    # analyze reads Interior/Boundary off Lambda's vertex supports, locate
    # decides it by its own d-row phase one: the two must agree
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    idx = data.draw(st.lists(st.integers(0, p.n - 1), min_size=p.d, max_size=p.d,
                             unique=True))
    points = [_combination(p.vertices, weights),
              tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j])),
              p.vertices[i],
              _combination([p.vertices[k] for k in idx], weights[:p.d])]
    for q in points:
        doc, _ = _analysis_report(p, q)
        assert doc["location"] == locate(p, q).tag.value


@PROPERTY
@given(polytopes(max_n=8, dims=(2, 3, 4)), st.data())
def test_analyze_prints_the_fraction_report(p, data):
    # analyze writes its document straight off the integer pass, with no
    # Fraction vertex: its stdout is the report of the public Fraction route
    # (helpers.reference_report), written by to_json(), at an interior
    # point, a vertex-pair midpoint, a vertex and a point in the hull of d
    # vertices (on a facet when they span one)
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    idx = data.draw(st.lists(st.integers(0, p.n - 1), min_size=p.d, max_size=p.d,
                             unique=True))
    points = [_combination(p.vertices, weights),
              tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j])),
              p.vertices[i],
              _combination([p.vertices[k] for k in idx], weights[:p.d])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps(polytope_document(p)))
        for q in points:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["analyze", str(path), "--point=" + ",".join(map(str, q))])
            assert (code, out.getvalue()) == (0, reference_report(p, q).to_json() + "\n")


_GRID = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2]))


@st.composite
def _circle_point(draw):
    # ((1 - s²)/(1 + s²), 2s/(1 + s²)) is on the unit circle for every s
    s = F(draw(st.integers(-40, 40)), draw(st.integers(1, 9)))
    return (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)


@st.composite
def plane_point_sets(draw):
    """d = 2 point sets for validation: small-grid rationals (points on hull
    edges and inside), rational unit-circle points with chord midpoints,
    collinear points with at most one point off their line, and any of these
    with a point repeated; in a drawn order."""
    kind = draw(st.sampled_from(["grid", "circle", "collinear", "duplicate"]))
    if kind == "collinear":
        a, b = draw(_GRID), draw(_GRID)
        ts = draw(st.lists(_GRID, min_size=3, max_size=6, unique=True))
        pts = [(t, a + b * t) for t in ts]
        pts += draw(st.lists(st.tuples(_GRID, _GRID), max_size=1))
    elif kind == "circle":
        pts = draw(st.lists(_circle_point(), min_size=3, max_size=12, unique=True))
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.lists(st.integers(0, len(pts) - 1), min_size=2,
                                 max_size=2, unique=True))
            pts.append(tuple((x + y) / 2 for x, y in zip(pts[i], pts[j])))
    else:
        pts = draw(st.lists(st.tuples(_GRID, _GRID), min_size=3, max_size=10,
                            unique=True))
        if kind == "duplicate":
            pts.append(draw(st.sampled_from(pts)))
    return draw(st.permutations(pts))


def _validation(check, pts):
    """What ``check`` (validate or its reference) makes of the points: the
    error's type and vertex index, or the vertices and kernel rows."""
    d = len(pts[0])
    try:
        p = check([[q[l] for q in pts] for l in range(d)], d)
    except BarypolyError as exc:
        return type(exc), getattr(exc, "index", None)
    return p.vertices, p._kernel_rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plane_point_sets())
def test_plane_validation_matches_the_phase_ones(pts):
    # the hull walk reports the first vertex in the hull of the others, the
    # one the per-vertex phase ones reported, and accepts the same polygons
    assert _validation(validate, pts) == _validation(reference_validate, pts)


_SMALL = st.integers(0, 2)


@st.composite
def solid_point_sets(draw):
    """d = 3 and d = 4 point sets for validation: a seeded polytope's
    vertices with its centroid, an edge midpoint or a convex combination of
    three vertices inserted at a drawn index; small-grid integer points
    (points on facets and edges); points on one hyperplane with at most one
    point off it; and grid points with a point repeated."""
    d = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["seeded", "grid", "coplanar", "duplicate"]))
    if kind == "seeded":
        p = random_polytope(d, draw(st.integers(d + 1, 12 - d)),
                            seed=draw(st.integers(0, 10**6)))
        pts = list(p.vertices)
        # the centroid of all vertices, of two or of three
        size = draw(st.sampled_from([p.n, 2, 3]))
        chosen = draw(st.lists(st.sampled_from(pts), min_size=size,
                               max_size=size, unique=True))
        pts.insert(draw(st.integers(0, p.n)),
                   tuple(sum(xs) / size for xs in zip(*chosen)))
        return pts
    grid = st.tuples(*[_SMALL] * d)
    if kind == "coplanar":
        # the last coordinate an affine function of the others
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        pts = [(*q, sum(c * x for c, x in zip(coeffs, q)) + coeffs[-1])
               for q in draw(st.lists(st.tuples(*[_SMALL] * (d - 1)),
                                      min_size=d + 1, max_size=9, unique=True))]
        pts += draw(st.lists(grid, max_size=1))
    else:
        pts = draw(st.lists(grid, min_size=d + 1, max_size=10, unique=True))
        if kind == "duplicate":
            pts.append(draw(st.sampled_from(pts)))
    return [tuple(map(F, q)) for q in draw(st.permutations(pts))]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(solid_point_sets())
def test_solid_validation_matches_the_phase_ones(pts):
    # vertices certified by one integer functional are never the first hit,
    # so running the phase ones on the rest reports the reference's first
    # vertex in the hull of the others, and accepts the same polytopes
    assert _validation(validate, pts) == _validation(reference_validate, pts)


@PROPERTY
@given(polytopes(max_n=11), st.data())
def test_oracle_agrees_with_scan(p, data):
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    mid = tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j]))
    for q in (_combination(p.vertices, weights), p.vertices[i], mid):
        lam = lambda_vertices(p, q)
        assert dd_vertices(p, q).vertices == tuple(v.lam for v in lam.vertices)
    # pushed out past vertex i, away from the centroid: both routes refuse
    t = F(data.draw(st.integers(1, 64)), 64)
    out = tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    for route in (lambda_vertices, dd_vertices):
        with pytest.raises(InfeasibleError):
            route(p, out)


@PROPERTY
@given(polytopes(max_n=8, dims=(2, 3, 4)), st.data())
def test_dd_matches_the_fraction_reference(p, data):
    # the oracle's integer rays give the Fraction double description's list,
    # run on the Fraction rref's tau and N, at interior points, vertex-pair midpoints, vertices, chamber-wall
    # points, points with ~2^64 denominators, and outside points (empty)
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    big = data.draw(st.lists(st.integers(BIG >> 1, BIG), min_size=p.n, max_size=p.n))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    idx = data.draw(st.lists(st.integers(0, p.n - 1), min_size=p.d, max_size=p.d,
                             unique=True))
    t = F(data.draw(st.integers(1, 64)), 64)
    points = [_combination(p.vertices, weights),
              tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j])),
              p.vertices[i],
              _combination([p.vertices[k] for k in idx], weights[:p.d]),
              _combination(p.vertices, big),
              tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))]
    for q in points:
        assert ray_fractions(_dd_reduced(*_reduced_system(p, q))) \
            == reference_dd_reduced(*reference_reduced_system(p, q))
    assert _dd_reduced(*_reduced_system(p, points[-1])) == set()


@PROPERTY
@given(st.sampled_from((2, 3, 4)), st.data())
def test_scan_matches_the_fraction_reference(d, data):
    # kernel dimension k = 0, 1 or 2: the integer scan gives the Fraction
    # scan's list from the RREF's tau and from feasible_tau's, at interior
    # points, vertices, vertex-pair midpoints, chamber-wall points, points
    # with ~2^64 denominators, and outside points (empty)
    k = data.draw(st.integers(0, 2))
    p = random_polytope(d, d + 1 + k, seed=data.draw(st.integers(0, 10**6)))
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    big = data.draw(st.lists(st.integers(BIG >> 1, BIG), min_size=p.n, max_size=p.n))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    idx = data.draw(st.lists(st.integers(0, p.n - 1), min_size=d, max_size=d,
                             unique=True))
    t = F(data.draw(st.integers(1, 64)), 64)
    points = [_combination(p.vertices, weights),
              p.vertices[i],
              tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j])),
              _combination([p.vertices[m] for m in idx], weights[:d]),
              _combination(p.vertices, big)]
    for q in points:
        tau, nb, _ = reference_reduced_system(p, q)
        basepoint = feasible_tau(p, q).lam
        for rows, base in ((_reduced_system(p, q)[:2], tau),
                           (integer_system(basepoint, nb), basepoint)):
            scan = ray_fractions(_scan_reduced(*rows, k))
            assert scan and scan == reference_scan_reduced(base, nb, k)
    out = tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))
    tau, nb, _ = reference_reduced_system(p, out)
    assert _scan_reduced(*_reduced_system(p, out)[:2], k) == set()
    assert reference_scan_reduced(tau, nb, k) == []


@pytest.mark.parametrize("shape", ["1x1", "wide", "square", "tall"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_system_equals_the_fraction_reference(shape, data):
    # the oracle's primitive-row loop on [V; 1^T | -(p; 1)] gives g / L = the
    # Fraction rref's (N, tau) entry for entry and its free columns, or the
    # same InternalError for a pivot in the last column: V drawn as the
    # kernel property's matrices (zero rows and columns, a dependent row,
    # denominators near 2^64), p in V's affine hull or anywhere
    v = data.draw(matrices(shape))
    n, big = len(v[0]), data.draw(st.booleans())
    if data.draw(st.booleans()):
        ws = [data.draw(rationals(big)) for _ in range(n - 1)]
        ws.append(1 - sum(ws, F(0)))
        point = tuple(linalg.dot(row, ws) for row in v)
    else:
        point = tuple(data.draw(rationals(big)) for _ in v)
    p = Polytope(d=len(v), n=n, vertices=tuple(zip(*v)), _kernel_rows=())
    try:
        tau, nb, free = reference_reduced_system(p, point)
    except InternalError:
        with pytest.raises(InternalError, match="full row rank"):
            _reduced_system(p, point)
        return
    scale, rows, got = _reduced_system(p, point)
    assert got == free and scale > 0
    assert all(type(x) is int for row in rows for x in row)
    assert fraction_system(scale, rows) == (tau, nb)


@PROPERTY
@given(polytopes(), st.data())
def test_sample_verdict_equals_the_fraction_route(p, data):
    # oracle-check's verdict on the integer sums s / T equals the exact test
    # of random_feasible_sample's Fraction vectors, for Lambda's vertices
    # (feasible), another point's, Lambda's with every first entry pushed
    # below 0 (infeasible unless count is 0) and Lambda's stretched away from
    # their mean (solving [V; 1^T] s = (p; 1) T, with negative entries), at
    # any seed and count
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    q, other = _combination(p.vertices, weights), p.centroid()
    verts = list(dd_vertices(p, q).vertices)
    bent = [(v[0] - 2, *v[1:]) for v in verts]
    mean = [sum(col) / len(verts) for col in zip(*verts)]
    stretched = [tuple(3 * x - 2 * m for x, m in zip(v, mean)) for v in verts]
    seed, count = data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 6))
    verdicts = []
    for vs in (verts, list(dd_vertices(p, other).vertices), bent, stretched):
        fractions = random_feasible_sample(vs, q, count, seed)
        exact = all(min(s.lam) >= 0
                    and mat_vec(p.stacked_rows(), s.lam) == [*q, 1]
                    for s in fractions)
        assert samples_feasible(p, q, linalg.integer_rows(vs), count, seed) is exact
        verdicts.append(exact)
    assert verdicts[0] and verdicts[2] is (count == 0)


FIXTURE_POLYTOPES = tuple(get_fixture(name) for name in ("square", "pentagon", "pyramid",
                                                         "prism8"))


@st.composite
def oracle_polytopes(draw):
    """A fixture, or a seeded polytope with d = 2..5 and k = n - d - 1 = 0..6."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXTURE_POLYTOPES))
    d, k = draw(st.integers(2, 5)), draw(st.integers(0, 6))
    return random_polytope(d, d + 1 + k, seed=draw(st.integers(0, 10**6)))


@PROPERTY
@given(oracle_polytopes(), st.data())
def test_dd_rows_are_the_fraction_route_scaled(p, data):
    # the oracle's int rows are its Fraction list scaled to ints over one
    # denominator, in the same order (helpers.reference_dd_vertices), and
    # dd_vertices builds that list off them; both refuse the same points,
    # and the sampler on the rows draws the Fraction sampler's values, at an
    # interior point, a vertex-pair midpoint, a facet point, a vertex and an
    # outside point, at any seed and count
    weights = data.draw(st.lists(st.integers(1, 999), min_size=p.n, max_size=p.n))
    i, j = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2,
                              unique=True))
    t = F(data.draw(st.integers(1, 64)), 64)
    seed, count = data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 6))
    points = [_combination(p.vertices, weights),
              tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j])),
              facet_point(p), p.vertices[i],
              tuple(v + t * (v - c) for v, c in zip(p.vertices[i], p.centroid()))]
    refused = []
    for q in points:
        try:
            ref = reference_dd_vertices(p, q)
        except InfeasibleError:
            refused.append(q)
            for route in (_dd_rows, dd_vertices):
                with pytest.raises(InfeasibleError, match="outside the polytope"):
                    route(p, q)
            continue
        rows = _dd_rows(p, q)
        assert rows == linalg.integer_rows(ref)
        assert all(type(x) is int for row in rows[1] for x in row)
        assert dd_vertices(p, q).vertices == ref
        sums = reference_sample_sums(ref, count, seed)
        assert _sample_sums(rows, count, seed) == sums
        samples = random_feasible_sample(ref, q, count, seed)
        assert [s.lam for s in samples] == [tuple(F(x, total) for x in s) for s, total in sums]
        assert all(s.point == q for s in samples)
    assert refused == points[-1:]


def test_oracle_agrees_with_scan_kernel_dim_11():
    # d = 2, n = 14: k = 11, where a start from 2^k box corners would stall
    p = random_polytope(2, 14, seed=14)
    mid = tuple((x + y) / 2 for x, y in zip(p.vertices[0], p.vertices[7]))
    for q in (p.centroid(), mid):
        lam = lambda_vertices(p, q)
        assert len(lam.vertices) > 1
        assert dd_vertices(p, q).vertices == tuple(v.lam for v in lam.vertices)


def _comparable(x):
    """Reports, steps and their containers as nested values with NaN read as
    the string "nan", so that == compares NaN as NaN."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    if isinstance(x, (ProbeReport, ProbeStep)):
        return type(x).__name__, _comparable(vars(x))
    if isinstance(x, dict):
        return [(k, _comparable(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return type(x)(map(_comparable, x))
    return x


def _outcome(probe, *args, **kwargs):
    """The probe's report, made comparable, or the type and text it raised."""
    try:
        return _comparable(probe(*args, **kwargs))
    except (BarypolyError, ValueError) as exc:
        return type(exc), str(exc)


def _selection(p, q):
    """The sweep's selection at q, from the table's feasible rows there."""
    return _pick_selection(p.n, list(_feasible_rows(p, q)))


def _reference_row(p, point, h, t0, steps):
    """A semidiff sweep row formatted from the reference probe's witness
    distances, as the sweep formatted it before the witness function."""
    count, dim, match = reference_census(p, point)
    prefix = ",".join([linalg.rational_str(x) for x in point]
                      + [str(count), str(dim), "true" if match else "false"])
    try:
        rep = reference_semidiff_probe(p, point, _selection(p, point), h,
                                       t0=t0, steps=steps)
    except BarypolyError as exc:
        return prefix + "," * (steps + 1) + exc.code
    return ",".join([prefix, *(format_float(s.distance) for s in rep.steps), ""])


FIXTURES = ("square", "pentagon", "pyramid", "prism8")
# the test_cli rows with t0 = 5e-155 and with h = (1e-4300, 0), and rows
# whose witness distances are nonzero (the pentagon and prism8 rows are the
# CI workflow's)
SEMIDIFF_ROWS = [
    ("square", (F(1, 3), F(2, 3)), (F(1), F(0)), F("5e-155"), 3),
    ("square", (F(2, 3), F(1, 3)), (F(1), F(0)), F("5e-155"), 3),
    ("square", (F(1, 3), F(1, 2)), (F("1e-4300"), F(0)), F(1, 8), 8),
    ("square", (F(1, 2), F(1, 2)), (F(-7, 32), F(5, 32)), F(1, 2), 4),
    ("pentagon", (F(-121, 9000), F(776, 3375)), (F(-1, 32), F(7, 32)), F(1, 2), 5),
    ("pentagon", (F(-951, 5000), F(309, 1000)), (F(-1, 32), F(7, 32)), F(1, 2), 5),
    ("prism8", (F(5, 8), F(5, 8), F(9, 20)), (F(3, 16), F(-3, 16), F(-1, 8)), F(1, 2), 5),
]
SEMIDIFF_BASEPOINTS = ["interior", "wall", "midpoint", "big"]


@st.composite
def semidiff_cases(draw):
    """(p, point, h, t0, steps) on a fixture or a seeded d = 2 or 3 polytope:
    interior points, chamber-wall points (a positive combination of d
    vertices, on a wall or the boundary), vertex-pair midpoints (inside or on
    an edge) and points with ~2^64 denominators, with steps from 1/2 (where
    many rays cross a wall and the witness distance is nonzero) down to
    5e-155, and directions down to 1e-4300."""
    p = draw(st.one_of(st.sampled_from(FIXTURES).map(get_fixture),
                       polytopes(max_n=8)))
    kind = draw(st.sampled_from(SEMIDIFF_BASEPOINTS))
    i, j = draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2, unique=True))
    if kind == "interior":
        q = _combination(p.vertices, draw(st.lists(st.integers(1, 999), min_size=p.n,
                                                   max_size=p.n)))
    elif kind == "wall":
        idx = draw(st.lists(st.integers(0, p.n - 1), min_size=p.d, max_size=p.d,
                            unique=True))
        q = _combination([p.vertices[k] for k in idx],
                         draw(st.lists(st.integers(1, 999), min_size=p.d, max_size=p.d)))
    elif kind == "midpoint":
        q = tuple((x + y) / 2 for x, y in zip(p.vertices[i], p.vertices[j]))
    else:
        q = _combination(p.vertices, draw(st.lists(st.integers(BIG >> 1, BIG),
                                                   min_size=p.n, max_size=p.n)))
    scale = draw(st.sampled_from([F(1, 64), F(1, 10**4300)]))
    h = tuple(scale * x for x in draw(st.lists(st.integers(-64, 64), min_size=p.d,
                                               max_size=p.d)))
    t0 = draw(st.sampled_from([F(1, 2), F(1, 8), F(1, 1 << 20), F("5e-155")]))
    return p, q, h, t0, draw(st.integers(3, 6))


def _check_semidiff(p, q, h, t0, steps, zero_set):
    # the probe's report is the reference's, and the sweep row is the one
    # formatted from the reference's witness distances
    assert _outcome(semidiff_probe, p, q, zero_set, h, t0=t0, steps=steps) == \
        _outcome(reference_semidiff_probe, p, q, zero_set, h, t0=t0, steps=steps)
    assert _sweep_row(p, "semidiff", q, h, t0, steps) == _reference_row(p, q, h, t0, steps)


@pytest.mark.parametrize("name, q, h, t0, steps", SEMIDIFF_ROWS)
def test_semidiff_rows_match_the_reference(name, q, h, t0, steps):
    p = get_fixture(name)
    _check_semidiff(p, q, h, t0, steps, _selection(p, q))


def test_the_semidiff_rows_include_nonzero_witness_distances():
    # rows whose witness distances are all 0 would hide a rounding change in
    # the quotient sets: four of the fixed rows have nonzero ones
    def witness(name, q, h, t0, steps):
        p = get_fixture(name)
        rep = reference_semidiff_probe(p, q, _selection(p, q), h, t0=t0, steps=steps)
        return [s.distance for s in rep.steps]

    assert [row[0] for row in SEMIDIFF_ROWS if any(witness(*row))] == [
        "square", "pentagon", "pentagon", "prism8"]


@PROPERTY
@given(semidiff_cases(), st.data())
def test_semidiff_probe_matches_the_reference(case, data):
    # the sweep's selection, any zero set that is feasible at the point, and
    # any zero set at all (infeasible or singular)
    p, q, h, t0, steps = case
    zero_set = data.draw(st.one_of(
        st.just(_selection(p, q)),
        st.sampled_from([_zero_set(p, keep) for keep, *_ in _feasible_rows(p, q)]),
        st.sampled_from(list(combinations(range(1, p.n + 1), p.kernel_dim())))))
    assert _outcome(semidiff_probe, p, q, zero_set, h, t0=t0, steps=steps) == \
        _outcome(reference_semidiff_probe, p, q, zero_set, h, t0=t0, steps=steps)


@PROPERTY
@given(semidiff_cases())
def test_semidiff_sweep_rows_match_the_reference(case):
    p, q, h, t0, steps = case
    _check_semidiff(p, q, h, t0, steps, _selection(p, q))


def _quotient_sets(name, q, h, t0, steps):
    p = get_fixture(name)
    return _semidiff_witness(p, q, _selection(p, q), h, t0, steps)[3]


@st.composite
def hausdorff_pairs(draw):
    """(a, b, tol): Lambda at two points of a semidiff case's ray (its
    basepoint or a step), a pair of quotient sets of a fixed semidiff row
    (t0 = 5e-155, where |y|² overflows, and the 1e-4300 direction among
    them), or raw float vertex sets of dimension 1 to 4 at a scale from
    1e-150 to 1e150, drawn from a small pool so that vertices repeat, bounds
    tie, sets have one vertex and distances are 0."""
    kind = draw(st.sampled_from(["lambda", "quotient", "raw"]))
    if kind == "lambda":
        p, q, h, t0, steps = draw(semidiff_cases())
        ts = [F(0)] + [t0 / (1 << k) for k in range(steps)]
        s, t = draw(st.lists(st.sampled_from(ts), min_size=2, max_size=2, unique=True))
        a, b = (_fractions_at(p, [x + u * y for x, y in zip(q, h)]) for u in (s, t))
        assume(a and b)
        sets = float_polytope(a), float_polytope(b)
    elif kind == "quotient":
        sk = _quotient_sets(*draw(st.sampled_from(SEMIDIFF_ROWS)))
        i, j = draw(st.lists(st.integers(0, len(sk) - 1), min_size=2, max_size=2,
                             unique=True))
        sets = sk[i], sk[j]
    else:
        dim = draw(st.integers(1, 4))
        scale = 10.0 ** draw(st.integers(-150, 150))
        coord = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-3.0, 3.0, allow_nan=False))
        pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=5))
        vertex_sets = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
        a = FloatPolytope(tuple(tuple(x * scale for x in v) for v in draw(vertex_sets)), dim)
        b = a if draw(st.integers(0, 4)) == 0 else FloatPolytope(
            tuple(tuple(x * scale for x in v) for v in draw(vertex_sets)), dim)
        sets = a, b
    return (*sets, draw(st.sampled_from([1e-9, 1e-3])))


@PROPERTY
@given(hausdorff_pairs())
def test_hausdorff_matches_the_reference(pair):
    # the pruned maximum is the reference's bit for bit (NaN and inf
    # included), either way round, and a True reference flag stays True
    a, b, tol = pair
    for x, y in ((a, b), (b, a)):
        got, want = _hausdorff_status(x, y, tol), reference_hausdorff_status(x, y, tol)
        assert got[0].hex() == want[0].hex()
        assert got[1] or not want[1]


@st.composite
def float_point_sets(draw, dim, max_size=14):
    """1 to ``max_size`` float points of length ``dim``: random floats at a
    scale of 1e-200, 1 or 1e200 (where |p_j|² underflows or overflows),
    collinear points from a few repeated parameters, small integers,
    entries near ±1e308, whose differences overflow to ±inf, or ±inf and NaN
    entries, whose bounds can be NaN."""
    size = draw(st.integers(1, max_size))
    kind = draw(st.sampled_from(["random", "collinear", "integer", "huge", "nonfinite"]))
    if kind == "random":
        scale = draw(st.sampled_from([1e-200, 1.0, 1e200]))
        coord = st.floats(-1.0, 1.0).map(lambda x: x * scale)
        return [tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
                for _ in range(size)]
    if kind == "collinear":
        base, step = (draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim))
                      for _ in range(2))
        ts = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]),
                           min_size=size, max_size=size))
        return [tuple(x + t * s for x, s in zip(base, step)) for t in ts]
    coord = st.integers(-3, 3).map(float)
    if kind == "huge":
        coord = st.one_of(coord, st.sampled_from([1e308, -1e308, 1.7e308, -8.9e307]))
    elif kind == "nonfinite":
        coord = st.one_of(coord, st.sampled_from([math.inf, -math.inf, math.nan]))
    return [tuple(draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(size)]


KERNEL = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
TOLS = st.sampled_from([1e-9, 1e-3])


@KERNEL
@given(st.integers(1, 8).flatmap(float_point_sets), st.data(),
       st.sampled_from(["nan", "zero", "finite", "inf"]), st.floats(0.0, 10.0), TOLS)
def test_min_norm_point_is_the_reference_kernel(b_rows, data, cutoff, finite, tol):
    # the corral kernel repeats the reference kernel's float operations in
    # their order: the same distance, repr for repr, and the same flag, for
    # every cutoff, with or without an overflow, from a point drawn like the
    # set's or on the line through two of its points, near or in the hull
    if data.draw(st.booleans()):
        (x,) = data.draw(float_point_sets(len(b_rows[0]), max_size=1))
    else:
        p, q = data.draw(st.lists(st.sampled_from(b_rows), min_size=2, max_size=2))
        t = data.draw(st.floats(-1.0, 2.0))
        x = tuple(u + t * (v - u) for u, v in zip(p, q))
    cut = {"nan": math.nan, "zero": 0.0, "finite": finite, "inf": math.inf}[cutoff]
    got = _min_norm_point(*_differences(b_rows, x), tol, cut)
    want = reference_min_norm_point(*reference_differences(b_rows, x), tol, cut)
    assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])


@KERNEL
@given(st.integers(1, 8).flatmap(lambda dim: st.tuples(
    st.just(dim), float_point_sets(dim), float_point_sets(dim))), TOLS)
@example(sets=(1, [(0.0,)], [(0.0,), (math.nan,)]), tol=1e-9)
def test_hausdorff_is_the_reference_kernel(sets, tol):
    # ending the runs at the first bound within the maximum and reading both
    # directions off one matrix changes no bit of the distance or the flag;
    # the example's NaN bound leaves the sort partial, where ending the runs
    # early would skip a run that the reference makes
    dim, a, b = sets
    for x, y in ((a, b), (b, a)):
        x, y = FloatPolytope(tuple(x), dim), FloatPolytope(tuple(y), dim)
        got, want = _hausdorff_status(x, y, tol), reference_pruned_hausdorff_status(x, y, tol)
        assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])


@PROPERTY
@given(semidiff_cases())
def test_continuity_probe_matches_the_reference(case):
    # the steps are the reference's exactly; a verdict can only leave
    # "Inconclusive", where the reference had a cut-off distance miss its stop
    p, q, h, t0, steps = case
    got = _outcome(continuity_probe, p, q, h, t0=t0, steps=steps)
    want = _outcome(reference_continuity_probe, p, q, h, t0=t0, steps=steps)
    if want[0] != "ProbeReport":
        assert got == want
        return
    got, want = dict(got[1]), dict(want[1])
    assert got.pop("verdict") == want["verdict"] or want["verdict"] == "Inconclusive"
    del want["verdict"]
    assert got == want


# any code point, lone surrogates included, with the characters JSON escapes
# drawn often: quotes, backslashes, control characters, DEL and U+2028
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028\U0001f600')))
_DOCUMENTS = st.recursive(
    st.one_of(st.none(), st.booleans(), _TEXT,
              st.integers(-(1 << 200), 1 << 200), st.sampled_from([BIG, -BIG - 1])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_dumps_writes_the_indented_json_bytes(doc):
    # the CLI's documents skip the pure-Python encoder: the bytes are
    # json.dumps's, empty lists and dicts and ints beyond 2^64 included
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, {"a": [0, 2.0]}, [float("nan")], (1, 2),
                                 {1: "a"}, {"a": F(1, 2)}])
def test_dumps_refuses_other_values(doc):
    # no CLI document holds a float: any other value, or a key that is not
    # a str, raises TypeError, where json.dumps writes a float, a tuple or an
    # int key its own way
    with pytest.raises(TypeError):
        dumps(doc)
