import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from barypoly import simplex
from barypoly.errors import InternalError
from barypoly.linalg import dot, rank
from barypoly.simplex import convex_membership, feasible_point
from helpers import mat_vec, reference_feasible_point

F = Fraction


def test_feasible_point_square_center():
    a = [
        [F(0), F(1), F(1), F(0)],
        [F(0), F(0), F(1), F(1)],
        [F(1), F(1), F(1), F(1)],
    ]
    b = [F(1, 2), F(1, 2), F(1)]
    x, y = feasible_point(a, b)
    assert y is None
    assert mat_vec(a, x) == b
    assert all(xj >= 0 for xj in x)


def test_unbounded_phase_one_is_internal_error():
    # the artificial sum is bounded below, so Bland's loop never meets an
    # entering column without a positive entry; a tableau forced into one
    # (x1's reduced cost set negative over its entry -1) raises there
    tab = simplex._Tableau([[F(-1), F(1)]], [F(1)])
    tab.cost[0] = -1
    with pytest.raises(InternalError, match="phase one is unbounded"):
        tab._bland()
    assert tab.basis == [2]  # no pivot ran


def test_phase_one_stops_with_blands_loop(monkeypatch):
    # x1 + x2 = 1, x1 - x2 = 1: Bland's loop ends with the second artificial
    # basic at 0 and a nonzero x2 entry in its row; phase one returns there,
    # pivoting no more, and x = (1, 0) is the basic feasible solution
    tableaus, pivots = [], []
    real_bland, real_pivot = simplex._Tableau._bland, simplex._Tableau._pivot

    def bland(tab):
        assert real_bland(tab) is None
        tableaus.append(tab)

    monkeypatch.setattr(simplex._Tableau, "_bland", bland)
    monkeypatch.setattr(simplex._Tableau, "_pivot",
                        lambda tab, r, j: pivots.append(len(tableaus))
                        or real_pivot(tab, r, j))
    assert feasible_point([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(1)]) \
        == ([F(1), F(0)], None)
    assert pivots == [0]
    (tab,) = tableaus
    assert tab.basis[1] >= tab.n_orig and tab.rows[1][-1] == 0 != tab.rows[1][1]


def test_feasible_point_deterministic():
    a = [[F(0), F(1), F(1), F(0)],
         [F(0), F(0), F(1), F(1)],
         [F(1), F(1), F(1), F(1)]]
    b = [F(1, 3), F(2, 3), F(1)]
    assert feasible_point(a, b) == feasible_point(a, b)


def test_infeasible_farkas_certificate():
    # x1 + x2 = -1 with x >= 0 is infeasible
    a = [[F(1), F(1)]]
    b = [F(-1)]
    x, y = feasible_point(a, b)
    assert x is None
    for col in zip(*a):
        assert dot(y, col) <= 0
    assert dot(y, b) > 0


def test_farkas_outside_square():
    a = [
        [F(0), F(1), F(1), F(0)],
        [F(0), F(0), F(1), F(1)],
        [F(1), F(1), F(1), F(1)],
    ]
    b = [F(2), F(2), F(1)]
    x, y = feasible_point(a, b)
    assert x is None
    for col in zip(*a):
        assert dot(y, col) <= 0
    assert dot(y, b) > 0


def _is_basic(a, x):
    """The columns of ``a`` on the support of ``x`` are linearly independent."""
    support = [j for j, xj in enumerate(x) if xj != 0]
    return rank([[row[j] for j in support] for row in a]) == len(support)


def test_feasible_point_basic_solution():
    # x1 + x2 = 1: phase one stops at the vertex (1, 0) of the segment
    assert feasible_point([[F(1), F(1)]], [F(1)]) == ([F(1), F(0)], None)


def test_feasible_point_transport_like():
    # x1 + x2 + x3 = 1, x2 + 2 x3 = 1: a vertex of the feasible segment
    a = [[F(1), F(1), F(1)], [F(0), F(1), F(2)]]
    b = [F(1), F(1)]
    x, y = feasible_point(a, b)
    assert y is None
    assert mat_vec(a, x) == b
    assert all(xj >= 0 for xj in x)
    assert _is_basic(a, x)


def test_feasible_point_unbounded_region():
    # x1 - x2 = 0 has an unbounded feasible ray; phase one stays bounded
    assert feasible_point([[F(1), F(-1)]], [F(0)]) == ([F(0), F(0)], None)


def test_redundant_rows():
    # duplicated constraint row must not break feasibility handling
    a = [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]]
    b = [F(1), F(1), F(2)]
    x, y = feasible_point(a, b)
    assert y is None
    assert mat_vec(a, x) == b


def test_degenerate_systems_random():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [[F(rng.randint(-4, 4), 2) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 5), 3) for _ in range(n)]
        b = mat_vec(a, x0)  # feasible by construction
        x, y = feasible_point(a, b)
        assert y is None
        assert mat_vec(a, x) == b
        assert all(xj >= 0 for xj in x)


def test_feasible_point_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(64)
    statuses = set()
    for trial in range(200):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        a = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(m)]
        if trial % 2:
            x0 = [F(rng.randint(0, 4), 2) for _ in range(n)]
            b = mat_vec(a, x0)  # feasible by construction
        else:
            b = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
        x, y = feasible_point(a, b)
        ref = linprog([0.0] * n,
                      A_eq=[[float(x) for x in r] for r in a],
                      b_eq=[float(x) for x in b],
                      bounds=(0, None), method="highs")
        assert (x is None) != (y is None)
        statuses.add(x is not None)
        if x is not None:
            assert ref.status == 0
            assert mat_vec(a, x) == b
            assert all(xj >= 0 for xj in x)
            assert _is_basic(a, x)
        else:
            assert ref.status == 2
            assert all(dot(y, col) <= 0 for col in zip(*a))
            assert dot(y, b) > 0
    assert statuses == {True, False}


def test_convex_membership():
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    w = convex_membership(square, (F(1, 4), F(1, 4)))
    assert w is not None
    assert sum(w) == 1 and all(x >= 0 for x in w)
    assert sum(wi * v[0] for wi, v in zip(w, square)) == F(1, 4)
    assert sum(wi * v[1] for wi, v in zip(w, square)) == F(1, 4)
    assert convex_membership(square, (F(2), F(0))) is None


BIG = 1 << 64
SMALL_DENS = st.sampled_from([1, 1, 2, 3, 4, 6, 7])
NEAR_BIG_DENS = st.integers(BIG - (1 << 20), BIG + (1 << 20))


@st.composite
def lp_systems(draw):
    """A x = b with m <= 5, n <= 9: small rationals, ~2^64 denominators in
    some columns, one row mixing ~50 denominators, zero columns, duplicate
    and redundant rows, and negative, zero or feasible right sides."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    big_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    a = [[F(draw(st.integers(-6, 6)),
            draw(NEAR_BIG_DENS if j in big_cols else SMALL_DENS))
          for j in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # one row that mixes ~50 distinct denominators
        first = draw(st.integers(2, 10**4))
        dens = range(first, first + 50 * 7, 7)
        a[draw(st.integers(0, m - 1))] = [
            sum((F(draw(st.integers(-3, 3)), q) for q in dens), F(0))
            for _ in range(n)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):  # zero columns
        for row in a:
            row[j] = F(0)
    if m > 1 and draw(st.booleans()):  # a duplicate or redundant row
        i, k = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        c = F(draw(st.integers(-3, 3)), draw(SMALL_DENS))
        a[k] = [c * x + (y if draw(st.booleans()) else 0)
                for x, y in zip(a[i], a[(i + 1) % m])]
    rhs = draw(st.sampled_from(["feasible", "zero", "free"]))
    if rhs == "free":
        b = [F(draw(st.integers(-6, 6)), draw(SMALL_DENS)) for _ in range(m)]
    else:
        x0 = [F(draw(st.integers(0, 4)), draw(SMALL_DENS)) if rhs == "feasible"
              else F(0) for _ in range(n)]
        b = mat_vec(a, x0)
    return a, b


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lp_systems())
def test_integer_tableau_matches_fraction_tableau(system):
    a, b = system
    (x, y), ref = feasible_point(a, b), reference_feasible_point(a, b)
    event("feasible" if x is not None else "infeasible")
    assert (x, y) == ref
    if x is not None:
        assert y is None
        assert mat_vec(a, x) == b and all(xj >= 0 for xj in x)
    else:
        assert all(dot(y, col) <= 0 for col in zip(*a))
        assert dot(y, b) > 0


def test_convex_membership_over_no_points():
    assert convex_membership([], (F(0), F(0))) is None
