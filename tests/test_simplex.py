import random
from fractions import Fraction

import pytest

from barypoly import simplex
from barypoly.errors import InternalError
from barypoly.linalg import dot, mat_vec, rank
from barypoly.simplex import convex_membership, feasible_point

F = Fraction


def test_feasible_point_square_center():
    a = [
        [F(0), F(1), F(1), F(0)],
        [F(0), F(0), F(1), F(1)],
        [F(1), F(1), F(1), F(1)],
    ]
    b = [F(1, 2), F(1, 2), F(1)]
    res = feasible_point(a, b)
    assert res.status == "optimal"
    assert mat_vec(a, res.x) == b
    assert all(x >= 0 for x in res.x)


def test_unbounded_phase_one_is_internal_error(monkeypatch):
    monkeypatch.setattr(simplex._Tableau, "_bland", lambda *a: "unbounded")
    with pytest.raises(InternalError):
        feasible_point([[F(1), F(1)]], [F(1)])


def test_feasible_point_deterministic():
    a = [[F(0), F(1), F(1), F(0)],
         [F(0), F(0), F(1), F(1)],
         [F(1), F(1), F(1), F(1)]]
    b = [F(1, 3), F(2, 3), F(1)]
    assert feasible_point(a, b).x == feasible_point(a, b).x


def test_infeasible_farkas_certificate():
    # x1 + x2 = -1 with x >= 0 is infeasible
    a = [[F(1), F(1)]]
    b = [F(-1)]
    res = feasible_point(a, b)
    assert res.status == "infeasible"
    y = res.farkas
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
    res = feasible_point(a, b)
    assert res.status == "infeasible"
    y = res.farkas
    for col in zip(*a):
        assert dot(y, col) <= 0
    assert dot(y, b) > 0


def _is_basic(a, x):
    """The columns of ``a`` on the support of ``x`` are linearly independent."""
    support = [j for j, xj in enumerate(x) if xj != 0]
    return rank([[row[j] for j in support] for row in a]) == len(support)


def test_feasible_point_basic_solution():
    # x1 + x2 = 1: phase one stops at the vertex (1, 0) of the segment
    res = feasible_point([[F(1), F(1)]], [F(1)])
    assert res.status == "optimal"
    assert res.x == [F(1), F(0)]


def test_feasible_point_transport_like():
    # x1 + x2 + x3 = 1, x2 + 2 x3 = 1: a vertex of the feasible segment
    a = [[F(1), F(1), F(1)], [F(0), F(1), F(2)]]
    b = [F(1), F(1)]
    res = feasible_point(a, b)
    assert res.status == "optimal"
    assert mat_vec(a, res.x) == b
    assert all(x >= 0 for x in res.x)
    assert _is_basic(a, res.x)


def test_feasible_point_unbounded_region():
    # x1 - x2 = 0 has an unbounded feasible ray; phase one stays bounded
    res = feasible_point([[F(1), F(-1)]], [F(0)])
    assert res.status == "optimal"
    assert res.x == [F(0), F(0)]


def test_redundant_rows():
    # duplicated constraint row must not break feasibility handling
    a = [[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]]
    b = [F(1), F(1), F(2)]
    res = feasible_point(a, b)
    assert res.status == "optimal"
    assert mat_vec(a, res.x) == b


def test_degenerate_systems_random():
    rng = random.Random(99)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [[F(rng.randint(-4, 4), 2) for _ in range(n)] for _ in range(m)]
        x0 = [F(rng.randint(0, 5), 3) for _ in range(n)]
        b = mat_vec(a, x0)  # feasible by construction
        res = feasible_point(a, b)
        assert res.status == "optimal"
        assert mat_vec(a, res.x) == b
        assert all(x >= 0 for x in res.x)


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
        mine = feasible_point(a, b)
        ref = linprog([0.0] * n,
                      A_eq=[[float(x) for x in r] for r in a],
                      b_eq=[float(x) for x in b],
                      bounds=(0, None), method="highs")
        statuses.add(mine.status)
        if mine.status == "optimal":
            assert ref.status == 0
            assert mat_vec(a, mine.x) == b
            assert all(x >= 0 for x in mine.x)
            assert _is_basic(a, mine.x)
        else:
            assert mine.status == "infeasible" and ref.status == 2
            y = mine.farkas
            assert all(dot(y, col) <= 0 for col in zip(*a))
            assert dot(y, b) > 0
    assert statuses == {"optimal", "infeasible"}


def test_convex_membership():
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    w = convex_membership(square, (F(1, 4), F(1, 4)))
    assert w is not None
    assert sum(w) == 1 and all(x >= 0 for x in w)
    assert sum(wi * v[0] for wi, v in zip(w, square)) == F(1, 4)
    assert sum(wi * v[1] for wi, v in zip(w, square)) == F(1, 4)
    assert convex_membership(square, (F(2), F(0))) is None
