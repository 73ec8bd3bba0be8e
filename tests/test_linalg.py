import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barypoly import linalg
from barypoly.errors import DigitLimitError, EmptyInputError, SingularMatrixError
from helpers import (
    bareiss,
    mat_mul,
    mat_vec,
    matrices,
    random_square_matrix,
    reference_nullspace_basis,
    reference_rank,
    solve_linear,
)

F = Fraction


def test_solve_identity():
    a = [[F(1), F(0)], [F(0), F(1)]]
    assert solve_linear(a, [F(3), F(5)]) == [F(3), F(5)]


def test_solve_hand_elimination():
    a = [[F(1), F(1)], [F(1), F(-1)]]
    x = solve_linear(a, [F(1), F(0)])
    assert x == [F(1, 2), F(1, 2)]
    assert mat_vec(a, x) == [F(1), F(0)]


def test_solve_singular():
    a = [[F(1), F(1)], [F(2), F(2)]]
    with pytest.raises(SingularMatrixError):
        solve_linear(a, [F(1), F(1)])


def test_solve_roundtrip_random():
    rng = random.Random(1234)
    solved = 0
    while solved < 100:
        n = rng.randint(1, 8)
        a = random_square_matrix(rng, n)
        b = [F(rng.randint(-20, 20), 7) for _ in range(n)]
        try:
            x = solve_linear(a, b)
        except SingularMatrixError:
            continue
        assert mat_vec(a, x) == b
        solved += 1


def test_bareiss_matches_solve_linear():
    rng = random.Random(4321)
    singular = 0
    for trial in range(300):
        n = rng.randint(1, 7)
        a = random_square_matrix(rng, n)
        if trial % 3 == 0:  # make row i a multiple of row j (or zero, n = 1)
            i, j = rng.randrange(n), rng.randrange(n)
            c = F(rng.randint(-3, 3), rng.randint(1, 4)) if i != j else F(0)
            a[i] = [c * x for x in a[j]]
        b = [F(rng.randint(-20, 20), 7) for _ in range(n)]
        eye = [[F(int(r == c)) for c in range(n)] for r in range(n)]
        scale, rows = linalg.integer_rows(
            [list(row) + [bb] + e for row, bb, e in zip(a, b, eye)])
        assert scale > 0 and all(isinstance(x, int) for row in rows for x in row)
        det, nums = bareiss(rows, n)
        try:
            x = solve_linear(a, b)
        except SingularMatrixError:
            assert (det, nums) == (0, None)
            singular += 1
            continue
        assert det != 0
        assert [F(row[0], det) for row in nums] == x
        # the identity columns give the inverse (L scales both sides)
        inv = [[F(v, det) for v in row[1:]] for row in nums]
        assert mat_mul(a, inv) == eye
    assert singular >= 50


def _signed_minor(a, j):
    """(-1)^j det(a without column j) over Fractions: the product of the
    pivots of a Gaussian elimination with row swaps, 0 where a column has
    no pivot."""
    rows = [[F(x) for k, x in enumerate(row) if k != j] for row in a]
    det = F((-1) ** j)
    for c in range(len(rows)):
        i = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if i is None:
            return F(0)
        if i != c:
            rows[c], rows[i], det = rows[i], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def test_cofactors_are_signed_minors():
    # c_j = (-1)^j det(a without column j) on random int m x (m + 1) rows:
    # full rank, rank deficient, and full rank with the first m columns
    # dependent, where the elimination must search for a pivot column
    rng = random.Random(2718)
    kinds = {"full": 0, "deficient": 0, "pivot search": 0}
    for trial in range(300):
        m = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(m + 1)] for _ in range(m)]
        kind = ("full", "deficient", "pivot search")[trial % 3]
        if kind == "deficient" and m > 1:
            i, j = rng.sample(range(m), 2)
            k = rng.randint(-2, 2)
            a[i] = [k * x for x in a[j]]
        elif kind == "pivot search" and m > 1:
            # column c a combination of the earlier ones
            c = rng.randrange(1, m)
            w = [rng.randint(-2, 2) for _ in range(c)]
            for row in a:
                row[c] = sum(x * y for x, y in zip(w, row))
        c = linalg.cofactors(a)
        assert c == [_signed_minor(a, j) for j in range(m + 1)]
        assert all(isinstance(x, int) for x in c)
        rank = reference_rank([[F(x) for x in row] for row in a])
        assert any(c) == (rank == m)
        if rank == m:  # c spans the kernel the Fraction rref reads off
            basis, = reference_nullspace_basis([[F(x) for x in row] for row in a])
            f = next(x for x in basis if x)
            k = next(x for x in c if x)
            assert [x * f for x in c] == [k * x for x in basis]
        kinds[kind] += rank < m if kind == "deficient" else rank == m
    assert min(kinds.values()) >= 50


def test_cofactors_small_cases():
    # d = 1: the wall of one point (1, x) is (x, -1), so c·(1, y) = x - y
    assert linalg.cofactors([[1, 5]]) == [5, -1]
    # d = 2: the line through (0, 0) and (1, 0), sign det[y; rows]
    assert linalg.cofactors([[1, 0, 0], [1, 1, 0]]) == [0, 0, 1]
    # a zero first column: the only free column is 0, reached by the search
    assert linalg.cofactors([[0, 1, 0], [0, 0, 1]]) == [1, 0, 0]
    # two equal points span no line: rank 1, zeros
    assert linalg.cofactors([[1, 2, 3], [1, 2, 3]]) == [0, 0, 0]


def _pencil_at(pencil, r) -> list:
    """((k_g·r)·k_f - (k_f·r)·k_g) / D of a ``cofactor_pencil``, with the
    division checked exact."""
    kf, kg, den = pencil
    a, b = sum(x * y for x, y in zip(kg, r)), sum(x * y for x, y in zip(kf, r))
    nums = [a * x - b * y for x, y in zip(kf, kg)]
    assert all(x % den == 0 for x in nums)
    return [x // den for x in nums]


@st.composite
def _pencil_rows(draw):
    """m = 0..5 int rows of length m + 2, small or near ±2^64, with zero rows,
    zero columns and a row that combines the others drawn in."""
    m = draw(st.integers(0, 5))
    big = 1 << 64 if draw(st.booleans()) else 4
    rows = [[draw(st.integers(-big, big)) for _ in range(m + 2)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else ():
        rows[i] = [0] * (m + 2)
    for j in draw(st.sets(st.integers(0, m + 1), max_size=2)):
        for row in rows:
            row[j] = 0
    if m > 1 and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        ws = [draw(st.integers(-3, 3)) for _ in range(m)]
        rows[i] = [sum(w * row[j] for k, (w, row) in enumerate(zip(ws, rows)) if k != i)
                   for j in range(m + 2)]
    return rows


@settings(max_examples=200, deadline=None)
@given(_pencil_rows(), st.data())
def test_cofactor_pencil_extends_its_rows(rows, data):
    # one elimination of m rows gives the cofactor vector of rows + [r] for
    # every r: r drawn at random (a nonzero vector where rows + [r] has
    # full rank) and from the row space (zeros), with zero rows and
    # columns, a dependent row and entries near ±2^64
    m = len(rows)
    pencil = linalg.cofactor_pencil(rows)
    assert all(isinstance(x, int) for k in pencil[:2] for x in k) and pencil[2]
    big = data.draw(st.sampled_from([4, 1 << 64]))
    r = [data.draw(st.integers(-big, big)) for _ in range(m + 2)]
    ws = [data.draw(st.integers(-big, big)) for _ in range(m)]
    spanned = [sum(w * row[j] for w, row in zip(ws, rows)) for j in range(m + 2)]
    for extra in (r, spanned):
        assert _pencil_at(pencil, extra) == linalg.cofactors(rows + [extra])
    assert not any(_pencil_at(pencil, spanned))


def test_cofactor_pencil_small_cases():
    # m = 0: no rows, both columns free, k_f = (1, 0) and k_g = (0, 1) over
    # D = 1, so the wall of one point (x_0, x_1) is (x_1, -x_0)
    assert linalg.cofactor_pencil([]) == ([1, 0], [0, 1], 1)
    assert _pencil_at(linalg.cofactor_pencil([]), [1, 5]) == linalg.cofactors([[1, 5]]) \
        == [5, -1]
    # m = 1, the point (1, 0, 0): the line to (1, 1, 0) is the wall of
    # cofactors_small_cases, and a repeated point gives zeros
    pencil = linalg.cofactor_pencil([[1, 0, 0]])
    assert _pencil_at(pencil, [1, 1, 0]) == [0, 0, 1]
    assert _pencil_at(pencil, [2, 0, 0]) == [0, 0, 0]
    # rank < m: zero vectors over D = 1, so every extension is zero
    assert linalg.cofactor_pencil([[1, 2, 3, 4], [2, 4, 6, 8]]) == ([0] * 4, [0] * 4, 1)


@pytest.mark.parametrize("shape", ["1x1", "wide", "square", "tall"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_and_rank_equal_the_fraction_references(shape, data):
    # the fraction-free loop's N and rank equal the Fraction rref's, entry
    # for entry: m < n, m = n, m > n and 1 x 1, with zero rows and columns,
    # a dependent row and denominators near 2^64
    a = data.draw(matrices(shape))
    basis = linalg.nullspace_basis(a)
    assert basis == reference_nullspace_basis(a)
    assert all(type(x) is F for v in basis for x in v)
    assert linalg.rank(a) == reference_rank(a) == len(a[0]) - len(basis)


def _unit_square_stacked():
    return [
        [F(0), F(1), F(1), F(0)],
        [F(0), F(0), F(1), F(1)],
        [F(1), F(1), F(1), F(1)],
    ]


def test_nullspace_unit_square():
    basis = linalg.nullspace_basis(_unit_square_stacked())
    assert len(basis) == 1
    c = basis[0]
    assert mat_vec(_unit_square_stacked(), c) == [F(0)] * 3
    # proportional to (1, -1, 1, -1)
    ref = [F(1), F(-1), F(1), F(-1)]
    scale = c[0] / ref[0]
    assert scale != 0 and all(x == scale * r for x, r in zip(c, ref))


def test_nullspace_trivial_and_forced():
    assert linalg.nullspace_basis([[F(1), F(0)], [F(0), F(1)]]) == []
    basis = linalg.nullspace_basis([[F(1), F(1)]])
    assert len(basis) == 1
    assert basis[0][0] == -basis[0][1] != 0


def test_nullspace_random_properties():
    rng = random.Random(77)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 7)
        a = [[F(rng.randint(-6, 6), 3) for _ in range(n)] for _ in range(m)]
        basis = linalg.nullspace_basis(a)
        r = linalg.rank(a)
        assert len(basis) == n - r
        for c in basis:
            assert mat_vec(a, c) == [F(0)] * m
        if basis:
            cols = [list(col) for col in zip(*basis)]
            assert linalg.rank(cols) == len(basis)


def test_rank():
    assert linalg.rank([[F(1), F(0), F(0)],
                        [F(0), F(1), F(0)],
                        [F(0), F(0), F(1)]]) == 3
    assert linalg.rank(_unit_square_stacked()) == 3
    assert linalg.rank([[F(0), F(0)], [F(0), F(0)]]) == 0


def test_affine_dim_basics():
    assert linalg.affine_dim([(F(2), F(3))]) == 0
    assert linalg.affine_dim([(F(0), F(0)), (F(1), F(1))]) == 1
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    assert linalg.affine_dim(square) == 2
    with pytest.raises(EmptyInputError):
        linalg.affine_dim([])


def test_affine_dim_invariances():
    rng = random.Random(5)
    pts = [tuple(F(rng.randint(-9, 9), 4) for _ in range(3)) for _ in range(5)]
    base = linalg.affine_dim(pts)
    for _ in range(5):
        perm = pts[:]
        rng.shuffle(perm)
        assert linalg.affine_dim(perm) == base
    # adding an affine combination of the points does not change the dimension
    w = [F(1, 5)] * 5
    extra = tuple(sum(wi * p[l] for wi, p in zip(w, pts)) for l in range(3))
    assert linalg.affine_dim(pts + [extra]) == base


@pytest.mark.parametrize("text, value", [
    ("1e4300", Fraction(10) ** 4300),
    ("-2.5E-4300", Fraction(-25, 10 ** 4301)),
    ("3e+0_4300 ", 3 * Fraction(10) ** 4300),
    ("1e00000000000000000000000004300", Fraction(10) ** 4300),
])
def test_fr_reads_exponents_up_to_the_bound(text, value):
    assert linalg.MAX_EXPONENT == 4300
    assert linalg.fr(text) == value


@pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e4_301", "1e99999999",
                                  "-1.5e-99999999"])
def test_fr_refuses_exponents_past_the_bound(text):
    with pytest.raises(ValueError, match="decimal exponent beyond ±4300"):
        linalg.fr(text)


def test_solve_non_square_system():
    with pytest.raises(SingularMatrixError, match="square system"):
        solve_linear([[F(1), F(2)]], [F(1)])


def test_nullspace_of_no_rows():
    assert linalg.nullspace_basis([]) == []


def test_float_sum_adds_left_to_right():
    # the same bits on every Python (3.12's sum of floats is compensated),
    # and inf or nan past the float range, where math.fsum raises
    assert linalg.float_sum([0.1] * 10) == 0.9999999999999999
    assert linalg.float_sum([1e16, 1.0, -1e16]) == 0.0
    assert linalg.float_sum([]) == 0.0
    assert linalg.float_sum([1.44e308, 1.44e308]) == math.inf
    assert math.isnan(linalg.float_sum([math.inf, -math.inf]))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30), st.integers(0, 10 ** 6))
def test_ratio_str_writes_the_fraction(num, den, g):
    # one gcd and no Fraction: the bytes of rational_str(Fraction(num, den)),
    # also where a common factor g reduces or den divides num
    for a, b in ((num, den), (num * g, den * g), (num * den, den)):
        if b:
            assert linalg.ratio_str(a, b) == linalg.rational_str(Fraction(a, b))


def test_ratio_str_stops_at_the_digit_limit():
    # DigitLimitError where rational_str(Fraction(...)) raises it, in the
    # numerator or the denominator, and the reduced value is written when the
    # gcd brings it under the limit
    limit = 10 ** 4300
    for num, den in ((1, limit), (limit, 1), (limit + 1, 3)):
        for write in (lambda: linalg.ratio_str(num, den),
                      lambda: linalg.rational_str(Fraction(num, den))):
            with pytest.raises(DigitLimitError, match="more than 4300 digits"):
                write()
    assert linalg.ratio_str(limit, 10 * limit) == "1/10"
