"""Exact rational linear algebra kernels.

All combinatorial computations in this package are exact: over
``fractions.Fraction`` (arbitrary-precision rationals), or over int rows
scaled from them by ``integer_rows``; floating point only appears in the
probe layer and the seeded polytope generator, which add floats with
``float_sum``.  Matrices are plain lists of row lists, vectors plain
sequences.  ``bareiss_row`` is the integer (fraction-free) row update: the
simplex pivot, and the step of ``eliminate``, the one fraction-free
Gauss-Jordan loop, under ``cofactors`` (the pattern table's wall kernel),
``nullspace_basis`` (validation's N) and ``rank``.  No Fraction elimination
is left: the RREF is unique, so the kernel basis read off ``eliminate`` is
the Fraction RREF's, Fraction for Fraction.  The DD oracle scales its system
with ``integer_rows`` too, but runs its own elimination
(``oracle._reduced_system``), so it shares none with the enumeration route.
"""

import math
import re
import sys
from collections.abc import Sequence
from fractions import Fraction

from .errors import DigitLimitError, EmptyInputError

MAX_EXPONENT = 4300  # fr's largest |decimal exponent|, as Python's int digits
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*\Z")

Vec = Sequence[Fraction]
Mat = Sequence[Sequence[Fraction]]


def fr(x) -> Fraction:
    """Convert ints, floats, strings like '3/4' or '0.25' to an exact Fraction;
    ValueError beyond MAX_EXPONENT, where Fraction would build 10**exponent."""
    if isinstance(x, Fraction):
        return x
    # int() refuses an exponent of more than 4300 digits, as Fraction would
    exp = _EXPONENT.search(x.replace("_", "")) if isinstance(x, str) else None
    if exp and int(exp[1]) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond ±{MAX_EXPONENT}")
    return Fraction(x)


def rational_str(x) -> str:
    """'p/q' (or 'p') of an exact value; DigitLimitError where p or q has more
    digits than ``int`` converts to a string.  The limit stays in force: fr's
    input bound relies on int() refusing longer strings."""
    try:
        return str(x)
    except ValueError as exc:
        raise DigitLimitError(f"an output value has more than "
                              f"{sys.get_int_max_str_digits()} digits") from exc


def vec(xs) -> tuple:
    return tuple(fr(x) for x in xs)


def mat(rows) -> list:
    return [[fr(x) for x in row] for row in rows]


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def float_sum(xs) -> float:
    """Left-to-right float addition from 0.0: the same bits on every Python
    (3.12 made ``sum`` of floats compensated), and inf or nan past the float
    range, as IEEE addition gives, where ``math.fsum`` raises."""
    total = 0.0
    for x in xs:
        total += x
    return total


def mat_vec(a: Mat, x: Vec) -> list:
    return [dot(row, x) for row in a]


def rank(a: Mat) -> int:
    """Exact rank: the pivot count of ``eliminate`` on ``a`` scaled to
    integers."""
    if not a or not a[0]:
        return 0
    return len(eliminate(integer_rows(a)[1])[1])


def integer_rows(a: Mat) -> tuple:
    """(L, rows): ``a`` times L, the lcm of its denominators, as int rows.

    L is positive, so every entry keeps its sign.
    """
    scale = math.lcm(*(x.denominator for row in a for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row]
                   for row in a]


def bareiss_row(row, f: int, piv, pk: int, prev: int) -> list:
    """One fraction-free row update (pk·row - f·piv) / prev, f = row's entry
    in the pivot column.  The division is exact (Bareiss 1968)."""
    return [(pk * x - f * y) // prev for x, y in zip(row, piv)]


def eliminate(rows) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of int rows,
    with a pivot-column search: (rows, pivot columns, D, parity).

    Each column pivots on its first nonzero entry at or below the next pivot
    row, and every other row r becomes (pivot·r - r_c·pivot_row) / previous
    pivot, an exact division, so every entry stays a minor of the input.
    Each pivot row then holds D, the last pivot, at its pivot column and 0
    at the other pivot columns: row r / D is row r of the RREF.  parity is
    (-1) to the number of row swaps.  O(m^2 n) operations.
    """
    a = list(rows)  # rows are replaced, never changed in place
    m = len(a)
    pivots, k, prev, parity = [], 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        if k == m:
            break
        for i in range(k, m):
            if a[i][c]:
                break
        else:  # no pivot in column c
            continue
        if i != k:
            a[k], a[i], parity = a[i], a[k], -parity
        piv = a[k]
        pk = piv[c]
        for j, r in enumerate(a):
            if j != k and (r[c] or pk != prev):
                a[j] = bareiss_row(r, r[c], piv, pk, prev)
        prev, k = pk, k + 1
        pivots.append(c)
    return a, pivots, prev, parity


def cofactors(rows) -> list:
    """The cofactor vector c of m int rows of length m + 1, c_j = (-1)^j times
    the minor without column j, so that c·y = det[y; rows] for every y.

    At rank m ``eliminate`` leaves one column free and each pivot row holds
    D at its pivot column; the kernel vector (-D at the free column, the
    rows' free-column entries at the pivot columns) times (-1)^(free+1) and
    the parity of the row swaps is c.  Rank < m gives zeros.
    """
    m = len(rows)
    a, pivots, prev, parity = eliminate(rows)
    if len(pivots) < m:
        return [0] * (m + 1)
    free = m * (m + 1) // 2 - sum(pivots)  # the one column of 0..m left out
    sign = parity if free % 2 else -parity
    out = [sign * r[free] for r in a]
    out.insert(free, -sign * prev)
    return out


def nullspace_basis(a: Mat) -> list:
    """Exact kernel basis of ``a``.

    Returns a list of kernel vectors (each of length a.cols); the list is
    empty when the kernel is trivial.  Basis vectors come from the RREF's
    free columns, so the output is canonical for a given input: ``a`` scaled
    to integers (the same RREF) is ``eliminate``d, and the vector of free
    column f is 1 at f and -row_r[f] / D at pivot column c_r.
    """
    if not a:
        return []
    ncols = len(a[0])
    red, pivots, last, _ = eliminate(integer_rows(a)[1])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-red[r][f], last)
        basis.append(v)
    return basis


def affine_dim(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull of ``points`` (rank of the differences)."""
    if not points:
        raise EmptyInputError("affine_dim needs at least one point")
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    if not diffs:
        return 0
    return rank(diffs)
