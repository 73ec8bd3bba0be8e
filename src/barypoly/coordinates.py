"""Generalized barycentric coordinate sets.

For a point p inside a validated polytope the feasible coordinate vectors

    { lam >= 0 : V·lam = p, sum(lam) = 1 }

form a polytope of dimension at most n-d-1.  This module computes a feasible
basepoint tau(p), validation's kernel basis N of [V; 1^T], the simplicial
coordinates obtained by zeroing a prescribed index set, the full vertex list
of the coordinate polytope, and its reduced form { c : tau + N c >= 0 } in
kernel coordinates.  Each zero pattern's coordinates are an affine map of the
point, so a polytope eliminates every pattern once, into a table that is read
only at points, with integer multiply-adds.  All arithmetic is exact; index
sets are 1-based to match the vertex order of the input file.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul

from . import linalg
from .errors import (
    InconsistentInputsError,
    InfeasibleError,
    NotAnIntervalError,
    NotMemberError,
    PatternLimitError,
    SingularMatrixError,
    SingularPatternError,
    UnboundedDirectionError,
)
from .polytope import Polytope
from .simplex import convex_membership, feasible_point

_ZERO = Fraction(0)
_ONE = Fraction(1)
# the most zero patterns C(n, n-d-1) a pattern table is built for
MAX_PATTERNS = 100_000


@dataclass(frozen=True)
class BarycentricVector:
    """One feasible coordinate vector: V·lam = point, sum(lam) = 1, lam >= 0."""

    lam: tuple
    point: tuple


@dataclass(frozen=True)
class SimplicialCoordinate:
    """Unique solution with the entries in ``zero_set`` (1-based) forced to 0."""

    zero_set: frozenset
    sigma: tuple
    feasible: bool


@dataclass(frozen=True)
class LambdaPolytope:
    """Vertex description of the coordinate polytope at ``point``.

    ``theorem_count_match`` records whether the vertex count equals n-d (the
    classical prediction); it is measured, never assumed.
    """

    point: tuple
    vertices: tuple              # BarycentricVector, sorted lexicographically
    vertex_supports: tuple       # frozenset of 1-based indices per vertex
    dim: int
    theorem_count_match: bool

    def vertex_arrays(self) -> list:
        return [v.lam for v in self.vertices]


@dataclass(frozen=True)
class GammaPolytope:
    """Reduced polytope { c : tau + N c >= 0 } in kernel coordinates."""

    tau: BarycentricVector
    nbasis: tuple                # n rows of length n-d-1
    hrep_rows: tuple             # (coefficients, offset): offset + coeffs·c >= 0
    vertices: tuple              # aligned 1:1 with the LambdaPolytope vertices


def nullbasis(p: Polytope) -> list:
    """Exact n x (n-d-1) kernel basis of [V; 1^T], as fresh lists of the rows
    validation kept from the RREF's free columns (``nullspace_basis``)."""
    return [list(row) for row in p._kernel_rows]


def feasible_tau(p: Polytope, point) -> BarycentricVector:
    """A feasible coordinate vector at ``point`` (phase-one simplex, Bland).

    Deterministic for a given input; raises InfeasibleError when the point is
    outside the polytope.
    """
    pt = linalg.vec(point)
    lam = feasible_point(p.stacked_rows(), list(pt) + [_ONE])[0]
    if lam is None:
        raise InfeasibleError("point is outside the polytope")
    return BarycentricVector(lam=tuple(lam), point=pt)


def circular_windows(n: int, d: int) -> list:
    """The n circular index windows {i, i+1, ..., i+n-d-2} (1-based, mod n)."""
    size = n - d - 1
    if size < 0:
        raise ValueError("need n > d")
    if size == 0:
        return []
    return [frozenset(((i + k) % n) + 1 for k in range(size)) for i in range(n)]


def _solve_pattern(vrows, keep, rhs) -> tuple:
    """(den, nums) with x = nums / den; den is 0 when singular.

    Solves [1 … 1; L·V_keep]·x = rhs with ``linalg.bareiss``, the all-ones
    row first so that the first pivot is 1.
    """
    rows = [[1] * len(keep) + rhs[0]]
    rows += [[vr[j] for j in keep] + b for vr, b in zip(vrows, rhs[1:])]
    return linalg.bareiss(rows, len(keep))


def _sigma(n, keep, xs, den) -> tuple:
    sigma = [_ZERO] * n
    for j, x in zip(keep, xs):
        sigma[j] = Fraction(x, den)
    return tuple(sigma)


def _patterns(p: Polytope):
    """Yield (zero set, keep, den, nums) for every nonsingular zero pattern, in
    the one loop over them: row i of nums / den is sigma_keep[i] at 0, then
    (J·e_l)_keep[i] for l = 1..d.  Zero sets are 1-based, lexicographic.

    With L the lcm of the vertex denominators, the pattern on columns ``keep``
    solves [1 … 1; L·V_keep]·X = [1, 0; 0, L·I]: the first column of X is
    sigma_keep(0) and column l + 1 is J_keep·e_l, as L·V_keep·J_keep·e_l =
    L·e_l.
    """
    scale, vrows = linalg.integer_rows(p.stacked_rows()[:-1])
    rhs = [[1] + [0] * p.d]
    rhs += [[0] + [scale * (c == l) for c in range(p.d)] for l in range(p.d)]
    for combo in itertools.combinations(range(1, p.n + 1), p.kernel_dim()):
        keep = [j for j in range(p.n) if j + 1 not in combo]
        den, nums = _solve_pattern(vrows, keep, rhs)
        if den:
            yield combo, keep, den, nums


def check_pattern_count(n: int, d: int) -> None:
    """The pattern table's budget: raises PatternLimitError when n vertices
    in R^d have more than MAX_PATTERNS zero patterns C(n, n-d-1).  It needs
    only n and d, so callers may run it before validation; n <= d, which
    validation refuses, passes."""
    if n > d:
        count = math.comb(n, n - d - 1)
        if count > MAX_PATTERNS:
            raise PatternLimitError(
                f"{count} zero patterns exceed the limit of {MAX_PATTERNS}")


def _table(p: Polytope) -> dict:
    """Zero set -> row of _patterns(p), built once per ``p`` and kept on it.

    Each sigma_Z is affine on R^d, so row i of nums / den, [a | b_1 … b_d],
    holds sigma_Z(0)_keep[i] and (J_Z)_keep[i], and fixes sigma_Z at every
    point.  Raises PatternLimitError (``check_pattern_count``) before any
    elimination.
    """
    table = p._pattern_table
    if not table:  # a full-dimensional polytope has a nonsingular pattern
        check_pattern_count(p.n, p.d)
        table.update({row[0]: row for row in _patterns(p)})
    return table


def _evaluate(rows, point):
    """Yield (zero set, keep, xs, den), sigma_keep = xs / den, for ``rows`` of
    the pattern table at ``point``: with E the lcm of the point's denominators,
    row [a | b] over den gives xs = E·a + b·(E·point) over den·E."""
    scale, (ints,) = linalg.integer_rows([point])
    vec = (scale, *ints)
    for combo, keep, den, nums in rows:
        yield combo, keep, [sum(map(mul, row, vec)) for row in nums], den * scale


def simplicial_coords(p: Polytope, point, zero_set) -> SimplicialCoordinate:
    """The coordinates of ``point`` with ``zero_set`` (n-d-1 integers in 1..n,
    else ValueError) forced to zero, read off row ``zero_set`` of the pattern
    table; SingularPatternError when the complementary columns are affinely
    dependent."""
    try:
        zeros = frozenset(map(index, zero_set))
    except TypeError as exc:
        raise ValueError(f"zero set entries must be integers: {exc}") from exc
    if not all(1 <= j <= p.n for j in zeros):
        raise ValueError(f"zero set entries must lie in 1..{p.n}")
    if len(zeros) != p.kernel_dim():
        raise ValueError(
            f"zero set must have size n-d-1 = {p.kernel_dim()}, got {len(zeros)}")
    row = _table(p).get(tuple(sorted(zeros)))
    if row is None:
        raise SingularPatternError(
            f"columns outside {sorted(zeros)} are affinely dependent")
    (_, keep, xs, den), = _evaluate([row], linalg.vec(point))
    sigma = _sigma(p.n, keep, xs, den)
    return SimplicialCoordinate(zero_set=zeros, sigma=sigma,
                                feasible=all(x >= 0 for x in sigma))


def _feasible_rows(p: Polytope, point):
    """Yield (zero set, keep, xs, den) for every row of _table(p) whose
    sigma_keep = xs / den is feasible at ``point``, in table order; tested on
    plain ints (every x·den >= 0) before any Fraction is built."""
    for combo, keep, xs, den in _evaluate(_table(p).values(), point):
        if all(x * den >= 0 for x in xs):
            yield combo, keep, xs, den


def _vertices_at(p: Polytope, point) -> list:
    """Sorted distinct vertices of Lambda(point): feasible rows are told apart
    on their integers over the gcd, den made positive, before any Fraction."""
    distinct = {}
    for _, keep, xs, den in _feasible_rows(p, point):
        g = math.gcd(den, *xs) if den > 0 else -math.gcd(den, *xs)
        key = (den // g, *((j, x // g) for j, x in zip(keep, xs) if x))
        distinct.setdefault(key, (keep, xs, den))
    return sorted(_sigma(p.n, *row) for row in distinct.values())


def is_interior(vertices) -> bool:
    """Interior iff Lambda holds a lam > 0: iff its vertices' supports cover 1..n."""
    return all(map(any, zip(*vertices)))


def lambda_vertices(p: Polytope, point) -> LambdaPolytope:
    """Enumerate the vertex set of the coordinate polytope at ``point``.

    Reads every nonsingular size-(n-d-1) zero pattern at ``point`` off the
    polytope's pattern table and keeps the sorted distinct feasible
    solutions (``_vertices_at``).  A nonsingular pattern's support columns
    are affinely independent, so every feasible solution is a vertex.  Raises
    InfeasibleError when the point is outside and PatternLimitError when the
    polytope has too many zero patterns.

    ``dim`` is k - rank N_out, N_out the rows of N (n x k) off S, the union of
    the vertex supports.  Lambda is zero off S and its vertices' barycentre is
    positive on S, so aff Lambda = {tau + N·c : N_out·c = 0}, and N has full
    column rank: |S| - 1 - dim aff{v_j : j in S} by rank-nullity.  At an
    interior point S is all of 1..n: N_out is empty, no elimination.
    """
    pt = linalg.vec(point)
    ordered = _vertices_at(p, pt)
    if not ordered:
        raise InfeasibleError("point is outside the polytope")
    vertices = tuple(BarycentricVector(lam=v, point=pt) for v in ordered)
    supports = tuple(frozenset(j + 1 for j, x in enumerate(v) if x) for v in ordered)
    support = frozenset().union(*supports)
    outside = [row for j, row in enumerate(p._kernel_rows, 1) if j not in support]
    return LambdaPolytope(
        point=pt,
        vertices=vertices,
        vertex_supports=supports,
        dim=p.kernel_dim() - linalg.rank(outside),
        theorem_count_match=(len(ordered) == p.n - p.d),
    )


def gamma_polytope(p: Polytope, tau: BarycentricVector, nbasis_rows,
                   lam: LambdaPolytope) -> GammaPolytope:
    """Reduced polytope of ``lam`` in the kernel coordinates of ``nbasis_rows``.

    ``nullbasis`` reads N off the RREF's free columns, so N has a row
    u_j equal to e_j for each j = 1..k, and the only solution of
    N·c = v - tau is c_j = (v - tau)[u_j]: no elimination.  On the unit rows
    N·c = v - tau holds by construction, so consistency is tested on the
    d + 1 other rows i only, as N_i·v[u] - v_i == N_i·tau[u] - tau_i, over
    the nonzero entries of v[u] (a vertex of Lambda has at most d + 1).
    Raises SingularMatrixError when N lacks one of the unit rows (a
    rank-deficient N always does) and InconsistentInputsError when some
    v - tau is outside the column span of N.
    """
    k = p.kernel_dim()
    rows = linalg.mat(nbasis_rows)
    try:
        units = [rows.index([int(i == j) for i in range(k)]) for j in range(k)]
    except ValueError:
        raise SingularMatrixError(
            "kernel basis lacks a unit row e_j (nullbasis has all k)") from None
    others = [(row, i) for i, row in enumerate(rows) if i not in units]

    def residuals(x):
        nonzero = [(j, x[u]) for j, u in enumerate(units) if x[u]]
        return [sum((row[j] * a for j, a in nonzero), -x[i]) for row, i in others]

    base = residuals(tau.lam)
    gvertices = []
    for v in lam.vertices:
        if residuals(v.lam) != base:
            raise InconsistentInputsError(
                "vertex - tau is not in the column span of the kernel basis")
        gvertices.append(tuple(v.lam[u] - tau.lam[u] for u in units))
    hrep = tuple((tuple(row), tau.lam[j]) for j, row in enumerate(rows))
    return GammaPolytope(
        tau=tau,
        nbasis=tuple(tuple(r) for r in rows),
        hrep_rows=hrep,
        vertices=tuple(gvertices),
    )


def segment_interval(tau: BarycentricVector, n_col) -> tuple:
    """Exact interval [a, b] with { tau + c·N : a <= c <= b } the coordinate set.

    Only defined when the kernel is one-dimensional (n - d - 1 = 1):
    a = max over N_i > 0 of -tau_i / N_i, b = min over N_i < 0 of -tau_i / N_i.
    """
    n, d = len(tau.lam), len(tau.point)
    if n - d - 1 != 1:
        raise NotAnIntervalError(f"kernel dimension is {n - d - 1}, not 1")
    col = linalg.vec(n_col)
    lower = [-t / c for t, c in zip(tau.lam, col, strict=True) if c > 0]
    upper = [-t / c for t, c in zip(tau.lam, col, strict=True) if c < 0]
    if not lower or not upper:
        raise UnboundedDirectionError(
            "kernel direction lacks a positive or negative entry")
    return max(lower), min(upper)


def caratheodory_decompose(lam: LambdaPolytope, x: BarycentricVector) -> list:
    """Write ``x`` as a convex combination of at most n-d vertices of ``lam``.

    Returns (vertex index, weight) pairs, in index order, with positive
    rational weights summing to one: the nonzero entries of the one basic
    solution that ``convex_membership`` finds.  Its support points are
    affinely independent, so there are at most dim Lambda + 1 <= n-d of them
    (Caratheodory).  Raises NotMemberError when x is not in the convex hull
    of the vertex list.
    """
    weights = convex_membership(lam.vertex_arrays(), x.lam)
    if weights is None:
        raise NotMemberError("x is not in the convex hull of the vertices")
    return [(i, w) for i, w in enumerate(weights) if w]
