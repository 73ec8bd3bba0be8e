"""Generalized barycentric coordinate sets.

For a point p inside a validated polytope the feasible coordinate vectors

    { lam >= 0 : V·lam = p, sum(lam) = 1 }

form a polytope of dimension at most n-d-1.  This module computes a feasible
basepoint tau(p), validation's kernel basis N of [V; 1^T], the simplicial
coordinates obtained by zeroing a prescribed index set, the full vertex list
of the coordinate polytope, and its reduced form { c : tau + N c >= 0 } in
kernel coordinates.  All arithmetic is exact; index sets are 1-based to match
the vertex order of the input file.

A zero pattern keeps d + 1 vertices K, and its coordinates are the simplicial
ones of K: by Cramer's rule the entry at k in K is a ratio of signed volumes,
f_{K∖k}(p) / f_{K∖k}(v_k), with f_S(x) = det[1 … 1 1; V_S x].  The numerator
depends only on the wall S = K∖k, the d vertices opposite k, an affine
function of p.  So a polytope's table holds C(n, d) walls, each an integer
cofactor vector built once, and one row per nonsingular pattern naming its
d + 1 walls, their signs and the denominator |f_{K∖k_0}(v_{k_0})|; at a
point every wall is read once, with integer multiply-adds, and every row is
a lookup.  The sign vector of the wall values is the point's chamber key.
Along a ray p + t·h every wall value is affine in t, so ``_ray_keys`` reads
each wall once at p and once along h, and each step once more on integers.

Lambda's vertices at a point are read in two passes.  The integer pass
(``_vertex_keys``) tells the feasible rows apart on gcd-reduced integer keys,
each with its vertex's support; the vertex count, dim Lambda and the n-d test
(``_census``) need nothing more, so census rows build no Fraction.
``_vertex_rows`` sorts the keys as dense int rows over one denominator, in
the Fraction order; the probes round those rows to floats, Γ reads them on
integers, and the Fraction pass (``_vertex_list``) builds the rationals
from them, only for vertices that are printed.
"""

import itertools
import math
from fractions import Fraction
from operator import index, itemgetter, mul

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
from .records import Record
from .simplex import convex_membership, feasible_point

_ZERO = Fraction(0)
_ONE = Fraction(1)
# the most zero patterns C(n, n-d-1) a pattern table is built for
MAX_PATTERNS = 100_000


class BarycentricVector(Record):
    """One feasible coordinate vector: V·lam = point, sum(lam) = 1, lam >= 0."""

    _fields = ("lam", "point")


class SimplicialCoordinate(Record):
    """Unique solution with the entries in ``zero_set`` (1-based) forced to 0."""

    _fields = ("zero_set", "sigma", "feasible")


class LambdaPolytope(Record):
    """Vertex description of the coordinate polytope at ``point``.

    ``theorem_count_match`` records whether the vertex count equals n-d (the
    classical prediction); it is measured, never assumed.  ``_rows`` is the
    integer pass's (M, rows) (``_vertex_rows``): the vertices as int rows
    over one denominator, in the same order, which ``gamma_polytope`` reads.
    """

    _fields = (
        "point",
        "vertices",                  # BarycentricVector, sorted lexicographically
        "vertex_supports",           # frozenset of 1-based indices per vertex
        "dim",
        "theorem_count_match",
        "_rows",
    )

    def vertex_arrays(self) -> list:
        return [v.lam for v in self.vertices]


class GammaPolytope(Record):
    """Reduced polytope { c : tau + N c >= 0 } in kernel coordinates."""

    _fields = (
        "tau",                       # BarycentricVector
        "nbasis",                    # n rows of length n-d-1
        "hrep_rows",                 # (coefficients, offset): offset + coeffs·c >= 0
        "vertices",                  # aligned 1:1 with the LambdaPolytope vertices
    )


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
    return BarycentricVector(tuple(lam), pt)


def circular_windows(n: int, d: int) -> list:
    """The n circular index windows {i, i+1, ..., i+n-d-2} (1-based, mod n)."""
    size = n - d - 1
    if size < 0:
        raise ValueError("need n > d")
    if size == 0:
        return []
    return [frozenset(((i + k) % n) + 1 for k in range(size)) for i in range(n)]


def _sigma(n, keep, xs, den) -> tuple:
    sigma = [_ZERO] * n
    for j, x in zip(keep, xs):
        sigma[j] = Fraction(x, den)
    return tuple(sigma)


def _patterns(p: Polytope) -> tuple:
    """(walls, rows): the one loop over zero patterns, on wall functionals.

    With L the lcm of the vertex denominators, the wall of d vertices S is
    the cofactor vector c_S of the rows (1, L·v_s), s in S
    (``linalg.cofactors``): f_S(x) = c_S·(1, L·x) = det[(1, L·x); (1, L·v_s)].
    ``walls`` lists w_S = (c_0, L·c_1, …, L·c_d) at S's id, so that
    w_S·(E, E·x) = E·f_S(x); an affinely dependent S (c_S = 0, possible from
    d = 4 on) gets no id.  ``rows`` maps each nonsingular zero set (1-based,
    lexicographic) to (zero set, keep, den, ids).  With keep k_0 < … < k_d,
    det = f_{keep∖k_0}(v_{k_0}) = det[1^T; L·V_keep] is 0 exactly when the
    pattern is singular; den = |det|, and ids[i] is the id w of the wall
    keep∖k_i, or ~w where sign(det)·(-1)^i is negative, so that
    sigma_keep[i](x) = ±f_{keep∖k_i}(x) / den (Cramer's rule).
    """
    scale, vrows = linalg.integer_rows(p.stacked_rows()[:-1])
    points = [(1, *col) for col in zip(*vrows)]
    cofactors = {}
    for s in itertools.combinations(range(p.n), p.d):
        c = linalg.cofactors([points[j] for j in s])
        if any(c):
            cofactors[s] = len(cofactors), c
    rows = {}
    # complements reverse the lexicographic order: the keep sets in falling
    # order pair with the zero sets in rising order
    zero_sets = itertools.combinations(range(1, p.n + 1), p.kernel_dim())
    keeps = reversed(list(itertools.combinations(range(p.n), p.d + 1)))
    for combo, keep in zip(zero_sets, keeps):
        first = cofactors.get(keep[1:])
        det = sum(map(mul, first[1], points[keep[0]])) if first else 0
        if det:
            opposite = [cofactors[keep[:i] + keep[i + 1:]][0]
                        for i in range(p.d + 1)]
            ids = tuple(w if (det > 0) == (i % 2 == 0) else ~w
                        for i, w in enumerate(opposite))
            rows[combo] = combo, list(keep), abs(det), ids
    walls = [(c[0], *(scale * x for x in c[1:])) for _, c in cofactors.values()]
    return walls, rows


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


def _table(p: Polytope) -> tuple:
    """(walls, rows) of _patterns(p), built once per ``p`` and kept on it.

    Each sigma_Z is affine on R^d, and its entry at k in keep is a ratio of
    wall values, f_{keep∖k}(x) / f_{keep∖k}(v_k), so C(n, d) walls carry
    every row: C(n, d) = C(n, d+1)·(d+1)/(n-d) <= (d+1)·MAX_PATTERNS.
    Raises PatternLimitError (``check_pattern_count``) before any wall is
    built.
    """
    table = p._pattern_table
    if not table:  # not built yet
        check_pattern_count(p.n, p.d)
        table[:] = _patterns(p)
    return table


def _evaluate(walls, rows, point):
    """Yield (zero set, keep, xs, den), sigma_keep = xs / den, for ``rows`` of
    the pattern table at ``point``, den > 0: with E the lcm of the point's
    denominators, each of ``walls`` is read once, w·(E, E·point) =
    E·f(point), and a row's xs are the values at its ids over den·E."""
    scale, (ints,) = linalg.integer_rows([point])
    vec = (scale, *ints)
    return _read_rows(rows, [sum(map(mul, wall, vec)) for wall in walls], scale)


def _read_rows(rows, vals, scale):
    """Yield (zero set, keep, xs, den·scale) for ``rows``, given the walls'
    values ``vals`` at a point, each ``scale`` > 0 times the wall's value:
    a row's xs are the values at its ids, negated at ~w."""
    vals = vals + [-v for v in reversed(vals)]  # vals[~w] = -vals[w]
    for combo, keep, den, ids in rows:
        yield combo, keep, itemgetter(*ids)(vals), den * scale


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
    walls, rows = _table(p)
    row = rows.get(tuple(sorted(zeros)))
    if row is None:
        raise SingularPatternError(
            f"columns outside {sorted(zeros)} are affinely dependent")
    # the row alone, on its own d + 1 walls
    combo, keep, den, ids = row
    own = [walls[w if w >= 0 else ~w] for w in ids]
    local = tuple(i if w >= 0 else ~i for i, w in enumerate(ids))
    (_, _, xs, den), = _evaluate(own, [(combo, keep, den, local)],
                                 linalg.vec(point))
    sigma = _sigma(p.n, keep, xs, den)
    return SimplicialCoordinate(zeros, sigma, min(xs) >= 0)


def _feasible_rows(p: Polytope, point):
    """(zero set, keep, xs, den) for every row of _table(p) whose
    sigma_keep = xs / den is feasible at ``point``, in table order."""
    walls, rows = _table(p)
    return _feasible(_evaluate(walls, rows.values(), point))


def _feasible(evaluated):
    """The rows of ``evaluated`` (``_read_rows``) whose xs / den is feasible,
    tested on plain ints (den > 0, every x >= 0) before any Fraction is
    built."""
    for combo, keep, xs, den in evaluated:
        if min(xs) >= 0:
            yield combo, keep, xs, den


def _vertex_keys(rows) -> dict:
    """The integer pass: {key: support} for the distinct vertices of Lambda
    among the feasible ``rows`` (zero set, keep, xs, den) of ``_feasible_rows``
    at one point.  With g the gcd of den and the xs, a vertex's key is
    (den/g, (j, x/g) for each x != 0), j 0-based: lam_j = (x/g) / (den/g).  It
    is canonical, so equal keys are equal vertices; the support is the set of
    1-based j in the key.  No Fraction is built."""
    keys = {}
    for _, keep, xs, den in rows:
        g = math.gcd(den, *xs)
        key = (den // g, *((j, x // g) for j, x in zip(keep, xs) if x))
        if key not in keys:
            keys[key] = frozenset(j + 1 for j, _ in key[1:])
    return keys


def _vertex_rows(n: int, keys) -> tuple:
    """(M, rows): each vertex of ``_vertex_keys`` as a dense row of n ints
    over M, the lcm of the keys' denominators, so that lam_j = row[j] / M;
    the rows sorted.  They share the denominator M > 0, so their order is
    the lexicographic order of the Fraction vertices."""
    scale = math.lcm(*(den for den, *_ in keys))
    rows = []
    for den, *entries in keys:
        row = [0] * n
        f = scale // den
        for j, x in entries:
            row[j] = x * f
        rows.append(row)
    rows.sort()
    return scale, rows


def _vertex_list(scale: int, rows) -> list:
    """The Fraction pass: (lam, support) per int row of ``_vertex_rows``
    over ``scale``, lam as the row's Fractions, in the rows' order."""
    pairs = []
    for row in rows:
        keep = [j for j, x in enumerate(row) if x]
        pairs.append((_sigma(len(row), keep, [row[j] for j in keep], scale),
                      frozenset(j + 1 for j in keep)))
    return pairs


def _vertices_at(p: Polytope, point) -> dict:
    """The integer pass at ``point``: the vertex keys of Lambda(point) over
    every feasible row of the table there."""
    return _vertex_keys(_feasible_rows(p, point))


def _ray_keys(p: Polytope, point, h, ts):
    """Yield the vertex keys of Lambda(point + t·h) for each positive
    rational t in ``ts``, read off p's table on integers.  Every wall value
    is affine along the ray: with E and F the lcms of the denominators of
    ``point`` and ``h``, at = w·(E, E·point) and slope = w[1:]·(F·h) are
    read once per wall, and at t = u/v the wall's value times E·v·F is
    at·v·F + slope·u·E.  The keys are gcd-canonical, so they are the ones
    ``_vertices_at`` reads at each point + t·h."""
    walls, rows = _table(p)
    e, (pt,) = linalg.integer_rows([point])
    f, (hv,) = linalg.integer_rows([h])
    at = [sum(map(mul, wall, (e, *pt))) for wall in walls]
    slope = [sum(map(mul, wall[1:], hv)) for wall in walls]
    for t in ts:
        a, b = t.denominator * f, t.numerator * e
        vals = [x * a + y * b for x, y in zip(at, slope)]
        yield _vertex_keys(_feasible(_read_rows(rows.values(), vals, e * a)))


def _census(p: Polytope, keys) -> tuple:
    """(vertex count, dim, whether the count is n - d) of Lambda at a point,
    from its vertex keys (``_vertex_keys``) alone; InfeasibleError when there
    are none, i.e. the point is outside.

    dim is k - rank N_out, N_out the rows of N (n x k) off S, the union of
    the vertex supports.  Lambda is zero off S and its vertices' barycentre is
    positive on S, so aff Lambda = {tau + N·c : N_out·c = 0}, and N has full
    column rank: |S| - 1 - dim aff{v_j : j in S} by rank-nullity.  At an
    interior point S is all of 1..n: N_out is empty, no elimination.
    """
    if not keys:
        raise InfeasibleError("point is outside the polytope")
    support = frozenset().union(*keys.values())
    outside = [row for j, row in enumerate(p._kernel_rows, 1) if j not in support]
    count = len(keys)
    return count, p.kernel_dim() - linalg.rank(outside), count == p.n - p.d


def is_interior(n: int, supports) -> bool:
    """Interior iff Lambda holds a lam > 0: iff its vertices' ``supports``
    (sets of 1-based indices) cover 1..n."""
    return len(frozenset().union(*supports)) == n


def lambda_vertices(p: Polytope, point) -> LambdaPolytope:
    """Enumerate the vertex set of the coordinate polytope at ``point``.

    Reads every nonsingular size-(n-d-1) zero pattern at ``point`` off the
    polytope's pattern table and keeps the distinct feasible solutions, told
    apart and sorted on integers (``_vertex_keys``, ``_vertex_rows``), then
    builds their Fractions from those int rows (``_vertex_list``), which the
    result keeps for ``gamma_polytope``.  A nonsingular pattern's support
    columns are affinely independent, so every feasible solution is a
    vertex.  Raises InfeasibleError when the point is outside and
    PatternLimitError when the polytope has too many zero patterns; ``dim``
    and the count are ``_census``'s, read off the keys.
    """
    pt = linalg.vec(point)
    keys = _vertices_at(p, pt)
    count, dim, match = _census(p, keys)
    rows = _vertex_rows(p.n, keys)
    ordered = _vertex_list(*rows)
    return LambdaPolytope(
        point=pt,
        vertices=tuple(BarycentricVector(lam, pt) for lam, _ in ordered),
        vertex_supports=tuple(support for _, support in ordered),
        dim=dim,
        theorem_count_match=match,
        _rows=rows,
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
    The test runs on integers: N is scaled by L to int rows g
    (``linalg.integer_rows``, unit rows L·e_j), tau by T to ints t, and the
    vertices are ``lam``'s int rows x over their common denominator M, so
    it reads g_i·x[u] - L·x_i times T against g_i·t[u] - L·t_i times M, and
    c_j = (x[u_j]·T - t[u_j]·M) / (M·T).
    Raises SingularMatrixError when N lacks one of the unit rows (a
    rank-deficient N always does) and InconsistentInputsError when some
    v - tau is outside the column span of N.
    """
    k = p.kernel_dim()
    rows = linalg.mat(nbasis_rows)
    scale, ints = linalg.integer_rows(rows)
    try:
        units = [ints.index([scale * (i == j) for i in range(k)]) for j in range(k)]
    except ValueError:
        raise SingularMatrixError(
            "kernel basis lacks a unit row e_j (nullbasis has all k)") from None
    others = [(row, i) for i, row in enumerate(ints) if i not in units]

    def residuals(x, f):
        nonzero = [(j, x[u]) for j, u in enumerate(units) if x[u]]
        return [f * sum((row[j] * a for j, a in nonzero), -scale * x[i])
                for row, i in others]

    den, xs = lam._rows
    tden, (t,) = linalg.integer_rows([tau.lam])
    base = residuals(t, den)
    gvertices = []
    for x in xs:
        if residuals(x, tden) != base:
            raise InconsistentInputsError(
                "vertex - tau is not in the column span of the kernel basis")
        gvertices.append(tuple(Fraction(x[u] * tden - t[u] * den, den * tden)
                               for u in units))
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
