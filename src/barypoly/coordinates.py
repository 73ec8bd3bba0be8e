"""Generalized barycentric coordinate sets.

For a point p inside a validated polytope the feasible coordinate vectors

    { lam >= 0 : V·lam = p, sum(lam) = 1 }

form a polytope of dimension at most n-d-1.  This module computes a feasible
basepoint tau(p), validation's kernel basis N of [V; 1^T], the simplicial
coordinates obtained by zeroing a prescribed index set, the full vertex list
of the coordinate polytope, and its reduced form { c : tau + N c >= 0 } in
kernel coordinates.  All arithmetic is exact; index sets are 1-based to match
the vertex order of the input file.

A zero pattern keeps d + 1 vertices K = (k_0 < … < k_d), and by Cramer's
rule its coordinates are (-1)^i·f_{K∖k_i}(p) / D, with f_S(x) =
det[1 … 1 1; V_S x] the value of the wall S, affine in p, and D their
signed sum, since the coordinates sum to 1.  A pattern is combinatorial, K
and the ids of its d + 1 walls (``_pattern_order``), and every point read
turns the C(n, d) wall values there into rows through one reader,
``_read_rows``; a zero set is the complement of K, which no row holds.  A
single-point read has one route, table or not: Lambda takes the values off
the vertices (``_wall_values``), streams the patterns and keeps nothing, and
``simplicial_coords`` reads its keep set's d + 1 as one cofactor vector.
Sweep rows and rays build the table: every wall as an integer cofactor
vector, built per (d-1)-vertex prefix by one elimination (``_walls``) and
read at a point with integer multiply-adds, and the nonsingular patterns'
rows.  The sign vector of the wall values is the point's chamber key.
A row's D has one sign at every point, that of its walls' signed constant
entries, so the row is feasible exactly where each of its d + 1 wall values
has the sign D gives it, or is 0.  The table keeps, per wall, int bitsets
of the rows that need its value >= 0 and of those that need it <= 0; a
table read ORs the sets that the point's signs rule out and runs the reader
over the rows left only (``_masked_rows``).  Off every wall those rows are
distinct vertices, and a census counts them (``_census_at``).
Along a ray p + t·h every wall value is affine in t, so ``_ray_keys`` reads
each wall once at p and once along h, and each step once more on integers.

Lambda's vertices at a point are read in two passes.  The integer pass
(``_vertex_keys``) tells the feasible rows apart on gcd-reduced integer keys,
each with its vertex's support; the vertex count, dim Lambda and the n-d test
(``_census``) need nothing more, so census rows build no Fraction.
``_vertex_rows`` sorts the keys as dense int rows over one denominator, in
the Fraction order; the probes round those rows to floats, Γ's integer core
(``_gamma_rows``) reads them on integers, and analyze writes its document
straight off them, one gcd per printed entry.  Only ``lambda_vertices`` and
``gamma_polytope``, thin wrappers over the same integer cores
(``_lambda_rows``, ``_gamma_rows``), build the rationals (``_vertex_list``),
for the callers that want Fractions.
"""

import itertools
import math
from fractions import Fraction
from operator import add, index, invert, itemgetter, mul, xor

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
from .polytope import Polytope, farkas_separator
from .records import Record
from .simplex import convex_membership, feasible_point

_ZERO = Fraction(0)
_ONE = Fraction(1)
# the most zero patterns C(n, n-d-1) a pattern table is built for
MAX_PATTERNS = 100_000
# a bin() digit string's translation to 0/1 bytes, which compress() reads
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class BarycentricVector(Record):
    """One feasible coordinate vector: V·lam = point, sum(lam) = 1, lam >= 0."""

    _fields = ("lam", "point")


class SimplicialCoordinate(Record):
    """Unique solution with the entries in ``zero_set`` (1-based) forced to 0."""

    _fields = ("zero_set", "sigma", "feasible")


class LambdaPolytope(Record):
    """Vertex description of the coordinate polytope at ``point``.

    ``theorem_count_match`` records whether the vertex count equals n-d (the
    classical prediction); it is measured, never assumed.
    """

    _fields = (
        "point",
        "vertices",                  # BarycentricVector, sorted lexicographically
        "vertex_supports",           # frozenset of 1-based indices per vertex
        "dim",
        "theorem_count_match",
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
    outside the polytope, with the separator read off the same phase one's
    Farkas certificate (``farkas_separator``), as ``locate`` reads it.
    """
    pt = p.as_point(point)
    lam, y = feasible_point(p.stacked_rows(), list(pt) + [_ONE])
    if lam is None:
        raise InfeasibleError("point is outside the polytope",
                              separator=farkas_separator(p, pt, y))
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


def _pattern_order(p: Polytope):
    """Yield (keep, ids) per zero pattern, the zero sets, the complements,
    in lexicographic order; ids[i] is the rank w of the wall keep∖k_i among
    the d-subsets, written ~w = w ^ -1 at odd i.  The keep sets fall, made
    one at a time as (f, *rest): f falls, and rest runs through the
    d-subsets above f in falling order, a prefix of those of 1..n-1.  As the
    rank of s_0 < … < s_{d-1} is C(n, d) - 1 - Σ_j C(n-1-s_j, d-j), the wall
    rest ranks C(n-1, d-1) above its rank among the d-subsets of 1..n-1, and
    (f, *rest∖rest_{i-1}) C(n-1, d) - C(n-1-f, d) above that of
    rest∖rest_{i-1} among the (d-1)-subsets of 1..n-1."""
    n, d, combinations = p.n, p.d, itertools.combinations
    low = dict(zip(combinations(range(1, n), d - 1), itertools.count())).__getitem__
    masks = [-((d - i) % 2) for i in range(d + 1)]
    rests = []
    for w, rest in enumerate(combinations(range(1, n), d), math.comb(n - 1, d - 1)):
        # combinations(rest, d - 1) drops rest_{d-1} first and rest_0 last
        ids = [*map(xor, [*map(low, combinations(rest, d - 1)), w], masks)]
        ids.reverse()
        rests.append((rest, ids))
    rests.reverse()
    # ~(w + s) = ~w - s: a shift adds s at even i > 0 and takes it at odd i
    signs = [0, *((-1) ** i for i in range(1, d + 1))]
    for f in range(n - d - 1, -1, -1):
        s = math.comb(n - 1, d) - math.comb(n - 1 - f, d)
        shift = [s * x for x in signs]
        # f = 0 comes last and shifts nothing: each rest's ids are handed out
        for rest, ids in itertools.islice(rests, math.comb(n - 1 - f, d)):
            yield (f, *rest), [*map(add, ids, shift)] if f else ids


def _wall_points(p: Polytope) -> tuple:
    """(L, points): L the lcm of the vertex denominators, and the int rows
    (1, L·v_s) whose cofactor vectors are the walls."""
    scale, vrows = linalg.integer_rows(p.stacked_rows()[:-1])
    return scale, [(1, *col) for col in zip(*vrows)]


def _wall(scale: int, c) -> tuple:
    """The wall w_S = (c_0, L·c_1, …, L·c_d) of a cofactor vector c_S."""
    return (c[0], *(scale * x for x in c[1:]))


def _walls(p: Polytope) -> list:
    """The walls, one per d-subset S in lexicographic order.

    With L the lcm of the vertex denominators, the wall of S is the cofactor
    vector c_S of the rows (1, L·v_s), s in S (``_wall_points``):
    f_S(x) = c_S·(1, L·x) = det[(1, L·x); (1, L·v_s)].  The list holds
    w_S = (c_0, L·c_1, …, L·c_d) at S's id, so that w_S·(E, E·x) = E·f_S(x);
    an affinely dependent S (possible from d = 4 on) keeps its zero vector.
    ``linalg.cofactor_pencil`` runs once per (d-1)-subset P of 0..n-2, in
    lexicographic order, C(n-1, d-1) eliminations in all, and gives
    c_{P+r} = ((k_g·r)·k_f - (k_f·r)·k_g) / D for every r > max P, rising,
    which is the d-subsets' lexicographic order; L is folded into k_f and
    k_g once per prefix.  A prefix of rank < d - 1 (possible from d = 5 on)
    gives zero walls.
    """
    scale, points = _wall_points(p)
    walls = []
    for prefix in itertools.combinations(range(p.n - 1), p.d - 1):
        kf, kg, den = linalg.cofactor_pencil([points[j] for j in prefix])
        lf, lg = _wall(scale, kf), _wall(scale, kg)
        for r in points[prefix[-1] + 1 if prefix else 0:]:
            a, b = sum(map(mul, kg, r)), sum(map(mul, kf, r))
            walls.append(tuple([(a * x - b * y) // den for x, y in zip(lf, lg)]))
    return walls


def _patterns(p: Polytope) -> tuple:
    """(walls, order, ge, le): the walls of ``_walls``, the row (keep, ids)
    of every nonsingular zero pattern of ``_pattern_order`` listed in that
    order, and the row signs as int bitsets, bit r for row r of ``order``.

    A row's Cramer sum, which ``_read_rows`` takes as its denominator, is
    ±E·det[1^T; V_keep] at every point: the x parts of its signed walls
    cancel, so its sign is that of the signed sum of their constant entries
    c_0, a constant of the table, 0 for a singular pattern, which is never
    read.  A row is feasible where each of its xs, the values at its ids
    (-f_w at ~w), has its sum's sign or is 0, so each wall w has two sets:
    ge[w] the rows that need f_w >= 0, and le[w] those that need
    -f_w >= 0, i.e. f_w <= 0.
    """
    walls = _walls(p)
    consts = [wall[0] for wall in walls]
    consts += [-c for c in reversed(consts)]  # consts[~w] = -consts[w]
    # needs[id] for a row's ids, as the reader indexes values: ge at w, le at ~w
    order, needs = [], [0] * len(consts)
    for keep, ids in _pattern_order(p):
        sign = sum(map(consts.__getitem__, ids))
        if sign:
            bit = 1 << len(order)
            order.append((keep, ids))
            for w in ids if sign > 0 else map(invert, ids):
                needs[w] |= bit
    half = len(walls)  # le[w] = needs[~w]
    return walls, order, needs[:half], needs[half:][::-1]


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
    """(walls, order, ge, le) of _patterns(p), built once per ``p`` and kept on it.

    Each sigma_Z is affine on R^d, and its entries are signed wall values
    over their sum (``_read_rows``), so C(n, d) walls carry every row:
    C(n, d) = C(n, d+1)·(d+1)/(n-d) <= (d+1)·MAX_PATTERNS.
    Raises PatternLimitError (``check_pattern_count``) before any wall is
    built.
    """
    table = p._pattern_table
    if not table:  # not built yet
        check_pattern_count(p.n, p.d)
        table[:] = _patterns(p)
    return table


def _evaluate(walls, point) -> list:
    """Every one of ``walls``' values at ``point``: with E the lcm of the
    point's denominators, w·(E, E·point) = E·f(point)."""
    scale, (ints,) = linalg.integer_rows([point])
    vec = (scale, *ints)
    return [sum(map(mul, wall, vec)) for wall in walls]


def _read_rows(rows, vals):
    """The one reader: yield (keep, xs, den), sigma_keep = xs / den,
    for ``rows`` of ``_pattern_order``, given every wall's value at a point,
    each the same positive multiple of f_S there.  The xs are the values at
    the row's ids, negated at ~w, and den = sum(xs), a multiple of
    det[1^T; V_keep] at every point: a singular row (den == 0) is skipped,
    and where den < 0 every sign flips."""
    vals = vals + [-v for v in reversed(vals)]  # vals[~w] = -vals[w]
    negated = vals[::-1]  # negated[w] = -vals[w]
    for keep, ids in rows:
        read = itemgetter(*ids)
        xs = read(vals)
        den = sum(xs)
        if den > 0:
            yield keep, xs, den
        elif den:
            yield keep, read(negated), -den


def _survivors(table, vals) -> int:
    """The bitset of the rows of ``table`` (``_table``) that are feasible
    given every wall's value at a point, ``vals``: all rows less those that
    need f_w >= 0 at a wall whose value is negative, or f_w <= 0 at one
    whose value is positive.  A value of 0 rules out no row."""
    _, order, ge, le = table
    ruled = 0
    for v, need_ge, need_le in zip(vals, ge, le):
        if v < 0:
            ruled |= need_ge
        elif v:
            ruled |= need_le
    return ((1 << len(order)) - 1) & ~ruled


def _masked_rows(table, vals):
    """``_read_rows`` over the rows of ``table`` that ``_survivors`` leaves
    at ``vals``, in table order: every one is feasible."""
    # the binary digits from bit 0 on, as 0/1 bytes: one linear pass
    bits = bin(_survivors(table, vals))[:1:-1].encode().translate(_BIT_BYTES)
    return _read_rows(itertools.compress(table[1], bits), vals)


def _wall_values(vertices, point) -> list:
    """Every wall's value at ``point``, one per d-subset S of the n
    ``vertices`` in lexicographic order: det[L′·(v_s - point)], s in S, L′ the lcm of the
    denominators of the vertices and the point.  That is L′^d·f_S(point)
    (subtract the row (1, point) from each (1, v_s)), 0 for an affinely
    dependent S.  Each determinant is expanded along its last row:
    ``linalg.cofactors`` runs once per (d-1)-vertex prefix, and every wall
    that extends the prefix costs one integer dot, so C(n-1, d-1)
    eliminations of (d-1) x d rows, as many as the table's ``_walls`` runs
    on (d-1) x (d+1) rows.  No Fraction is built."""
    d = len(point)
    _, (*verts, pt) = linalg.integer_rows([*vertices, point])
    us = [[x - y for x, y in zip(v, pt)] for v in verts]
    vals = []
    for prefix in itertools.combinations(range(len(us) - 1), d - 1):
        # c·u = det[u; prefix] = (-1)^(d-1)·det[prefix; u]
        c = linalg.cofactors([us[j] for j in prefix])
        if d % 2 == 0:
            c = [-x for x in c]
        vals += [sum(map(mul, c, u)) for u in us[prefix[-1] + 1 if prefix else 0:]]
    return vals


def simplicial_coords(p: Polytope, point, zero_set) -> SimplicialCoordinate:
    """The coordinates of ``point`` with ``zero_set`` (n-d-1 integers in 1..n,
    else ValueError) forced to zero; SingularPatternError when the
    complementary columns are affinely dependent.

    Cramer's rule on the complement K = (k_0 < … < k_d), with no table: for
    u_k = L′·(v_k - point) as ints, L′ the lcm of the denominators, and c the
    cofactor vector of the d x (d+1) rows with columns u_{k_j}, sigma_{k_j}
    is c_j / sum(c).  c_j = (-1)^j·det[u_s], s in K∖k_j, is the value of the
    wall K∖k_j, and sum(c) = L′^d·det[1^T; V_K] is 0 exactly where K is
    affinely dependent; a negative sum flips every sign."""
    try:
        zeros = frozenset(map(index, zero_set))
    except TypeError as exc:
        raise ValueError(f"zero set entries must be integers: {exc}") from exc
    if not all(1 <= j <= p.n for j in zeros):
        raise ValueError(f"zero set entries must lie in 1..{p.n}")
    if len(zeros) != p.kernel_dim():
        raise ValueError(
            f"zero set must have size n-d-1 = {p.kernel_dim()}, got {len(zeros)}")
    pt = p.as_point(point)
    keep = [j for j in range(p.n) if j + 1 not in zeros]
    _, (*verts, x) = linalg.integer_rows([*(p.vertices[j] for j in keep), pt])
    xs = linalg.cofactors([[v[l] - x[l] for v in verts] for l in range(p.d)])
    den = sum(xs)
    if not den:
        raise SingularPatternError(f"columns outside {sorted(zeros)} are affinely dependent")
    if den < 0:
        xs, den = [-c for c in xs], -den
    return SimplicialCoordinate(zeros, _sigma(p.n, keep, xs, den), min(xs) >= 0)


def _feasible_rows(p: Polytope, point):
    """(keep, xs, den) for every row of _table(p) whose
    sigma_keep = xs / den is feasible at ``point``, in table order: the
    reader reads only the rows that the wall values' signs leave
    (``_masked_rows``), since each row's denominator has a fixed sign and
    its xs are its walls' values signed as it."""
    table = _table(p)
    return _masked_rows(table, _evaluate(table[0], point))


def _feasible(evaluated):
    """The rows of ``evaluated`` (``_read_rows``) whose xs / den is feasible,
    tested on plain ints (den > 0, every x >= 0) before any Fraction is
    built."""
    for keep, xs, den in evaluated:
        if min(xs) >= 0:
            yield keep, xs, den


def _vertex_keys(rows) -> dict:
    """The integer pass: {key: support} for the distinct vertices of Lambda
    among the feasible ``rows`` (keep, xs, den) of ``_feasible_rows``
    at one point.  With g the gcd of den and the xs, a vertex's key is
    (den/g, (j, x/g) for each x != 0), j 0-based: lam_j = (x/g) / (den/g).  It
    is canonical, so equal keys are equal vertices; the support is the set of
    1-based j in the key.  No Fraction is built."""
    keys = {}
    for keep, xs, den in rows:
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
    """The integer pass at ``point``, table or not: the vertex keys of
    Lambda(point) over the feasible rows that ``_read_rows`` reads off the wall
    values there (``_wall_values``), streamed from ``_pattern_order``, building
    nothing.  Raises PatternLimitError (``check_pattern_count``) before any value."""
    check_pattern_count(p.n, p.d)
    return _vertex_keys(_feasible(_read_rows(_pattern_order(p),
                                             _wall_values(p.vertices, point))))


def _ray_keys(p: Polytope, point, h, ts):
    """Yield the vertex keys of Lambda(point + t·h) for each positive
    rational t in ``ts``, read off p's table on integers.  Every wall value
    is affine along the ray: with E and F the lcms of the denominators of
    ``point`` and ``h``, at = w·(E, E·point) and slope = w[1:]·(F·h) are
    read once per wall, and at t = u/v the wall's value times E·v·F is
    at·v·F + slope·u·E, which ``_masked_rows`` reads as it reads any point's.
    The keys are gcd-canonical, so they are the ones ``_vertices_at`` reads
    at each point + t·h."""
    table = _table(p)
    walls = table[0]
    e, (pt,) = linalg.integer_rows([point])
    f, (hv,) = linalg.integer_rows([h])
    at = [sum(map(mul, wall, (e, *pt))) for wall in walls]
    slope = [sum(map(mul, wall[1:], hv)) for wall in walls]
    for t in ts:
        a, b = t.denominator * f, t.numerator * e
        vals = [x * a + y * b for x, y in zip(at, slope)]
        yield _vertex_keys(_masked_rows(table, vals))


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


def _census_at(p: Polytope, point) -> tuple:
    """``_census`` of Lambda at ``point``, read off p's table with the walls
    evaluated once.  Where no wall value is 0 every surviving row
    (``_survivors``) has d + 1 positive entries, its own support, so the
    rows are distinct vertices, and the point is inside P only if it is
    interior (a facet lies on the wall of d of its vertices): the census is
    (survivors, n - d - 1, survivors == n - d), InfeasibleError when none
    survive, with no key built.  On a wall it reads the surviving rows'
    vertex keys (``_vertex_keys``)."""
    table = _table(p)
    vals = _evaluate(table[0], point)
    if all(vals):
        count = _survivors(table, vals).bit_count()
        if not count:
            raise InfeasibleError("point is outside the polytope")
        return count, p.kernel_dim(), count == p.n - p.d
    return _census(p, _vertex_keys(_masked_rows(table, vals)))


def is_interior(n: int, supports) -> bool:
    """Interior iff Lambda holds a lam > 0: iff its vertices' ``supports``
    (sets of 1-based indices) cover 1..n."""
    return len(frozenset().union(*supports)) == n


def lambda_vertices(p: Polytope, point) -> LambdaPolytope:
    """Enumerate the vertex set of the coordinate polytope at ``point``: the
    Fractions (``_vertex_list``) of ``_lambda_rows``' int rows, which the
    result does not keep.  Raises InfeasibleError when the
    point is outside and PatternLimitError when the polytope has too many
    zero patterns.
    """
    pt = p.as_point(point)
    _, (_, dim, match), rows = _lambda_rows(p, pt)
    ordered = _vertex_list(*rows)
    return LambdaPolytope(
        point=pt,
        vertices=tuple(BarycentricVector(lam, pt) for lam, _ in ordered),
        vertex_supports=tuple(support for _, support in ordered),
        dim=dim,
        theorem_count_match=match,
    )


def _lambda_rows(p: Polytope, pt) -> tuple:
    """The integer core of ``lambda_vertices`` at the exact point ``pt``:
    (keys, census, (M, rows)), the vertex keys and supports of the feasible
    nonsingular zero patterns there (``_vertices_at``), their ``_census``,
    and ``_vertex_rows``' int rows in the Fraction order.  A nonsingular
    pattern's support columns are affinely independent, so every feasible
    solution is a vertex."""
    keys = _vertices_at(p, pt)
    return keys, _census(p, keys), _vertex_rows(p.n, keys)


def gamma_polytope(p: Polytope, tau: BarycentricVector, nbasis_rows,
                   lam: LambdaPolytope) -> GammaPolytope:
    """Reduced polytope of ``lam`` in the kernel coordinates of ``nbasis_rows``:
    the Fractions of ``_gamma_rows``' int rows, which raises its errors.
    ``lam``'s vertices, scaled by the lcm of their reduced denominators
    (``linalg.integer_rows``), are ``_vertex_rows``' (M, rows), in order."""
    rows = linalg.mat(nbasis_rows)
    den, gvertices = _gamma_rows(p.kernel_dim(), rows, tau.lam,
                                 linalg.integer_rows(lam.vertex_arrays()))
    hrep = tuple((tuple(row), tau.lam[j]) for j, row in enumerate(rows))
    return GammaPolytope(
        tau=tau,
        nbasis=tuple(tuple(r) for r in rows),
        hrep_rows=hrep,
        vertices=tuple(tuple(Fraction(x, den) for x in row) for row in gvertices),
    )


def _gamma_rows(k: int, rows, tau_lam, lam_rows) -> tuple:
    """The integer core of ``gamma_polytope``: (M·T, Γ's vertices as int rows
    over M·T), in the order of ``lam_rows``, the (M, rows) of Lambda's
    vertices (``_vertex_rows``), for the kernel basis ``rows`` (n Fraction
    rows of length k) and tau's entries ``tau_lam``.

    ``nullbasis`` reads N off the RREF's free columns, so N has a row
    u_j equal to e_j for each j = 1..k, and the only solution of
    N·c = v - tau is c_j = (v - tau)[u_j]: no elimination.  On the unit rows
    N·c = v - tau holds by construction, so consistency is tested on the
    d + 1 other rows i only, as N_i·v[u] - v_i == N_i·tau[u] - tau_i, over
    the nonzero entries of v[u] (a vertex of Lambda has at most d + 1).
    The test runs on integers: N is scaled by L to int rows g
    (``linalg.integer_rows``, unit rows L·e_j), tau by T to ints t, and the
    vertices are int rows x over their common denominator M, so it reads
    g_i·x[u] - L·x_i times T against g_i·t[u] - L·t_i times M, and
    c_j = (x[u_j]·T - t[u_j]·M) / (M·T).
    Raises SingularMatrixError when N lacks one of the unit rows (a
    rank-deficient N always does) and InconsistentInputsError when some
    v - tau is outside the column span of N.
    """
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

    den, xs = lam_rows
    tden, (t,) = linalg.integer_rows([tau_lam])
    base = residuals(t, den)
    shifts = [t[u] * den for u in units]
    gvertices = []
    for x in xs:
        if residuals(x, tden) != base:
            raise InconsistentInputsError(
                "vertex - tau is not in the column span of the kernel basis")
        gvertices.append([x[u] * tden - y for u, y in zip(units, shifts)])
    return den * tden, gvertices


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
