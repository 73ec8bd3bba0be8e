"""Independent brute-force ground truth for the vertex enumeration.

The main path enumerates zero patterns in R^n; this oracle instead works in
the reduced space R^(n-d-1), converting the inequality description
{ c : tau + N c >= 0 } to vertices by the double-description method
(incremental halfspace insertion on homogenized integer rays).  Its own
primitive-row Gauss-Jordan loop on [V; 1^T | -(p; 1)] scaled to integers
gives the int rows g_i = L (N_i, tau_i) and the free columns, on which N's
rows are the unit vectors; insertion starts at a k-simplex that contains
the reduced polytope by construction, and each vertex lam = tau + N c is
carried as its primitive integer ray (a, D), lam = a / D.  For kernel
dimension <= 2 an active-set scan gives a second independent set of rays,
off integer cross products of the same rows with no elimination, and the
two sets must be equal; the sorted Fractions are built once, from them.
"""

import math
import operator
import random
from fractions import Fraction
from itertools import combinations

from . import linalg
from .coordinates import BarycentricVector
from .errors import (
    BarypolyError,
    InfeasibleError,
    InternalError,
    OracleMismatchError,
)
from .polytope import Polytope, validate
from .records import Record

_ZERO = Fraction(0)


class OracleResult(Record):
    _fields = (
        "vertices",          # coordinate vectors in R^n, sorted lexicographically
        "method",            # "DoubleDescription"
    )


def _reduced_system(p: Polytope, point) -> tuple:
    """(L, g, free): the int rows g_i = L (N_i, tau_i), off a fraction-free
    Gauss-Jordan loop on [V; 1^T | -(p; 1)] scaled to integers.

    Each column pivots on its first nonzero entry at or below the next pivot
    row; every other row r becomes a·r - r_c·top, a = top[c], over the gcd
    of its entries.  Pivot row r then holds a_r at its column c, 0 at the
    other pivot columns, and is a_r times row r of the RREF: with L the lcm
    of the a_r, g_c = -(L / a_r)·(the row's free and last entries); on the
    free columns tau is 0 and g_f = L e_j.  [V; 1^T] has full row rank, so
    every pivot lies left of the last column.
    """
    n = p.n
    _, rows = linalg.integer_rows([row + [-b] for row, b in
                                   zip(p.stacked_rows(), [*linalg.vec(point), 1])])
    m, lead = len(rows), []
    for c in range(n + 1):
        k = len(lead)
        if k == m:
            break
        i = next((i for i in range(k, m) if rows[i][c]), None)
        if i is None:
            continue
        rows[k], rows[i] = rows[i], rows[k]
        top, a = rows[k], rows[k][c]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != k:
                new = [a * x - f * y for x, y in zip(row, top)]
                div = math.gcd(*new) or 1
                rows[j] = [x // div for x in new]
        lead.append(c)
    if lead[-1] == n:
        raise InternalError("[V; 1^T] lacks full row rank")
    free = [c for c in range(n) if c not in lead]
    scale = math.lcm(*(row[c] for row, c in zip(rows, lead)))
    g = [[scale if j == i else 0 for j in free] + [0] for i in range(n)]
    for row, c in zip(rows, lead):
        s = -scale // row[c]
        g[c] = [s * row[f] for f in free] + [s * row[n]]
    return scale, g, free


def _primitive(ray) -> tuple:
    """ray divided by the gcd of its entries: canonical for a / D, D > 0."""
    div = math.gcd(*ray)
    return tuple(x // div for x in ray)


def _dd_reduced(scale, rows, free):
    """Vertices lam = tau + N c of { c : tau + N c >= 0 } by double description,
    from the int rows g_i = L (N_i, tau_i), L = ``scale`` > 0.

    Row free[j] of N is e_j, so lam >= 0, sum(lam) = 1 put every feasible c
    in the simplex lam_{free[j]} >= 0, sum_j lam_{free[j]} <= 1, for any
    particular solution tau.  Insertion starts at its corner lam0 = tau -
    N tau[free], the ray (L g_i[k] - sum_j g_i[j] g_{free[j]}[k], L^2), and at
    lam0 + N e_j, and runs over the other rows on integer rays (a, D),
    lam = a / D, whose value at row r has the sign of a[r]: the set of the
    vertices' primitive rays, empty when the system has no solution.
    """
    n, k = len(rows), len(free)
    shift = [rows[f][k] for f in free]
    corner = [scale * row[k] - sum(map(operator.mul, row, shift)) for row in rows]
    den = scale * scale
    rays = [_primitive((*corner, den))]
    rays += [_primitive((*(x + scale * row[j] for x, row in zip(corner, rows)), den))
             for j in range(k)]
    # active-set bitmasks: bit i for row i, bit n for the sum row, which is
    # tight at every simplex vertex but the corner
    tight = sum(1 << i for i in free)
    act = [tight] + [tight & ~(1 << i) | 1 << n for i in free]
    for r in sorted(set(range(n)).difference(free)):
        neg_idx = [j for j, ray in enumerate(rays) if ray[r] < 0]
        new_rays = []
        for i, pos in enumerate(rays):
            if pos[r] <= 0:
                continue
            for j in neg_idx:
                common = act[i] & act[j]
                on_face = sum(1 for m in act if (m & common) == common)
                if on_face != 2:
                    continue  # not an edge of the current polytope
                # a_i[r]·ray_j - a_j[r]·ray_i is 0 at row r and, as a positive
                # combination, has D > 0; gcd-reduced, it is the new vertex
                neg = rays[j]
                ray = [pos[r] * y - neg[r] * x for x, y in zip(pos, neg)]
                g = math.gcd(*ray)
                # the point is strictly inside the edge, where each earlier
                # row is linear and >= 0 at both ends: it is tight exactly on
                # the rows tight at both ends
                new_rays.append((tuple(x // g for x in ray), common | 1 << r))
        merged = {ray: m | (1 << r if ray[r] == 0 else 0)
                  for ray, m in zip(rays, act) if ray[r] >= 0}
        for ray, m in new_rays:
            merged[ray] = merged.get(ray, 0) | m
        rays = list(merged)
        act = [merged[ray] for ray in rays]
    return set(rays)


def _scan_reduced(scale, rows, k):
    """Active-set scan over k-subsets of tight rows (independent path, k <= 2).

    With the int rows g_i = L (N_i, tau_i), L = ``scale``, a subset's rows are
    tight at x ~ (c, 1): x = (1), (g_i1, -g_i0) or g_i x g_j for k = 0, 1, 2,
    where lam_r = g_r.x / (L x_k) and x_k = 0 marks a singular subset: the
    set of the lam >= 0 as primitive rays (a, D), as ``_dd_reduced`` gives.
    """
    rays = set()
    for subset in combinations(rows, k):
        if k < 2:
            x = (subset[0][1], -subset[0][0]) if k else (1,)
        else:
            (a0, a1, a2), (b0, b1, b2) = subset
            x = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        den = scale * x[-1]
        vals = [sum(map(operator.mul, g, x)) for g in rows]
        if den and all(v * den >= 0 for v in vals):
            common = math.gcd(den, *vals) if den > 0 else -math.gcd(den, *vals)
            rays.add((*(v // common for v in vals), den // common))
    return rays


def dd_vertices(p: Polytope, point) -> OracleResult:
    """Vertex set of the coordinate polytope via the reduced-space route.

    Raises InfeasibleError for points outside the polytope and
    OracleMismatchError if the two internal routes' sets of primitive rays
    differ (kernel dim k = n-d-1 <= 2).
    """
    scale, rows, free = _reduced_system(p, point)
    rays = _dd_reduced(scale, rows, free)
    if not rays:
        raise InfeasibleError("point is outside the polytope")
    if len(free) <= 2 and _scan_reduced(scale, rows, len(free)) != rays:
        raise OracleMismatchError("double description and active-set scan disagree")
    verts = sorted(tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray in rays)
    return OracleResult(vertices=tuple(verts), method="DoubleDescription")


def _sample_sums(verts, count: int, seed: int) -> list:
    """The sampler's integer core: ``count`` seeded convex combinations of the
    vertex list ``verts``, each as (s, T), the coordinate vector s / T.

    With L the lcm of the vertices' denominators and w the random integer
    weights, s_i is the sum of w x L·entry and T = (sum of w) x L > 0.
    """
    rng = random.Random(seed)
    den, cols = linalg.integer_rows(list(zip(*verts)))
    out = []
    for _ in range(count):
        raw = [rng.randint(0, 999) for _ in verts]
        if sum(raw) == 0:
            raw[0] = 1
        out.append(([sum(map(operator.mul, raw, col)) for col in cols], sum(raw) * den))
    return out


def random_feasible_sample(verts, point, count: int, seed: int) -> list:
    """Deterministic random convex combinations of the vertex list ``verts``
    of the coordinate polytope at ``point`` (e.g. ``dd_vertices(...).vertices``).

    Every output is exactly feasible (rational weights over exact vertices).
    """
    pt = linalg.vec(point)
    return [BarycentricVector(tuple(Fraction(x, total) for x in sums), pt)
            for sums, total in _sample_sums(verts, count, seed)]


def samples_feasible(p: Polytope, point, verts, count: int, seed: int) -> bool:
    """Whether the ``count`` seeded samples of ``verts`` (``_sample_sums``) are
    coordinate vectors of ``point``: s >= 0 and [V; 1^T]·s = (p; 1)·T, tested
    exactly on [V; 1^T | (p; 1)] scaled to integer rows."""
    _, rows = linalg.integer_rows([row + [b] for row, b in
                                   zip(p.stacked_rows(), [*linalg.vec(point), 1])])
    return all(min(sums) >= 0 and all(sum(map(operator.mul, row, sums)) == row[-1] * total
                                      for row in rows)
               for sums, total in _sample_sums(verts, count, seed))


def random_polytope(d: int, n: int, seed: int) -> Polytope:
    """Seeded random polytope: n rational points near the unit sphere in R^d.

    Points are resampled until validation passes (all vertices extreme, hull
    full-dimensional).  For d = 2 the vertices are sorted by angle so the
    index order walks the boundary.
    """
    rng = random.Random(seed)
    scale = 1 << 12
    for _ in range(100):
        pts = []
        for _ in range(n):
            raw = [rng.gauss(0.0, 1.0) for _ in range(d)]
            norm = linalg.float_sum(x * x for x in raw) ** 0.5
            if norm == 0:
                break
            pts.append(tuple(Fraction(round(x / norm * scale), scale) for x in raw))
        if len(pts) != n:
            continue
        if d == 2:
            pts.sort(key=lambda v: math.atan2(v[1], v[0]))
        else:
            pts.sort()
        rows = [[pt[l] for pt in pts] for l in range(d)]
        try:
            return validate(rows, d)
        except BarypolyError:
            continue
    raise RuntimeError(f"could not sample a valid polytope (d={d}, n={n})")


def random_interior_point(p: Polytope, rng: random.Random) -> tuple:
    """Exact interior point: strictly positive random combination of vertices."""
    raw = [rng.randint(1, 999) for _ in range(p.n)]
    total = sum(raw)
    return tuple(sum((r * v[l] for r, v in zip(raw, p.vertices)), _ZERO) / total
                 for l in range(p.d))
