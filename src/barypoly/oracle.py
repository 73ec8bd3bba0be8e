"""Independent brute-force ground truth for the vertex enumeration.

The main path enumerates zero patterns in R^n; this oracle instead works in
the reduced space R^(n-d-1), converting the inequality description
{ c : tau + N c >= 0 } to vertices by the double-description method
(incremental halfspace insertion on homogenized integer rays).  One RREF of
[V; 1^T | -(p; 1)] gives tau, N and the free columns, on which N's rows are
the unit vectors; insertion starts at a k-simplex that contains the reduced
polytope by construction, and each vertex lam = tau + N c is carried as its
primitive integer ray (a, D), lam = a / D, until the sorted output.  For
kernel dimension <= 2 an active-set scan provides a second independent path,
reading each subset's tight point off integer cross products of the same
rows with no elimination, and the two must agree.
"""

import math
import operator
import random
from dataclasses import dataclass
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class OracleResult:
    vertices: tuple          # coordinate vectors in R^n, sorted lexicographically
    method: str              # "DoubleDescription"


def _reduced_system(p: Polytope, point) -> tuple:
    """(tau, N, free) from one RREF R of [V; 1^T | -(p; 1)].

    [V; 1^T] has full row rank, so every pivot lies left of the last column.
    Pivot row r with pivot column c gives tau[c] = -R[r][n] and
    N[c] = -R[r][free]; on the free columns tau is 0 and N's rows are e_j.
    """
    rhs = list(linalg.vec(point)) + [_ONE]
    red, pivots = linalg.rref([row + [-b] for row, b in zip(p.stacked_rows(), rhs)])
    if pivots[-1] == p.n:
        raise InternalError("[V; 1^T] lacks full row rank")
    free = [c for c in range(p.n) if c not in pivots]
    tau = [_ZERO] * p.n
    nb = [[_ONE if j == i else _ZERO for j in free] for i in range(p.n)]
    for r, c in enumerate(pivots):
        tau[c] = -red[r][p.n]
        nb[c] = [-red[r][f] for f in free]
    return tau, nb, free


def _ray(lam) -> tuple:
    """The primitive integer ray (a_0, ..., a_{n-1}, D) of lam = a / D: D is
    the lcm of lam's denominators, so D > 0 and gcd(a, D) = 1, which makes
    the tuple canonical for lam."""
    den, (nums,) = linalg.integer_rows([lam])
    return (*nums, den)


def solves(rows, lam) -> bool:
    """Whether lam >= 0 and v.lam = b for each integer row (v; b), tested
    exactly on lam's ray (a, D): a >= 0 and v.a = b D."""
    *a, den = _ray(lam)
    return min(a) >= 0 and all(sum(map(operator.mul, row, a)) == row[-1] * den
                               for row in rows)


def _dd_reduced(tau, nbasis_rows, free):
    """Vertices lam = tau + N c of { c : tau + N c >= 0 } by double description.

    Row free[j] of N is e_j, so lam >= 0, sum(lam) = 1 put every feasible c
    in the simplex lam_{free[j]} >= 0, sum_j lam_{free[j]} <= 1, for any
    particular solution tau.  Insertion starts at its corner lam0 = tau -
    N tau[free] and at lam0 + N e_j, and runs over the other rows on integer
    rays (a, D), lam = a / D, whose value at row r has the sign of a[r]; an
    empty result means the system has no solution.
    """
    n = len(tau)
    shift = [tau[f] for f in free]
    corner = tuple(t - linalg.dot(row, shift) for t, row in zip(tau, nbasis_rows))
    rays = [_ray(corner)] + [_ray([x + row[j] for x, row in zip(corner, nbasis_rows)])
                             for j in range(len(free))]
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
    return sorted(tuple(Fraction(x, ray[n]) for x in ray[:n]) for ray in rays)


def _scan_reduced(tau, nbasis_rows, k):
    """Active-set scan over k-subsets of tight rows (independent path, k <= 2).

    With rows g_i = L (N_i, tau_i) scaled to integers, a subset's rows are
    tight at x ~ (c, 1): x = (1), (g_i1, -g_i0) or g_i x g_j for k = 0, 1, 2,
    where lam_r = g_r.x / (L x_k) and x_k = 0 marks a singular subset.  Each
    lam >= 0 is kept as its primitive integer ray until the sorted output.
    """
    scale, rows = linalg.integer_rows([[*row, t] for row, t in zip(nbasis_rows, tau)])
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
            rays.add((den // common, *(v // common for v in vals)))
    return sorted(tuple(Fraction(v, den) for v in vals) for den, *vals in rays)


def dd_vertices(p: Polytope, point) -> OracleResult:
    """Vertex set of the coordinate polytope via the reduced-space route.

    Raises InfeasibleError for points outside the polytope and
    OracleMismatchError if the two internal routes disagree (kernel dim <= 2).
    """
    tau, nb, free = _reduced_system(p, point)
    verts = _dd_reduced(tau, nb, free)
    if not verts:
        raise InfeasibleError("point is outside the polytope")
    if len(free) <= 2 and _scan_reduced(tau, nb, len(free)) != verts:
        raise OracleMismatchError("double description and active-set scan disagree")
    return OracleResult(vertices=tuple(verts), method="DoubleDescription")


def vertices_agree(a, b) -> bool:
    """Exact set equality of two coordinate-vector collections."""
    return set(a) == set(b)


def random_feasible_sample(verts, point, count: int, seed: int) -> list:
    """Deterministic random convex combinations of the vertex list ``verts``
    of the coordinate polytope at ``point`` (e.g. ``dd_vertices(...).vertices``).

    Every output is exactly feasible (rational weights over exact vertices).
    """
    rng = random.Random(seed)
    # with L the lcm of the vertices' denominators, a coordinate is
    # (sum of weight x L·entry) / (weight total x L): one Fraction each
    den, cols = linalg.integer_rows(list(zip(*verts)))
    pt = linalg.vec(point)
    out = []
    for _ in range(count):
        raw = [rng.randint(0, 999) for _ in verts]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw) * den
        lam = tuple(Fraction(sum(map(operator.mul, raw, col)), total) for col in cols)
        out.append(BarycentricVector(lam=lam, point=pt))
    return out


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
