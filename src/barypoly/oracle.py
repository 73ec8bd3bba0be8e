"""Independent brute-force ground truth for the vertex enumeration.

The main path enumerates zero patterns in R^n; this oracle instead works in
the reduced space R^(n-d-1), converting the inequality description
{ c : tau + N c >= 0 } to vertices by the double-description method
(incremental halfspace insertion over exact rationals).  tau and N come from
one exact kernel basis, and insertion starts at a k-simplex that contains
the reduced polytope by construction.  For kernel dimension <= 2 a direct
active-set scan over tight rows provides a second independent path and the
two must agree.
"""

import math
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
    SingularMatrixError,
)
from .polytope import Polytope, validate

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class OracleResult:
    vertices: tuple          # coordinate vectors in R^n, sorted lexicographically
    method: str              # "DoubleDescription"


def _row_value(coeffs, offset, c):
    return offset + linalg.dot(coeffs, c)


def _reduced_system(p: Polytope, point) -> tuple:
    """(tau, N) from one kernel basis of [V; 1^T | -(p; 1)].

    [V; 1^T] has full row rank, so the last column is free, with basis
    vector (tau, 1): [V; 1^T] tau = [p; 1], tau 0 on the free columns.  The
    other basis vectors end in 0 and are the columns of ``nullbasis``.
    """
    rhs = list(linalg.vec(point)) + [_ONE]
    *cols, last = linalg.nullspace_basis(
        [row + [-b] for row, b in zip(p.stacked_rows(), rhs)])
    if last[p.n] != 1:
        raise InternalError("[V; 1^T] lacks full row rank")
    return last[:p.n], [[col[i] for col in cols] for i in range(p.n)]


def _dd_reduced(nbasis_rows, tau_lam, k):
    """Vertices of { c in R^k : tau + N c >= 0 } by double description.

    Some row i_j of N is e_j, so c_j = lam_{i_j} - tau_{i_j}, and lam >= 0,
    sum(lam) = 1 put every feasible c in the simplex c_j >= -tau_{i_j},
    sum_j (c_j + tau_{i_j}) <= 1, for any particular solution tau.
    Insertion starts at its k + 1 vertices and runs over the other rows; an
    empty result means the system has no solution.
    """
    rows = [tuple(r) for r in nbasis_rows]
    try:
        units = [rows.index(tuple(int(i == j) for i in range(k))) for j in range(k)]
    except ValueError:
        raise InternalError("kernel basis lacks a unit row") from None
    # active-set bitmasks: bit i for row i, bit n for the sum row, which is
    # tight at every simplex vertex but the corner
    corner = tuple(-tau_lam[i] for i in units)
    verts = [corner] + [corner[:j] + (corner[j] + 1,) + corner[j + 1:]
                        for j in range(k)]
    tight = sum(1 << i for i in units)
    act = [tight] + [tight & ~(1 << i) | 1 << len(rows) for i in units]
    for r, (coeffs, off) in enumerate(zip(rows, tau_lam)):
        if r in units:
            continue
        vals = [_row_value(coeffs, off, v) for v in verts]
        keep_idx = [i for i, val in enumerate(vals) if val >= 0]
        neg_idx = [i for i, val in enumerate(vals) if val < 0]
        new_pts = []
        pos_idx = [i for i in keep_idx if vals[i] > 0]
        for i in pos_idx:
            for j in neg_idx:
                common = act[i] & act[j]
                on_face = sum(1 for m in act if (m & common) == common)
                if on_face != 2:
                    continue  # not an edge of the current polytope
                t = vals[i] / (vals[i] - vals[j])
                pt = tuple(a + t * (b - a) for a, b in zip(verts[i], verts[j]))
                # pt is strictly inside the edge, where each earlier row is
                # linear and >= 0 at both ends: it is tight exactly on the
                # rows tight at both ends
                new_pts.append((pt, common | 1 << r))
        merged = {verts[i]: act[i] | (1 << r if vals[i] == 0 else 0)
                  for i in keep_idx}
        for pt, m in new_pts:
            merged[pt] = merged.get(pt, 0) | m
        verts = list(merged)
        act = [merged[v] for v in verts]
    return sorted(verts)


def _scan_reduced(nbasis_rows, tau_lam, k):
    """Active-set scan over k-subsets of tight rows (independent path, k <= 2)."""
    if k == 0:
        return [()]
    rows = [(tuple(r), t) for r, t in zip(nbasis_rows, tau_lam)]
    out = set()
    for subset in combinations(range(len(rows)), k):
        sys_rows = [list(rows[i][0]) for i in subset]
        rhs = [-rows[i][1] for i in subset]
        try:
            c = linalg.solve_linear(sys_rows, rhs)
        except SingularMatrixError:
            continue
        if all(_row_value(co, off, c) >= 0 for co, off in rows):
            out.add(tuple(c))
    return sorted(out)


def dd_vertices(p: Polytope, point) -> OracleResult:
    """Vertex set of the coordinate polytope via the reduced-space route.

    Raises InfeasibleError for points outside the polytope and
    OracleMismatchError if the two internal routes disagree (kernel dim <= 2).
    """
    tau, nb = _reduced_system(p, point)
    k = p.kernel_dim()
    reduced = _dd_reduced(nb, tau, k)
    if not reduced:
        raise InfeasibleError("point is outside the polytope")
    if k <= 2:
        scan = _scan_reduced(nb, tau, k)
        if scan != reduced:
            raise OracleMismatchError(
                "double description and active-set scan disagree")
    verts = sorted(tuple(t + linalg.dot(row, c) for t, row in zip(tau, nb))
                   for c in reduced)
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
    out = []
    for _ in range(count):
        raw = [rng.randint(0, 999) for _ in verts]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        lam = tuple(sum((r * x for r, x in zip(raw, col)), _ZERO) / total
                    for col in zip(*verts))
        out.append(BarycentricVector(lam=lam, point=linalg.vec(point)))
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
            norm = sum(x * x for x in raw) ** 0.5
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
