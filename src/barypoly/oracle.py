"""Independent brute-force ground truth for the vertex enumeration.

The main path enumerates zero patterns in R^n; this oracle instead works in
the reduced space R^(n-d-1), converting the inequality description
{ c : tau + N c >= 0 } to vertices by the double-description method
(incremental halfspace insertion over exact rationals, inside a strictly
larger bounding box).  For kernel dimension <= 2 a direct active-set scan
over tight rows provides a second independent path and the two must agree.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import linalg
from .coordinates import BarycentricVector, feasible_tau, nullbasis
from .errors import (
    BarypolyError,
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
    method: str              # "DoubleDescription" | "PatternScan"
    agreement: bool | None = None


def _row_value(coeffs, offset, c):
    return offset + linalg.dot(coeffs, c)


def _bounding_rows(nbasis_rows, k):
    """Box |c_j| <= M_j strictly containing the reduced polytope.

    Any feasible lam lies in [0,1]^n, so N c = lam - tau has entries in
    [-1, 1]; pushing through the exact pseudoinverse bounds each c_j.
    """
    nt = linalg.transpose(nbasis_rows)
    gram = linalg.mat_mul(nt, nbasis_rows)
    # the RREF of [N^T N | N^T] is [I | (N^T N)^-1 N^T]
    red, pivots = linalg.rref([g + row for g, row in zip(gram, nt)])
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError("kernel basis lacks full column rank")
    bounds = [sum((abs(x) for x in row[k:]), _ZERO) + 1 for row in red]
    rows = []
    for j in range(k):
        plus = tuple(_ONE if i == j else _ZERO for i in range(k))
        minus = tuple(-_ONE if i == j else _ZERO for i in range(k))
        rows.append((plus, bounds[j]))   # c_j >= -M_j
        rows.append((minus, bounds[j]))  # c_j <= M_j
    corners = []
    for signs in product((-1, 1), repeat=k):
        corners.append(tuple(s * bounds[j] for j, s in enumerate(signs)))
    return rows, corners


def _dd_reduced(nbasis_rows, tau_lam, k):
    """Vertices of { c in R^k : tau + N c >= 0 } by double description."""
    if k == 0:
        return [()]
    box_rows, verts = _bounding_rows(nbasis_rows, k)
    rows = list(box_rows) + [(tuple(r), t) for r, t in zip(nbasis_rows, tau_lam)]
    nbox = len(box_rows)
    # active-set bitmasks over the rows processed so far
    act = []
    for v in verts:
        mask = 0
        for r in range(nbox):
            if _row_value(rows[r][0], rows[r][1], v) == 0:
                mask |= 1 << r
        act.append(mask)
    for r in range(nbox, len(rows)):
        coeffs, off = rows[r]
        vals = [_row_value(coeffs, off, v) for v in verts]
        keep_idx = [i for i, val in enumerate(vals) if val >= 0]
        neg_idx = [i for i, val in enumerate(vals) if val < 0]
        if not neg_idx:
            for i in keep_idx:
                if vals[i] == 0:
                    act[i] |= 1 << r
            continue
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
        merged = {}
        for i in keep_idx:
            m = act[i] | (1 << r) if vals[i] == 0 else act[i]
            merged[verts[i]] = m
        for pt, m in new_pts:
            merged[pt] = merged.get(pt, 0) | m
        verts = list(merged)
        act = [merged[v] for v in verts]
        if not verts:
            raise InternalError("reduced polytope lost the origin")
    box_mask = (1 << nbox) - 1
    if any(m & box_mask for m in act):
        raise OracleMismatchError("bounding box was not strict")
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
    tau = feasible_tau(p, point)
    nb = nullbasis(p)
    k = p.kernel_dim()
    reduced = _dd_reduced(nb, tau.lam, k)
    if k <= 2:
        scan = _scan_reduced(nb, tau.lam, k)
        if scan != reduced:
            raise OracleMismatchError(
                "double description and active-set scan disagree")
    verts = []
    for c in reduced:
        lam = tuple(t + linalg.dot(row, c) for t, row in zip(tau.lam, nb))
        verts.append(lam)
    return OracleResult(vertices=tuple(sorted(verts)), method="DoubleDescription")


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
        total = Fraction(sum(raw))
        weights = [Fraction(r) / total for r in raw]
        lam = tuple(sum((w * x for w, x in zip(weights, col)), _ZERO)
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
    total = Fraction(sum(raw))
    weights = [Fraction(r) / total for r in raw]
    return tuple(
        sum((w * v[l] for w, v in zip(weights, p.vertices)), _ZERO)
        for l in range(p.d))
