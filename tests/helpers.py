"""Shared test utilities: independent mini-oracles and samplers."""

import math
import operator
import random
import sys
from fractions import Fraction

from hypothesis import strategies as st

from barypoly import coordinates as co
from barypoly import linalg
from barypoly.coordinates import GammaPolytope
from barypoly.errors import (
    DimensionMismatchError,
    DuplicateVertexError,
    InconsistentInputsError,
    InternalError,
    InfeasibleSelectionError,
    LeavesPolytopeError,
    NonExtremeVertexError,
    RankDeficientError,
    SingularMatrixError,
    SingularPatternError,
    TooFewVerticesError,
)
from barypoly.probes import (
    FloatPolytope,
    ProbeReport,
    ProbeStep,
    _checked_point,
    _probe_samples,
    _report,
    _tail_nonincreasing,
)
from barypoly.polytope import Polytope
from barypoly.report import AnalysisReport, LambdaVertexEntry
from barypoly.simplex import convex_membership

BIG = 1 << 64


def float_polytope(points) -> FloatPolytope:
    """The FloatPolytope of exact ``points``, each entry rounded by
    ``float``; its dimension is read off the first point, 0 when there is
    none (which the constructor refuses)."""
    verts = tuple(tuple(float(x) for x in pt) for pt in points)
    return FloatPolytope(vertices=verts, ambient_dim=len(verts[0]) if verts else 0)


@st.composite
def rationals(draw, big):
    """A small rational, or one whose denominator is within 999 of 2^64."""
    if big:
        return Fraction(draw(st.integers(-BIG, BIG)), BIG - draw(st.integers(0, 999)))
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))


@st.composite
def matrices(draw, shape):
    """A rational m x n matrix of the given shape, with zero rows, zero
    columns and a row that combines the others drawn in."""
    m = 1 if shape == "1x1" else draw(st.integers(2, 6))
    if shape == "wide":
        n = draw(st.integers(m + 1, 7))
    elif shape == "tall":
        n = draw(st.integers(1, m - 1))
    else:
        n = m
    big = draw(st.booleans())
    a = [[draw(rationals(big)) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        a[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[j] = Fraction(0)
    if m > 1 and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        ws = [draw(rationals(big)) for _ in range(m)]
        a[i] = [sum((w * row[j] for k, (w, row) in enumerate(zip(ws, a)) if k != i),
                    Fraction(0)) for j in range(n)]
    return a


def mat_mul(a, b):
    """Exact matrix product of two row-list matrices."""
    return [[linalg.dot(row, col) for col in zip(*b)] for row in a]


def mat_vec(a, x) -> list:
    """Exact product of a row-list matrix and a vector."""
    return [linalg.dot(row, x) for row in a]


def random_square_matrix(rng, n, den=12):
    return [[Fraction(rng.randint(-24, 24), den) for _ in range(n)]
            for _ in range(n)]


def reference_pivot(rows, r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row r to a 1 in column c, then
    clear column c from every other row.  rows[r][c] must be nonzero."""
    inv = 1 / rows[r][c]
    piv = rows[r] = [x * inv for x in rows[r]]
    for k, row in enumerate(rows):
        f = row[c]
        if f and k != r:
            rows[k] = [x - f * y for x, y in zip(row, piv)]


def reference_rref(a) -> tuple:
    """Reduced row-echelon form over Fractions: (rref rows, pivot column
    list), the reference the integer eliminations must equal.

    Each column pivots on its first nonzero entry at or below the next
    pivot row.
    """
    rows = [list(r) for r in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        reference_pivot(rows, r, c)
        pivots.append(c)
        if r + 1 == len(rows):
            break
    return rows, pivots


def reference_reduced_system(p: Polytope, point) -> tuple:
    """The DD oracle's (tau, N, free) as it was read off the Fraction rref R
    of [V; 1^T | -(p; 1)]: pivot row r with pivot column c gives
    tau[c] = -R[r][n] and N[c] = -R[r][free]; on the free columns tau is 0
    and N's rows are e_j.  ``oracle._reduced_system``'s (L, g, free) must
    give these as g / L.  Raises InternalError for a pivot in the last
    column."""
    rhs = list(linalg.vec(point)) + [Fraction(1)]
    red, pivots = reference_rref([row + [-b] for row, b in zip(p.stacked_rows(), rhs)])
    if pivots[-1] == p.n:
        raise InternalError("[V; 1^T] lacks full row rank")
    free = [c for c in range(p.n) if c not in pivots]
    tau = [Fraction(0)] * p.n
    nb = [[Fraction(int(j == i)) for j in free] for i in range(p.n)]
    for r, c in enumerate(pivots):
        tau[c] = -red[r][p.n]
        nb[c] = [-red[r][f] for f in free]
    return tau, nb, free


def fraction_system(scale, rows) -> tuple:
    """(tau, N) of the oracle's int rows g_i = L (N_i, tau_i), L = ``scale``."""
    return ([Fraction(row[-1], scale) for row in rows],
            [[Fraction(x, scale) for x in row[:-1]] for row in rows])


def integer_system(tau, nbasis_rows) -> tuple:
    """(L, g): N and any particular solution tau as the oracle's int rows
    g_i = L (N_i, tau_i), L the lcm of their denominators."""
    return linalg.integer_rows([[*row, t] for row, t in zip(nbasis_rows, tau)])


def ray_fractions(rays) -> list:
    """The sorted Fraction vertices a / D of the oracle's primitive integer
    rays (a, D), as ``dd_vertices`` lists them."""
    return sorted(tuple(Fraction(x, ray[-1]) for x in ray[:-1]) for ray in rays)


def solve_linear(a, b) -> list:
    """Solve the square system a·x = b exactly.

    Raises SingularMatrixError when rank(a) < len(a).
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise SingularMatrixError("solve_linear expects a square system")
    rows, pivots = reference_rref([list(row) + [bb] for row, bb in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"matrix is singular (rank < {n})")
    return [row[n] for row in rows]


def reference_rank(a) -> int:
    """``linalg.rank`` as it was before the fraction-free loop: the pivot
    count of the Fraction rref.  The reference the integer rank must equal."""
    if not a or not a[0]:
        return 0
    _, pivots = reference_rref(a)
    return len(pivots)


def reference_nullspace_basis(a) -> list:
    """``linalg.nullspace_basis`` as it was before the fraction-free loop: one
    vector per free column of the Fraction rref, 1 there and minus the
    reduced rows' entries at the pivot columns.  The reference the integer
    kernel basis must equal, Fraction for Fraction."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = reference_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def bareiss(rows, m: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of an integer system.

    ``rows`` holds m int rows [a_i | b_i]: a square m x m matrix a followed by
    one or more right-hand-side columns.  Each step replaces every other row
    r by (pivot·r - r_k·pivot_row) / previous pivot, a division that is exact
    (Bareiss 1968), so no intermediate leaves the integers.  Returns
    (det, nums): a·x = b is solved by x[i][c] = nums[i][c] / det, where det is
    det(a) up to sign.  A singular a gives (0, None).
    """
    a = list(rows)
    prev = 1
    for k in range(m):
        # rows hold columns k.. only: earlier columns are never read again
        for i in range(k, m):
            if a[i][0]:
                break
        else:
            return 0, None
        a[k], a[i] = a[i], a[k]
        piv = a[k]
        pk, tail = piv[0], piv[1:]
        a = [tail if j == k else linalg.bareiss_row(r[1:], r[0], tail, pk, prev)
             for j, r in enumerate(a)]
        prev = pk
    return prev, a


def reference_validate(v_rows, d: int) -> Polytope:
    """``polytope.validate`` as it was before the plane's hull walk: every
    vertex, in every dimension, tested by one phase one against the hull of
    the others, and N from the Fraction rref (``reference_nullspace_basis``).
    The reference whose exception, index and kernel rows ``validate`` must
    reproduce."""
    rows = linalg.mat(v_rows)
    if len(rows) != d or any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError(f"expected {d} coordinate rows of equal length")
    n = len(rows[0]) if rows else 0
    if n <= d:
        raise TooFewVerticesError(f"need n > d, got n={n}, d={d}")
    verts = [tuple(rows[l][i] for l in range(d)) for i in range(n)]
    seen = {}
    for i, v in enumerate(verts):
        if v in seen:
            raise DuplicateVertexError(
                f"vertices {seen[v] + 1} and {i + 1} coincide")
        seen[v] = i
    stacked = rows + [[Fraction(1)] * n]
    kernel = reference_nullspace_basis(stacked)
    if len(kernel) != n - d - 1:
        raise RankDeficientError(
            "hull is not full-dimensional (rank [V;1] < d+1)")
    for i in range(n):
        others = verts[:i] + verts[i + 1:]
        if convex_membership(others, verts[i]) is not None:
            raise NonExtremeVertexError(i + 1)
    return Polytope(d=d, n=n, vertices=tuple(verts), _kernel_rows=tuple(
        tuple(col[i] for col in kernel) for i in range(n)))


def triangle_solve(va, vb, vc, q):
    """Exact barycentric coordinates of q in the triangle (va, vb, vc)."""
    rows = [
        [va[0], vb[0], vc[0]],
        [va[1], vb[1], vc[1]],
        [Fraction(1)] * 3,
    ]
    return solve_linear(rows, [q[0], q[1], Fraction(1)])


def triangle_contains_strict(va, vb, vc, q):
    try:
        w = triangle_solve(va, vb, vc, q)
    except SingularMatrixError:
        return False
    return all(x > 0 for x in w)


def interior_point(p: Polytope, rng: random.Random):
    """Strictly positive random vertex combination (exact interior point)."""
    raw = [rng.randint(1, 999) for _ in range(p.n)]
    total = Fraction(sum(raw))
    return tuple(
        sum((Fraction(r) / total * v[l] for r, v in zip(raw, p.vertices)),
            Fraction(0))
        for l in range(p.d))


def pentagon_edge_region_point(pent: Polytope, edge: int, rng: random.Random):
    """Random interior point of the pentagon lying in all three triangles that
    share the boundary edge (edge, edge+1); 1-based edge in 1..5.

    Inside that region the coordinate polytope is a triangle: the only
    feasible supports are {edge, edge+1, x} for the three other vertices x.
    """
    i = edge - 1
    j = (edge % 5)
    others = [x for x in range(5) if x not in (i, j)]
    va, vb = pent.vertices[i], pent.vertices[j]
    for _ in range(10_000):
        wa, wb, wc = (rng.randint(1, 999) for _ in range(3))
        wc = max(1, wc // 8)  # stay close to the edge
        total = Fraction(wa + wb + wc)
        vx = pent.vertices[others[0]]
        q = tuple((wa * a + wb * b + wc * c) / total
                  for a, b, c in zip(va, vb, vx))
        if all(triangle_contains_strict(va, vb, pent.vertices[x], q)
               for x in others):
            return q
    raise RuntimeError("could not sample an edge-region point")


def brute_force_vertices(p: Polytope, point):
    """Zero-pattern brute force written independently of the library path."""
    from itertools import combinations
    out = set()
    k = p.n - p.d - 1
    for zero in combinations(range(p.n), k):
        keep = [j for j in range(p.n) if j not in zero]
        rows = [[p.vertices[j][l] for j in keep] for l in range(p.d)]
        rows.append([Fraction(1)] * len(keep))
        try:
            sol = solve_linear(rows, list(point) + [Fraction(1)])
        except SingularMatrixError:
            continue
        if all(x >= 0 for x in sol):
            full = [Fraction(0)] * p.n
            for jj, val in zip(keep, sol):
                full[jj] = val
            out.add(tuple(full))
    return out


def reference_patterns(p: Polytope, pt, *hs):
    """A fresh elimination of every zero pattern at ``pt``, the reference for
    the polytope's pattern table: yields (zero set, keep, den, nums) per
    nonsingular pattern, lexicographic, where row i of nums / den holds
    sigma_keep[i] at ``pt``, then (J·h)_keep[i] per direction h.

    With L and D the lcms of the vertex and of the point and direction
    denominators, the pattern on columns ``keep`` solves [1 … 1; L·V_keep]·x
    = [D; L·D·pt] by ``bareiss``, whose solution is x = D·sigma_keep;
    a direction h adds [0; L·D·h], solved by D·J_keep·h.
    """
    from itertools import combinations
    scale, vrows = linalg.integer_rows(p.stacked_rows()[:-1])
    pscale, rows = linalg.integer_rows([pt, *hs])
    rhs = [[scale * x for x in c] for c in zip(*rows)]
    for combo in combinations(range(1, p.n + 1), p.kernel_dim()):
        keep = [j for j in range(p.n) if j + 1 not in combo]
        system = [[1] * len(keep) + [pscale] + [0] * len(hs)]
        system += [[vr[j] for j in keep] + b for vr, b in zip(vrows, rhs)]
        det, nums = bareiss(system, len(keep))
        if det:
            yield combo, keep, det * pscale, nums


def reference_walls(p: Polytope) -> list:
    """The pattern table's walls as they were built before the prefix
    kernel, one ``linalg.cofactors`` call per d-subset S in lexicographic
    order: w_S = (c_0, L·c_1, …, L·c_d), c_S the cofactor vector of the rows
    (1, L·v_s), s in S.  The reference ``coordinates._table(p)[0]`` must
    equal entry for entry."""
    from itertools import combinations
    scale, vrows = linalg.integer_rows(p.stacked_rows()[:-1])
    points = [(1, *col) for col in zip(*vrows)]
    walls = []
    for s in combinations(range(p.n), p.d):
        c = linalg.cofactors([points[j] for j in s])
        walls.append((c[0], *(scale * x for x in c[1:])))
    return walls


def reference_census(p: Polytope, point) -> tuple:
    """(vertex count, dim, count == n - d) of Lambda(point) from the distinct
    Fraction vertices of ``lambda_vertices``, dim as their affine dimension:
    the reference the census cells read off the integer pass must equal.
    Raises InfeasibleError outside, as ``lambda_vertices`` does."""
    verts = list(set(co.lambda_vertices(p, point).vertex_arrays()))
    return len(verts), linalg.affine_dim(verts), len(verts) == p.n - p.d


def reference_gamma_polytope(p: Polytope, tau, nbasis_rows, lam) -> GammaPolytope:
    """Gamma by elimination, the reference for ``gamma_polytope``'s unit-row
    reading: one rref of [N | v_1 - tau | … | v_m - tau] solves every
    N·c = v_j - tau, and N·c is checked on all n rows."""
    k = p.kernel_dim()
    rows = linalg.mat(nbasis_rows)
    diffs = [[a - b for a, b in zip(v.lam, tau.lam)] for v in lam.vertices]
    red, pivots = reference_rref([row + [diff[i] for diff in diffs]
                               for i, row in enumerate(rows)])
    if pivots[:k] != list(range(k)):
        raise SingularMatrixError("kernel basis lacks full column rank")
    gvertices = []
    for j, diff in enumerate(diffs):
        c = [row[k + j] for row in red[:k]]
        if mat_vec(rows, c) != diff:
            raise InconsistentInputsError(
                "vertex - tau is not in the column span of the kernel basis")
        gvertices.append(tuple(c))
    return GammaPolytope(
        tau=tau,
        nbasis=tuple(tuple(r) for r in rows),
        hrep_rows=tuple((tuple(row), tau.lam[j]) for j, row in enumerate(rows)),
        vertices=tuple(gvertices),
    )


def reference_dd_reduced(tau, nbasis_rows, free):
    """Double description over Fractions, the reference for the oracle's
    integer rays: the same simplex start, insertion order and bitmask
    adjacency test, with each vertex carried as its coordinate vector and
    each new one interpolated on its edge as v_i + t·(v_j - v_i)."""
    n = len(tau)
    shift = [tau[f] for f in free]
    corner = tuple(t - linalg.dot(row, shift) for t, row in zip(tau, nbasis_rows))
    verts = [corner] + [tuple(x + row[j] for x, row in zip(corner, nbasis_rows))
                        for j in range(len(free))]
    tight = sum(1 << i for i in free)
    act = [tight] + [tight & ~(1 << i) | 1 << n for i in free]
    for r in sorted(set(range(n)).difference(free)):
        vals = [v[r] for v in verts]
        neg_idx = [j for j, val in enumerate(vals) if val < 0]
        new_pts = []
        for i in (i for i, val in enumerate(vals) if val > 0):
            for j in neg_idx:
                common = act[i] & act[j]
                on_face = sum(1 for m in act if (m & common) == common)
                if on_face != 2:
                    continue
                t = vals[i] / (vals[i] - vals[j])
                pt = tuple(a + t * (b - a) for a, b in zip(verts[i], verts[j]))
                new_pts.append((pt, common | 1 << r))
        merged = {v: m | (1 << r if v[r] == 0 else 0)
                  for v, m in zip(verts, act) if v[r] >= 0}
        for pt, m in new_pts:
            merged[pt] = merged.get(pt, 0) | m
        verts = list(merged)
        act = [merged[v] for v in verts]
    return sorted(verts)


def reference_scan_reduced(tau, nbasis_rows, k):
    """Active-set scan over k-subsets of tight rows (independent path, k <= 2):
    each solution c of N_S c = -tau_S with lam = tau + N c >= 0."""
    from itertools import combinations
    out = set()
    for subset in combinations(range(len(tau)), k):
        try:
            c = solve_linear([nbasis_rows[i] for i in subset],
                             [-tau[i] for i in subset])
        except SingularMatrixError:
            continue
        lam = tuple(t + linalg.dot(row, c) for t, row in zip(tau, nbasis_rows))
        if all(x >= 0 for x in lam):
            out.add(lam)
    return sorted(out)


class _FractionTableau:
    """Rational phase-one tableau, Bland's rule: the reference that the
    library's integer tableau must reproduce exactly."""

    def __init__(self, a_rows, b):
        m = len(a_rows)
        n = len(a_rows[0]) if m else 0
        self.n_orig = n
        # flip rows so the right-hand side is nonnegative
        self.flips = [Fraction(-1 if bb < 0 else 1) for bb in b]
        self.rows = []
        for i, row in enumerate(a_rows):
            f = self.flips[i]
            self.rows.append([f * x for x in row] + [Fraction(0)] * m + [f * b[i]])
        for i in range(m):
            self.rows[i][n + i] = Fraction(1)
        self.basis = [n + i for i in range(m)]
        self.ncols = n + m

    def pivot(self, r, j):
        reference_pivot(self.rows, r, j)
        self.basis[r] = j

    def reduced_costs(self, c):
        # cbar_j = c_j - sum_i c_{basis_i} * T[i][j]
        cb = [c[v] for v in self.basis]
        cbar = list(c[: self.ncols])
        for f, row in zip(cb, self.rows):
            if f:
                for j in range(self.ncols):
                    cbar[j] -= f * row[j]
        obj = sum((f * row[-1] for f, row in zip(cb, self.rows)), Fraction(0))
        return cbar, obj

    def bland(self, c):
        while True:
            cbar, _ = self.reduced_costs(c)
            enter = next((j for j in range(self.ncols)
                          if j not in self.basis and cbar[j] < 0), -1)
            if enter < 0:
                return
            leave, best_ratio, best_var = -1, None, None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < best_var)):
                        leave, best_ratio, best_var = i, ratio, self.basis[i]
            assert leave >= 0, "phase one is bounded"
            self.pivot(leave, enter)


def reference_feasible_point(a_rows, b) -> tuple:
    """Phase one on the rational tableau, with the library's pivot rules:
    ``(x, None)`` with x a basic feasible solution, or ``(None, y)`` with y a
    Farkas certificate."""
    tab = _FractionTableau(a_rows, b)
    n, m = tab.n_orig, len(tab.rows)
    c = [Fraction(0)] * n + [Fraction(1)] * m
    tab.bland(c)
    cbar, obj = tab.reduced_costs(c)
    if obj > 0:
        # y_i = 1 - cbar(artificial_i), unflipped back to the original rows
        return None, [tab.flips[i] * (1 - cbar[n + i]) for i in range(m)]
    # drive any remaining artificial variables out of the basis
    for i in range(m - 1, -1, -1):
        if tab.basis[i] >= n:
            enter = next((j for j in range(n) if tab.rows[i][j] != 0), -1)
            if enter >= 0:
                tab.pivot(i, enter)
            else:  # redundant constraint row
                del tab.rows[i]
                del tab.basis[i]
    x = [Fraction(0)] * n
    for row, v in zip(tab.rows, tab.basis):
        if v < n:
            x[v] = row[-1]
    return x, None


def min_norm_sq_reference(points, x) -> Fraction:
    """Exact squared distance from ``x`` to the convex hull of ``points``.

    Brute force, independent of the library's iteration: the nearest point
    lies in the relative interior of a face spanned by affinely independent
    points, where it is their affine min-norm point.  So the answer is the
    smallest |y|² over the affine minimisers y = Σ w_i (p_i - x), Σ w_i = 1,
    of all affinely independent subsets whose weights are nonnegative.  The
    bordered Gram system [G 1; 1ᵀ 0] is singular exactly for dependent ones.
    """
    from itertools import combinations
    ps = [[Fraction(a) - Fraction(b) for a, b in zip(pt, x)] for pt in points]
    best = None
    for k in range(1, min(len(ps), len(x) + 1) + 1):
        for sub in combinations(ps, k):
            rows = [[linalg.dot(a, b) for b in sub] + [Fraction(1)] for a in sub]
            rows.append([Fraction(1)] * k + [Fraction(0)])
            try:
                w = solve_linear(rows, [Fraction(0)] * k + [Fraction(1)])[:k]
            except SingularMatrixError:
                continue
            if min(w) < 0:
                continue
            y = [linalg.dot(w, col) for col in zip(*sub)]
            sq = linalg.dot(y, y)
            if best is None or sq < best:
                best = sq
    return best


# probes' Hausdorff kernel as it was before the runs ended at the first
# nearest-vertex bound within the maximum and the dot products were written
# out in its loops, copied with its helpers: the float operations, in their
# order, that the library's kernel must repeat bit for bit
_REFERENCE_MAX_ITER = 10_000
_REFERENCE_EPS = sys.float_info.epsilon


def _reference_dot(a, b) -> float:
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _reference_argmin(xs) -> int:
    """Index of the first smallest entry."""
    return min(range(len(xs)), key=xs.__getitem__)


def reference_lstsq(cols, rhs) -> list:
    """``probes._lstsq`` as it was: Householder QR least squares, a column
    within eps·max(n, m)·(largest column norm) of the span before it gets
    weight 0."""
    m = len(rhs)
    cols = [list(c) for c in cols]
    r = list(rhs)
    cut = _REFERENCE_EPS * max(len(cols), m) * max((math.hypot(*c) for c in cols),
                                                   default=0.0)
    pivots = []  # column pivots[k] has its reflection, and R's diagonal, at row k
    for j, c in enumerate(cols):
        k = len(pivots)
        if k == m:
            break
        s = math.hypot(*c[k:])
        if s <= cut:
            continue
        # the reflection I - beta·v·vᵀ maps c[k:] to (alpha, 0, ..., 0)
        alpha = -s if c[k] >= 0.0 else s
        v = c[k:]
        v[0] -= alpha
        beta = 1.0 / (s * (s + abs(c[k])))
        for other in cols[j + 1:] + [r]:
            tail = other[k:]
            f = beta * _reference_dot(v, tail)
            other[k:] = [o - f * vi for o, vi in zip(tail, v)]
        c[k] = alpha
        pivots.append(j)
    u = [0.0] * len(cols)
    for k in reversed(range(len(pivots))):
        j = pivots[k]
        rest = linalg.float_sum(cols[i][k] * u[i] for i in pivots[k + 1:])
        u[j] = (r[k] - rest) / cols[j][k]
    return u


def reference_differences(b_rows, x) -> tuple:
    """(p_j, |p_j|²) for p_j = b_j - x: the points
    ``reference_min_norm_point`` runs on."""
    pts = [tuple(map(operator.sub, row, x)) for row in b_rows]
    return pts, [_reference_dot(q, q) for q in pts]


def reference_min_norm_point(pts, sq, tol: float, cutoff: float = math.nan):
    """``probes._min_norm_point`` as it was: Wolfe's corral method from x to
    the hull of the b_j, on ``reference_differences(b_rows, x)``; returns
    (distance, converged), and (|y|, True) as soon as |y| <= ``cutoff``."""
    thresh = max(tol * tol / 2.0, 1e-15 * (1.0 + max(sq)))
    corral = [_reference_argmin(sq)]
    w = [1.0]
    y = pts[corral[0]]
    yy = _reference_dot(y, y)
    for _ in range(_REFERENCE_MAX_ITER):
        dist = math.sqrt(yy)
        if dist <= cutoff:
            return dist, True
        g = [_reference_dot(q, y) for q in pts]
        j = _reference_argmin(g)
        gap = yy - g[j]
        if gap <= 0.0 or j in corral:
            return dist, gap <= thresh
        corral.append(j)
        w.append(0.0)
        while True:
            # v = (1 - Σu, u) with u minimising |c_0 + Σ u_i (c_i - c_0)|
            # over the corral points c; least squares on the points, not on
            # their Gram matrix, whose condition number is the square
            c0, *rest = [pts[i] for i in corral]
            u = reference_lstsq([list(map(operator.sub, ci, c0)) for ci in rest],
                                [-a for a in c0])
            v = [1.0 - linalg.float_sum(u)] + u
            # a v_i in (0, 1e-12] counts as zero, except for the entering
            # point: its weight may be that small when the gap is
            new = corral.index(j)
            small = [vi <= 1e-12 for vi in v]
            small[new] = v[new] <= 0.0
            if not any(small):
                break
            # walk from w toward v up to the first weight that reaches zero
            # and drop that point; exact arithmetic never drops the entering
            # point, so a walk that would is a rounding stall
            theta = [wi / max(wi - min(vi, 0.0), 1e-300) if si else math.inf
                     for wi, vi, si in zip(w, v, small)]
            drop = _reference_argmin(theta)
            if drop == new:
                return dist, gap <= thresh
            w = [max(wi + theta[drop] * (vi - wi), 0.0) for wi, vi in zip(w, v)]
            del corral[drop]
            del w[drop]
        w = v
        y_next = tuple(_reference_dot(w, col) for col in zip(*[pts[i] for i in corral]))
        if _reference_dot(y_next, y_next) >= yy:
            return dist, gap <= thresh
        y = y_next
        yy = _reference_dot(y, y)
    return math.sqrt(yy), False


def reference_pruned_hausdorff_status(a: FloatPolytope, b: FloatPolytope, tol: float):
    """``probes._hausdorff_status`` as it was: every vertex runs
    ``reference_min_norm_point``, by falling nearest-vertex bound (a stable
    sort), cut off at the largest distance so far while that is finite."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")
    runs = []
    for src, dst in ((a, b), (b, a)):
        for row in src.vertices:
            pts, sq = reference_differences(dst.vertices, _checked_point(row, dst, tol))
            runs.append((min(sq), pts, sq))
    runs.sort(key=operator.itemgetter(0), reverse=True)
    worst, ok = 0.0, True
    for _, pts, sq in runs:
        d, met = reference_min_norm_point(pts, sq, tol,
                                          worst if math.isfinite(worst) else math.nan)
        worst = max(worst, d)
        ok = ok and met
    return worst, ok


def reference_point_distance_status(x, b: FloatPolytope, tol: float):
    """(distance from ``x`` to the hull of ``b``, converged), run to its stop
    on the reference kernel."""
    return reference_min_norm_point(
        *reference_differences(b.vertices, _checked_point(x, b, tol)), tol)


def reference_hausdorff_status(a: FloatPolytope, b: FloatPolytope, tol: float):
    """``probes._hausdorff_status`` as it was before it skipped the vertex
    distances that cannot raise the maximum: every vertex's distance to the
    other hull runs to its stop on the reference kernel, in vertex order, and
    the flag says that all of them met it.  The reference the pruned maximum
    must equal."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")
    worst, ok = 0.0, True
    for src, dst in ((a, b), (b, a)):
        for row in src.vertices:
            d, met = reference_point_distance_status(row, dst, tol)
            worst = max(worst, d)
            ok = ok and met
    return worst, ok


def _step_vertices(p: Polytope, pt, hv, ts) -> list:
    """Lambda(pt + t·h)'s sorted Fraction vertices at each t of ``ts``, from
    ``lambda_vertices``: the probe references' exact route to every step."""
    return [co.lambda_vertices(p, [a + t * b for a, b in zip(pt, hv)]).vertex_arrays()
            for t in ts]


def reference_continuity_probe(p: Polytope, point, h, t0=Fraction(1, 8), steps: int = 8,
                               tolerance: float = 1e-7,
                               distance_tol: float = 1e-9) -> ProbeReport:
    """``probes.continuity_probe`` with each Hausdorff distance from
    ``reference_hausdorff_status`` and every vertex list from the Fraction
    route (``lambda_vertices``): the report whose steps its steps must
    equal."""
    pt, hv, ts, _, _ = _probe_samples(p, point, h, t0, steps)
    base = float_polytope(co.lambda_vertices(p, pt).vertex_arrays())
    steps_out = []
    all_met = True
    for t, lam in zip(ts, _step_vertices(p, pt, hv, ts)):
        d, met = reference_hausdorff_status(float_polytope(lam), base,
                                            distance_tol)
        all_met = all_met and met
        steps_out.append(ProbeStep(t=float(t), distance=d, ratio=d / float(t)))
    dists = [s.distance for s in steps_out]
    tail_ok = _tail_nonincreasing(dists)
    return _report(steps_out, tolerance, all_met,
                   converges=dists[-1] < tolerance and tail_ok,
                   diverges=dists[-1] > max(dists[0], tolerance) and not tail_ok,
                   basepoint=pt, direction=hv, distance_tol=distance_tol)


def reference_semidiff_probe(p: Polytope, point, zero_set, h, t0=Fraction(1, 16),
                             steps: int = 8, tolerance: float = 1e-6,
                             distance_tol: float = 1e-9) -> ProbeReport:
    """``probes.semidiff_probe`` as it was before the witness loop became
    ``probes._semidiff_witness``, the quotient sets were built on integers
    and the Hausdorff distances skipped vertices (its witness distances run
    ``reference_point_distance_status`` and its consecutive-set series
    ``reference_hausdorff_status``, both on the reference kernel, and every
    vertex list comes from ``lambda_vertices``): the reference its reports
    must equal.

    Difference-quotient sets S_k = (Lambda(p + t_k h) - sigma_Z(p)) / t_k.

    Reports, per step, the distance of the candidate limit direction
    v = J·h to S_k (``distance``) and the Hausdorff distance between
    consecutive quotient sets (``ratio``; NaN at the last step).  The witness
    distance must vanish when the map is semidifferentiable at the selection;
    the consecutive-set series indicates whether the quotient sets themselves
    settle, which is not implied (they grow without bound whenever the
    coordinate polytope at p is not the single point sigma_Z(p)).  sigma_Z(p)
    and J·h = sigma_Z(p + h) - sigma_Z(p) come from ``simplicial_coords``, so a
    malformed zero set raises ValueError and a singular one SingularPatternError.
    The verdict is ``_report``'s rule: Converges needs the witness below
    ``tolerance`` and both tails nonincreasing, Diverges a failed witness test
    and quotient-set diameters that more than double from a nonzero start.
    """
    pt, hv, ts, _, _ = _probe_samples(p, point, h, t0, steps)
    # interior iff some entry of every index is nonzero at a Fraction vertex
    if not all(map(any, zip(*co.lambda_vertices(p, pt).vertex_arrays()))):
        raise LeavesPolytopeError("basepoint must be interior")
    sigma = co.simplicial_coords(p, pt, zero_set).sigma
    moved = co.simplicial_coords(p, [a + b for a, b in zip(pt, hv)], zero_set).sigma
    jh = [x - y for x, y in zip(moved, sigma)]
    if any(x < 0 for x in sigma):
        raise InfeasibleSelectionError(
            f"sigma with zero set {sorted(zero_set)} is infeasible at the basepoint")
    v_float = tuple(float(x) for x in jh)
    quotient_sets = []
    witness = []
    all_met = True
    for t, lam in zip(ts, _step_vertices(p, pt, hv, ts)):
        sk = float_polytope([tuple((m - s) / t for m, s in zip(vert, sigma))
                             for vert in lam])
        quotient_sets.append(sk)
        d, met = reference_point_distance_status(v_float, sk, distance_tol)
        all_met = all_met and met
        witness.append(d)
    pair = []
    for a, b in zip(quotient_sets, quotient_sets[1:]):
        d, met = reference_hausdorff_status(a, b, distance_tol)
        all_met = all_met and met
        pair.append(d)
    steps_out = [ProbeStep(t=float(t), distance=w, ratio=r)
                 for t, w, r in zip(ts, witness, pair + [math.nan])]
    diameters = [s.diameter() for s in quotient_sets]
    witness_ok = witness[-1] < tolerance and _tail_nonincreasing(witness)
    return _report(steps_out, tolerance, all_met,
                   converges=witness_ok and _tail_nonincreasing(pair),
                   diverges=not witness_ok and diameters[-1] > 2.0 * diameters[0] > 0.0,
                   basepoint=pt, direction=hv, zero_set=sorted(zero_set),
                   diameters=diameters, pairwise_hausdorff=pair,
                   distance_tol=distance_tol)


def reference_selection_jacobian(p, zero_set) -> list:
    """The exact n x d selection Jacobian by Fraction solves: sigma_Z(q)
    solves [V_keep; 1^T]·lam = [q; 1], so column l is the solution of
    [V_keep; 1^T]·x = [e_l; 0], scattered to the keep rows, 0 on the zero
    set.  Raises SingularPatternError where the keep set is affinely
    dependent, as ``probes._selection_jacobian_exact``, which must equal
    it, does."""
    keep = [j for j in range(p.n) if j + 1 not in zero_set]
    system = [[p.vertices[j][l] for j in keep] for l in range(p.d)]
    system.append([Fraction(1)] * len(keep))
    jac = [[Fraction(0)] * p.d for _ in range(p.n)]
    for l in range(p.d):
        try:
            column = solve_linear(system, [Fraction(int(c == l)) for c in range(p.d + 1)])
        except SingularMatrixError:
            raise SingularPatternError(
                f"columns outside {sorted(zero_set)} are affinely dependent") from None
        for j, x in zip(keep, column):
            jac[j][l] = x
    return jac


def vertices_agree(a, b) -> bool:
    """Exact set equality of two coordinate-vector collections."""
    return set(a) == set(b)


def reference_report(p, point) -> AnalysisReport:
    """The analyze report of the public Fraction route: tau, N, Lambda's
    Fraction vertices (``lambda_vertices``) and Gamma's (``gamma_polytope``),
    each vertex's support and zeros read off its entries, and Interior where
    every index is nonzero at some vertex.  ``analyze``, which writes its
    document straight off the integer pass, must print its ``to_json()``."""
    pt = p.as_point(point)
    tau, nb = co.feasible_tau(p, pt), co.nullbasis(p)
    lam = co.lambda_vertices(p, pt)
    gam = co.gamma_polytope(p, tau, nb, lam)
    entries = tuple(LambdaVertexEntry(v.lam, tuple(j for j, x in enumerate(v.lam, 1) if x),
                                      tuple(j for j, x in enumerate(v.lam, 1) if not x))
                    for v in lam.vertices)
    return AnalysisReport(
        polytope_dim=p.d, polytope_vertices=p.vertices, point=pt,
        location="Interior" if all(map(any, zip(*lam.vertex_arrays()))) else "Boundary",
        tau=tau.lam, nbasis=gam.nbasis, lambda_vertices=entries,
        gamma_vertices=gam.vertices, dim=lam.dim,
        theorem_count_match=lam.theorem_count_match)
