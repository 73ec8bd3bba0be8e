"""Floating-point probes of the set-valued coordinate map.

The combinatorial structure is never approximated: the exact vertex lists at
the basepoint and at every step are read off the polytope's pattern table,
the steps' along the ray on integers, and only the metric evaluation runs in
floats: plain Python
floats and tuples, as the point sets are small (the vertices of one
coordinate polytope, in R^n).
Distances to convex hulls use Wolfe's finite corral method for the minimum
norm point, whose minor cycles solve least squares by Householder QR.  It
runs until it reaches the optimum or rounding stops its progress; the
distance is converged when the Frank-Wolfe gap there is within a threshold,
and an unconverged distance makes the verdict "Inconclusive".
A Hausdorff distance is the largest of its vertex distances, and only the
ones that can still raise it run to their stop: the vertices go in order of
falling nearest-vertex bound, each with the largest distance so far as the
cutoff at which its run stops.  |y| only falls over a run, so a run cut off
there cannot raise the maximum, which is bit for bit the one of all runs to
their stops; the distance's flag says that every vertex distance that could
set it met its stop.
A semidiff sweep row runs only the semidiff probe's witness half
(``_semidiff_witness``), without the consecutive-set Hausdorff series.
"""

import itertools
import math
import operator
import sys
from fractions import Fraction

from . import coordinates as co
from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InfeasibleSelectionError,
    LeavesPolytopeError,
)
from .polytope import Polytope
from .records import Record

_MAX_ITER = 10_000
_EPS = sys.float_info.epsilon


class FloatPolytope(Record):
    """Convex hull of one or more float vectors of length ``ambient_dim``;
    equal only to itself."""

    _fields = ("vertices", "ambient_dim")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.vertices) == 0:
            raise EmptyInputError("a float polytope needs at least one vertex")
        if any(len(v) != self.ambient_dim for v in self.vertices):
            raise DimensionMismatchError(f"a vertex's length is not {self.ambient_dim}")

    @classmethod
    def from_exact(cls, points) -> "FloatPolytope":
        verts = tuple(tuple(float(x) for x in pt) for pt in points)
        return cls(vertices=verts, ambient_dim=len(verts[0]) if verts else 0)

    def diameter(self) -> float:
        return max((math.dist(a, b) for a, b in itertools.combinations(self.vertices, 2)),
                   default=0.0)


class ProbeStep(Record):
    _fields = ("t", "distance", "ratio")


class ProbeReport(Record):
    _fields = (
        "steps",
        "verdict",                # "Converges" | "Inconclusive" | "Diverges"
        "tolerance",
        "metadata",               # basepoint, direction: exact tuples
    )
    _defaults = {"metadata": dict}


def _dot(a, b) -> float:
    # linalg.float_sum's order, left to right from 0.0, inlined
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _argmin(xs) -> int:
    """Index of the first smallest entry."""
    return min(range(len(xs)), key=xs.__getitem__)


def _lstsq(cols, rhs) -> list:
    """Weights u minimising |rhs - Σ u_i cols_i|, by Householder QR.

    Columns are taken in order; a column whose norm outside the span of the
    columns before it is at most eps·max(n, m)·(largest column norm) gets
    weight 0: the usual relative rank cut-off of least-squares solvers, with
    the largest column norm for the largest singular value.  On full-rank
    columns this is the least-squares solution; on dependent ones it is a
    basic solution, not the minimum-norm one.
    """
    m = len(rhs)
    cols = [list(c) for c in cols]
    r = list(rhs)
    cut = _EPS * max(len(cols), m) * max((math.hypot(*c) for c in cols), default=0.0)
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
            f = beta * _dot(v, tail)
            other[k:] = [o - f * vi for o, vi in zip(tail, v)]
        c[k] = alpha
        pivots.append(j)
    u = [0.0] * len(cols)
    for k in reversed(range(len(pivots))):
        j = pivots[k]
        rest = linalg.float_sum(cols[i][k] * u[i] for i in pivots[k + 1:])
        u[j] = (r[k] - rest) / cols[j][k]
    return u


def _differences(b_rows, x) -> tuple:
    """(p_j, |p_j|²) for p_j = b_j - x: the points ``_min_norm_point`` runs on."""
    pts = [tuple(map(operator.sub, row, x)) for row in b_rows]
    return pts, [_dot(q, q) for q in pts]


def _min_norm_point(pts, sq, tol: float, cutoff: float = math.nan):
    """Distance from x to the hull of the points b_j, run on
    ``pts, sq = _differences(b_rows, x)``; returns (distance, converged).

    Wolfe's corral method (Wolfe 1976, "Finding the nearest point in a
    polytope") on the points p_j = b_j - x, starting at the point nearest x.
    Each major cycle adds the point minimising p_j·y to the corral.  Each
    minor cycle solves the corral's affine min-norm problem by least squares;
    while a weight is <= 1e-12 (<= 0 for the point that just entered) it
    walks from the current weights toward that solution up to the first zero
    weight and drops that point.  The loop stops at the first of: the
    Frank-Wolfe gap y·y - min_j p_j·y is <= 0, the minimising point is already
    in the corral, the walk would drop the entering point, or |y|² fails to
    fall strictly over a major cycle.  Exact arithmetic reaches only the first
    two, at the optimum; the others are rounding stalls.  Every stop returns
    the smallest |y| found, and converged means that its gap is at most
    max(tol²/2, 1e-15·(1 + max_j |p_j|²)).  ``_MAX_ITER`` major cycles
    without a stop return converged False.

    |y|² only falls, so the returned distance is at most |y| at every point
    of the run.  With a ``cutoff``, the run stops as soon as |y| <= cutoff
    and returns (|y|, True): the distance is then known to be at most the
    cutoff, which is all ``_hausdorff_status`` needs.  The default NaN never
    compares, so the run goes to its own stop.
    """
    thresh = max(tol * tol / 2.0, 1e-15 * (1.0 + max(sq)))
    corral = [_argmin(sq)]
    w = [1.0]
    y = pts[corral[0]]
    yy = _dot(y, y)
    for _ in range(_MAX_ITER):
        dist = math.sqrt(yy)
        if dist <= cutoff:
            return dist, True
        g = [_dot(q, y) for q in pts]
        j = _argmin(g)
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
            u = _lstsq([list(map(operator.sub, ci, c0)) for ci in rest],
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
            drop = _argmin(theta)
            if drop == new:
                return dist, gap <= thresh
            w = [max(wi + theta[drop] * (vi - wi), 0.0) for wi, vi in zip(w, v)]
            del corral[drop]
            del w[drop]
        w = v
        y_next = tuple(_dot(w, col) for col in zip(*[pts[i] for i in corral]))
        if _dot(y_next, y_next) >= yy:
            return dist, gap <= thresh
        y = y_next
        yy = _dot(y, y)
    return math.sqrt(yy), False


def point_polytope_distance(x, b: FloatPolytope, tol: float = 1e-9) -> float:
    """Euclidean distance from ``x`` to the hull of ``b`` within additive tol."""
    return _point_distance_status(x, b, tol)[0]


def _point_distance_status(x, b: FloatPolytope, tol: float):
    return _min_norm_point(*_differences(b.vertices, _checked_point(x, b, tol)), tol)


def _checked_point(x, b: FloatPolytope, tol: float) -> tuple:
    """``x`` as a float tuple, once tol > 0 and its length fit ``b``."""
    xv = tuple(map(float, x))
    if tol <= 0:
        raise ValueError("tol must be positive")
    if len(xv) != b.ambient_dim:
        raise DimensionMismatchError(
            f"point has dim {len(xv)}, polytope ambient dim {b.ambient_dim}")
    return xv


def hausdorff(a: FloatPolytope, b: FloatPolytope, tol: float = 1e-9) -> float:
    """Hausdorff distance between two convex hulls given by vertices.

    Correct for convex sets: x -> d(x, hull) is convex, hence maximized at a
    vertex of the other polytope.  Only the vertex distances that can still
    raise the maximum run to their stop (``_hausdorff_status``).
    """
    return _hausdorff_status(a, b, tol)[0]


def _hausdorff_status(a: FloatPolytope, b: FloatPolytope, tol: float):
    """(the largest distance from a vertex of one set to the hull of the
    other, whether every distance that could set it met its stop).

    Vertices run by falling nearest-vertex bound (a stable sort: ties keep
    their order), each cut off at the largest distance so far while that is
    finite; a run cut off cannot raise the maximum, so it is bit for bit the
    one of all runs to their stops.  A NaN distance never raises it.
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {a.ambient_dim} vs {b.ambient_dim}")
    runs = []
    for src, dst in ((a, b), (b, a)):
        for row in src.vertices:
            pts, sq = _differences(dst.vertices, _checked_point(row, dst, tol))
            runs.append((min(sq), pts, sq))
    runs.sort(key=operator.itemgetter(0), reverse=True)
    worst, ok = 0.0, True
    for _, pts, sq in runs:
        d, met = _min_norm_point(pts, sq, tol,
                                 worst if math.isfinite(worst) else math.nan)
        worst = max(worst, d)
        ok = ok and met
    return worst, ok


def _tail_nonincreasing(xs):
    """Whether the last three entries are nonincreasing, up to 1e-12."""
    tail = xs[-3:]
    return all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def _float_steps(t0, steps) -> bool:
    """The probes' step rule: t0 > 0, steps >= 3, and t0 and t0/2^(steps-1) in
    [float min, float max]; exact, as floor(t0/float min) >= 2^(steps-1),
    building no 2^(steps-1)."""
    return (0 < t0 <= sys.float_info.max and steps >= 3
            and math.floor(t0 / Fraction(sys.float_info.min)).bit_length() >= steps)


def _report(steps, tolerance, met, converges, diverges, **metadata) -> ProbeReport:
    """The probes' one verdict rule: Inconclusive unless every distance that
    could set a reported value ``met`` its stop (a Hausdorff vertex distance
    cut off below the maximum cannot); then Converges when the probe's
    convergence test holds, Diverges when its divergence test holds, else
    Inconclusive."""
    verdict = "Inconclusive"
    if met and converges:
        verdict = "Converges"
    elif met and diverges:
        verdict = "Diverges"
    return ProbeReport(tuple(steps), verdict, tolerance, metadata)


def _floats(scale, rows) -> tuple:
    """Int rows over ``scale`` as float tuples x / scale: an int true
    division, which rounds as float(Fraction) does."""
    return tuple(tuple(x / scale for x in row) for row in rows)


def _probe_samples(p: Polytope, point, h, t0, steps, base=None):
    """(pt, h, t_k, Lambda(pt)'s vertex keys, (M, rows) of each
    Lambda(pt + t_k·h)): the keys are ``base`` when the caller has read them,
    else read here by co._vertices_at, and each step's vertices are int rows
    over M in the Fraction order (``co._vertex_rows``) of the keys that
    co._ray_keys reads along the ray on integers."""
    pt = linalg.vec(point)
    hv = linalg.vec(h)
    if len(pt) != p.d or len(hv) != p.d:
        raise DimensionMismatchError("point and direction lengths must equal d")
    t0 = Fraction(t0)
    if not _float_steps(t0, steps):
        raise ValueError("need t0 > 0, steps >= 3, and t0 and t0/2^(steps-1) "
                         "in [float min, float max]")
    ts = [t0 / (1 << k) for k in range(steps)]
    if base is None:
        base = co._vertices_at(p, pt)
    lams = [co._vertex_rows(p.n, keys) for keys in co._ray_keys(p, pt, hv, ts)]
    if not base:
        raise LeavesPolytopeError("basepoint is outside the polytope")
    # the polytope is convex, so every step between pt and pt + t0·h is inside
    if not lams[0][1]:
        raise LeavesPolytopeError("p + t0*h leaves the polytope")
    return pt, hv, ts, base, lams


def continuity_probe(p: Polytope, point, h, t0=Fraction(1, 8), steps: int = 8,
                     tolerance: float = 1e-7, distance_tol: float = 1e-9,
                     base=None) -> ProbeReport:
    """Hausdorff distances between coordinate polytopes along p + t·h, t -> 0.

    Parameters
    ----------
    p, point, h : polytope, rational basepoint and rational direction.
    t0, steps : geometric step sequence t_k = t0 / 2^k, k = 0..steps-1.
    tolerance : verdict threshold on the final distance.
    distance_tol : additive tolerance of the underlying distance evaluations.
    base : the vertex keys of Lambda(point) (``coordinates._vertex_keys``),
        when the caller has read the table at ``point``; read here if None.

    Returns a ProbeReport whose steps carry (t_k, d_k, d_k / t_k), with the
    verdict of ``_report``'s rule: Converges needs the last distance below
    ``tolerance`` on a nonincreasing tail, Diverges a last distance above the
    first and ``tolerance`` on a tail that is not.
    """
    pt, hv, ts, base, lams = _probe_samples(p, point, h, t0, steps, base)
    base = FloatPolytope(_floats(*co._vertex_rows(p.n, base)), p.n)
    steps_out = []
    all_met = True
    for t, (scale, rows) in zip(ts, lams):
        d, met = _hausdorff_status(FloatPolytope(_floats(scale, rows), p.n), base,
                                   distance_tol)
        all_met = all_met and met
        steps_out.append(ProbeStep(float(t), d, d / float(t)))
    dists = [s.distance for s in steps_out]
    tail_ok = _tail_nonincreasing(dists)
    return _report(steps_out, tolerance, all_met,
                   converges=dists[-1] < tolerance and tail_ok,
                   diverges=dists[-1] > max(dists[0], tolerance) and not tail_ok,
                   basepoint=pt, direction=hv, distance_tol=distance_tol)


def _selection_jacobian_exact(p: Polytope, zero_set) -> list:
    """Exact n x d Jacobian of the simplicial-coordinate map for ``zero_set``:
    sigma_Z is affine, so column l is sigma_Z(e_l) - sigma_Z(0)."""
    base = co.simplicial_coords(p, [0] * p.d, zero_set).sigma
    units = [co.simplicial_coords(p, [int(c == l) for c in range(p.d)], zero_set).sigma
             for l in range(p.d)]
    return [[u[i] - b for u in units] for i, b in enumerate(base)]


def selection_jacobian(p: Polytope, zero_set) -> list:
    """Constant Jacobian of p -> sigma_Z(p), zero rows on the zero set.

    The map solves a fixed linear system with p on the right side, so the
    Jacobian is the first d columns of the system inverse scattered to the
    complement rows.  Computed exactly, returned as n float rows of length d.
    """
    return [[float(x) for x in row] for row in _selection_jacobian_exact(p, zero_set)]


def _quotients(scale, rows, sigma, t) -> tuple:
    """Float tuples of (x_i - sigma_i) / t for each int row over ``scale``
    (x_i = row[i] / scale), each the correctly rounded value of the rational:
    with sigma_i = c/e given as the pair (c, e) and t = u/w (scale, e, u, w >
    0) it is (row[i]·e·w - c·scale·w) / (scale·e·u), an int true division,
    which rounds as float(Fraction) does."""
    u, w = t.numerator, t.denominator
    terms = [(e * w, c * scale * w, scale * e * u) for c, e in sigma]
    return tuple(tuple((a * ew - cw) / den for a, (ew, cw, den) in zip(row, terms))
                 for row in rows)


def _semidiff_witness(p: Polytope, point, zero_set, h, t0, steps,
                      distance_tol: float = 1e-9, base=None):
    """The witness half of ``semidiff_probe``, which ``sweep --mode semidiff``
    runs alone: (pt, h, t_k, S_k, d_k, all met), with S_k the quotient set
    (Lambda(p + t_k h) - sigma_Z(p)) / t_k, built on integers, and d_k the
    distance from J·h to it.  ``base`` is as in ``continuity_probe``; the
    basepoint's vertices are tested only for interiority, on their supports,
    so no Fraction of them is built.  sigma_Z(p) is split into integer pairs
    once, and J·h = sigma_Z(p + h) - sigma_Z(p) is the quotient at t = 1 of
    sigma_Z(p + h) over the lcm of its denominators."""
    pt, hv, ts, base, lams = _probe_samples(p, point, h, t0, steps, base)
    if not co.is_interior(p.n, base.values()):
        raise LeavesPolytopeError("basepoint must be interior")
    sigma = [(x.numerator, x.denominator)
             for x in co.simplicial_coords(p, pt, zero_set).sigma]
    moved = co.simplicial_coords(p, [a + b for a, b in zip(pt, hv)], zero_set).sigma
    if any(c < 0 for c, _ in sigma):
        raise InfeasibleSelectionError(
            f"sigma with zero set {sorted(zero_set)} is infeasible at the basepoint")
    den = math.lcm(*(x.denominator for x in moved))
    (v_float,) = _quotients(den, [[x.numerator * (den // x.denominator)
                                   for x in moved]], sigma, 1)
    quotient_sets = [FloatPolytope(_quotients(scale, rows, sigma, t), p.n)
                     for t, (scale, rows) in zip(ts, lams)]
    status = [_point_distance_status(v_float, sk, distance_tol) for sk in quotient_sets]
    return pt, hv, ts, quotient_sets, [d for d, _ in status], all(m for _, m in status)


def semidiff_probe(p: Polytope, point, zero_set, h, t0=Fraction(1, 16),
                   steps: int = 8, tolerance: float = 1e-6,
                   distance_tol: float = 1e-9) -> ProbeReport:
    """Difference-quotient sets S_k = (Lambda(p + t_k h) - sigma_Z(p)) / t_k.

    Reports, per step, the distance of the candidate limit direction
    v = J·h to S_k (``distance``) and the Hausdorff distance between
    consecutive quotient sets (``ratio``; NaN at the last step).  The witness
    distance must vanish when the map is semidifferentiable at the selection;
    the consecutive-set series indicates whether the quotient sets themselves
    settle, which is not implied (they grow without bound whenever the
    coordinate polytope at p is not the single point sigma_Z(p)).  sigma_Z(p)
    and J·h = sigma_Z(p + h) - sigma_Z(p) come from ``simplicial_coords``, so a
    malformed zero set raises ValueError and a singular one SingularPatternError.
    The witness distances are ``_semidiff_witness``'s, which a semidiff sweep
    row prints without the rest; the consecutive-set series, the diameters
    and the verdict are computed here only.
    The verdict is ``_report``'s rule: Converges needs the witness below
    ``tolerance`` and both tails nonincreasing, Diverges a failed witness test
    and quotient-set diameters that more than double from a nonzero start.
    """
    pt, hv, ts, quotient_sets, witness, all_met = _semidiff_witness(
        p, point, zero_set, h, t0, steps, distance_tol)
    pair = []
    for a, b in zip(quotient_sets, quotient_sets[1:]):
        d, met = _hausdorff_status(a, b, distance_tol)
        all_met = all_met and met
        pair.append(d)
    steps_out = [ProbeStep(float(t), w, r)
                 for t, w, r in zip(ts, witness, pair + [math.nan])]
    diameters = [s.diameter() for s in quotient_sets]
    witness_ok = witness[-1] < tolerance and _tail_nonincreasing(witness)
    return _report(steps_out, tolerance, all_met,
                   converges=witness_ok and _tail_nonincreasing(pair),
                   diverges=not witness_ok and diameters[-1] > 2.0 * diameters[0] > 0.0,
                   basepoint=pt, direction=hv, zero_set=sorted(zero_set),
                   diameters=diameters, pairwise_hausdorff=pair,
                   distance_tol=distance_tol)
