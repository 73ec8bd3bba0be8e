"""Exact phase-one simplex over rationals with Bland's anti-cycling rule.

Decides feasibility of A x = b, x >= 0 in exact Fraction arithmetic by
minimizing the sum of artificial variables.  A feasible system yields a
basic feasible solution; an infeasible one yields an exact Farkas
certificate y with y·A_j <= 0 for every column j and y·b > 0.  Entering
variable: lowest index with negative reduced cost.  Leaving variable:
minimum ratio, ties broken by lowest basic-variable index.  Both rules are
index-based, so results are deterministic and cycling is impossible.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .linalg import pivot

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LPResult:
    status: str                 # "optimal" | "infeasible"
    x: list | None = None
    farkas: list | None = None  # y with y·A_j <= 0 for all j and y·b > 0


class _Tableau:
    def __init__(self, a_rows, b):
        m = len(a_rows)
        n = len(a_rows[0]) if m else 0
        self.n_orig = n
        # flip rows so the right-hand side is nonnegative
        self.flips = [(-_ONE if bb < 0 else _ONE) for bb in b]
        self.rows = []
        for i, row in enumerate(a_rows):
            f = self.flips[i]
            self.rows.append([f * x for x in row] + [_ZERO] * m + [f * b[i]])
        for i in range(m):
            self.rows[i][n + i] = _ONE
        self.basis = [n + i for i in range(m)]
        self.ncols = n + m

    def _pivot(self, r, j):
        pivot(self.rows, r, j)
        self.basis[r] = j

    def _reduced_costs(self, c):
        # cbar_j = c_j - sum_i c_{basis_i} * T[i][j]
        cb = [c[v] for v in self.basis]
        cbar = list(c[: self.ncols])
        for i, row in enumerate(self.rows):
            if cb[i] != 0:
                f = cb[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        cbar[j] -= f * row[j]
        obj = sum((cb[i] * row[-1] for i, row in enumerate(self.rows)), _ZERO)
        return cbar, obj

    def _bland(self, c):
        """Run Bland-rule simplex for costs c; returns final status."""
        while True:
            cbar, _ = self._reduced_costs(c)
            enter = -1
            for j in range(self.ncols):
                if j not in self.basis and cbar[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave, best_ratio, best_var = -1, None, None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < best_var)):
                        leave, best_ratio, best_var = i, ratio, self.basis[i]
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def solution(self):
        x = [_ZERO] * self.n_orig
        for i, v in enumerate(self.basis):
            if v < self.n_orig:
                x[v] = self.rows[i][-1]
        return x


def _phase_one(tab: _Tableau):
    """Minimize the artificial sum.  Returns (feasible, farkas_or_none)."""
    n, m = tab.n_orig, len(tab.rows)
    c = [_ZERO] * n + [_ONE] * m
    status = tab._bland(c)
    if status != "optimal":  # the artificial objective is bounded below by 0
        raise InternalError(f"phase one is {status}")
    cbar, obj = tab._reduced_costs(c)
    if obj > 0:
        # y_i = 1 - cbar(artificial_i), unflipped back to the original rows
        y = [tab.flips[i] * (_ONE - cbar[n + i]) for i in range(m)]
        return False, y
    # drive any remaining artificial variables out of the basis
    for i in range(m - 1, -1, -1):
        if tab.basis[i] >= n:
            enter = next((j for j in range(n) if tab.rows[i][j] != 0), -1)
            if enter >= 0:
                tab._pivot(i, enter)
            else:
                # redundant constraint row
                del tab.rows[i]
                del tab.basis[i]
    return True, None


def feasible_point(a_rows, b) -> LPResult:
    """Find a basic feasible solution of A x = b, x >= 0 (phase one only)."""
    tab = _Tableau(a_rows, b)
    ok, farkas = _phase_one(tab)
    if not ok:
        return LPResult("infeasible", farkas=farkas)
    return LPResult("optimal", x=tab.solution())


def convex_membership(points, target) -> list | None:
    """Exact convex-combination weights of ``target`` over ``points``.

    Returns weights (one per point, nonnegative, summing to 1) or None when
    target is outside the convex hull.
    """
    if not points:
        return None
    dim = len(target)
    a_rows = [[p[l] for p in points] for l in range(dim)]
    a_rows.append([_ONE] * len(points))
    res = feasible_point(a_rows, list(target) + [_ONE])
    return res.x if res.status == "optimal" else None
