"""Exact phase-one simplex on a fraction-free integer tableau, Bland's rule.

Decides feasibility of A x = b, x >= 0 by minimizing the sum of artificial
variables; there is no phase two.  A feasible system yields a basic feasible
solution; an infeasible one yields an exact Farkas certificate y with
y·A_j <= 0 for every column j and y·b > 0.  Entering variable: lowest index
with negative reduced cost.  Leaving variable: minimum ratio, ties broken by
lowest basic-variable index.  Both rules are index-based, so results are
deterministic and cycling is impossible.

The tableau holds integers only (Bareiss 1968; Avis 2000, lrs).  Column j
of A is multiplied by c_j, the lcm of its own denominators, and b by s, the
lcm of its denominators.  That is the positive change of variables
x'_j = s·x_j / c_j: it multiplies every reduced cost of column j by c_j and
every ratio of one ratio test by the same s / c_e, so each sign test, each
ratio order and each tie-break is the one the rational tableau would see,
and the pivots are the same.  The integer tableau is D times the rational
one, D the last pivot: a pivot on p = T[r][e] replaces every other row T_i,
the carried phase-one cost row included, by (p·T_i - T_i[e]·T_r) / D, an
exact division, and then sets D = p.  Reading x_j = T_i[rhs]·c_j / (D·s)
and y_i = 1 - cost[n+i] / D back gives the rational tableau's outputs.
"""

from fractions import Fraction

from .errors import InternalError
from .linalg import bareiss_row, integer_rows

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    def __init__(self, a_rows, b):
        m = len(a_rows)
        n = len(a_rows[0]) if m else 0
        self.n_orig = n
        # flip rows so the right-hand side is nonnegative
        self.flips = [-1 if bb < 0 else 1 for bb in b]
        # scale each column, and b, by the lcm of its own denominators
        cols = [integer_rows([col]) for col in zip(*a_rows)]
        self.scales = [scale for scale, _ in cols]
        self.rhs_scale, (rhs,) = integer_rows([b])
        self.rows = []
        for i, f in enumerate(self.flips):
            unit = [0] * m
            unit[i] = 1
            self.rows.append([f * col[i] for _, (col,) in cols] + unit + [f * rhs[i]])
        # phase-one reduced costs of the artificial basis: 1^T on the
        # artificials minus the column sums, which is 0 on the artificials
        self.cost = [-sum(row[j] for row in self.rows) for j in range(n + m + 1)]
        self.cost[n:n + m] = [0] * m
        self.basis = [n + i for i in range(m)]
        self.ncols = n + m
        self.det = 1

    def _pivot(self, r, j):
        piv, d = self.rows[r], self.det
        p = piv[j]
        for k, row in enumerate(self.rows):
            if k != r and (row[j] or p != d):
                self.rows[k] = bareiss_row(row, row[j], piv, p, d)
        self.cost = bareiss_row(self.cost, self.cost[j], piv, p, d)
        self.det = p
        self.basis[r] = j

    def _bland(self):
        """Run the Bland-rule simplex on the carried cost row until no reduced
        cost is negative.  Every pivot is positive, so D stays positive; the
        artificial sum is bounded below by 0, so an entering column always
        has a leaving row."""
        while True:
            # basic columns have reduced cost exactly 0
            enter = next((j for j in range(self.ncols) if self.cost[j] < 0), -1)
            if enter < 0:
                return
            # ratios T[i][rhs] / T[i][enter] compared by cross-multiplication
            leave, best_rhs, best_col = -1, 0, 1
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    lhs, rhs = row[-1] * best_col, best_rhs * a
                    if (leave < 0 or lhs < rhs
                            or (lhs == rhs and self.basis[i] < self.basis[leave])):
                        leave, best_rhs, best_col = i, row[-1], a
            if leave < 0:
                raise InternalError("phase one is unbounded")
            self._pivot(leave, enter)

    def solution(self):
        x = [_ZERO] * self.n_orig
        den = self.det * self.rhs_scale
        for row, v in zip(self.rows, self.basis):
            if v < self.n_orig:
                x[v] = Fraction(row[-1] * self.scales[v], den)
        return x


def feasible_point(a_rows, b) -> tuple:
    """Phase one on A x = b, x >= 0: ``(x, None)`` with x a basic feasible
    solution, or ``(None, y)`` with y a Farkas certificate, y·A_j <= 0 for
    every column j and y·b > 0.  An artificial may stay basic at 0: x is
    still a basic solution, its support in the basic columns of A, linearly
    independent."""
    tab = _Tableau(a_rows, b)
    tab._bland()
    if tab.cost[-1]:  # -D·s times the artificial sum
        # y_i = 1 - cbar(artificial_i), unflipped back to the original rows
        d, n = tab.det, tab.n_orig
        return None, [Fraction(f * (d - c), d) for f, c in zip(tab.flips, tab.cost[n:-1])]
    return tab.solution(), None


def convex_membership(points, target) -> list | None:
    """Exact convex-combination weights of ``target`` over ``points``.

    Returns weights (one per point, nonnegative, summing to 1) or None when
    target is outside the convex hull.  The weights are a basic solution of
    [points; 1ᵀ]·w = [target; 1], so the points they weight positively are
    affinely independent.
    """
    if not points:
        return None
    dim = len(target)
    a_rows = [[p[l] for p in points] for l in range(dim)]
    a_rows.append([_ONE] * len(points))
    return feasible_point(a_rows, list(target) + [_ONE])[0]
