"""Input polytope model: validation, point location, file format.

A polytope is given by its n vertices in R^d (n > d) and must be
full-dimensional: the stacked matrix [V; 1^T] has rank d+1, equivalently its
kernel has dimension n-d-1.  Every listed vertex must be an extreme point of
the hull: in the plane an integer hull walk tests that; in other dimensions
one integer functional per vertex certifies most of them, and the rest get one
phase one each, in index order up to the first that is not extreme.  Vertex
order in the input fixes the 1-based index order used by every other module.
"""

import json
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import (
    DimensionMismatchError,
    DuplicateVertexError,
    InternalError,
    NonExtremeVertexError,
    ParseError,
    RankDeficientError,
    TooFewVerticesError,
)
from .records import Record
from .simplex import convex_membership, feasible_point

_ONE = Fraction(1)


class Polytope(Record):
    _fields = (
        "d",
        "n",
        "vertices",          # n vertex tuples, each of length d
        "_kernel_rows",      # N's n rows, from validation's one elimination
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # coordinates' pattern table (walls, order, ge, le), built on
        # first use; not a constructor argument
        object.__setattr__(self, "_pattern_table", [])

    def stacked_rows(self) -> list:
        """Rows of [V; 1^T]: d coordinate rows plus the all-ones row."""
        rows = [[v[l] for v in self.vertices] for l in range(self.d)]
        rows.append([_ONE] * self.n)
        return rows

    def as_point(self, point) -> tuple:
        """``point`` as an exact d-tuple, else DimensionMismatchError."""
        pt = linalg.vec(point)
        if len(pt) != self.d:
            raise DimensionMismatchError(f"point has length {len(pt)}, expected {self.d}")
        return pt

    def centroid(self) -> tuple:
        w = Fraction(1, self.n)
        return tuple(sum((v[l] for v in self.vertices), Fraction(0)) * w
                     for l in range(self.d))

    def kernel_dim(self) -> int:
        return self.n - self.d - 1


class Location(str, Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


class PointLocation(Record):
    # barycentric: feasible coordinates, for Interior/Boundary; separator:
    # (a, b) with a·v_i <= b for all vertices and a·p > b, for Outside; each
    # None where it does not apply
    _fields = ("tag", "barycentric", "separator")
    _defaults = {"barycentric": lambda: None, "separator": lambda: None}


def validate(v_rows: Sequence[Sequence], d: int) -> Polytope:
    """Validate a d x n vertex matrix (column i = vertex i) into a Polytope
    that keeps the rows of N, the kernel basis of [V; 1^T] (its one
    fraction-free elimination, under ``linalg.nullspace_basis``).

    Raises TooFewVerticesError, DuplicateVertexError, RankDeficientError (N
    has more than n-d-1 columns) or NonExtremeVertexError at the first
    vertex (1-based index) in the hull of the others: by one hull walk in
    the plane (``_plane_hull``); in other dimensions vertex by vertex in
    index order, by one phase one for each vertex that ``_certified`` leaves,
    stopping at the first hit.  A certified vertex is extreme, so it can
    never be the first hit.
    """
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
    stacked = rows + [[_ONE] * n]
    kernel = linalg.nullspace_basis(stacked)
    if len(kernel) != n - d - 1:
        raise RankDeficientError(
            "hull is not full-dimensional (rank [V;1] < d+1)")
    points = list(zip(*linalg.integer_rows(rows)[1]))
    if d == 2:
        hull = _plane_hull(points)
        inner = (i for i in range(n) if i not in hull)
    else:
        total = [sum(xs) for xs in zip(*points)]
        inner = (i for i in range(n) if not _certified(points, total, i)
                 and convex_membership(verts[:i] + verts[i + 1:], verts[i]) is not None)
    first = next(inner, None)
    if first is not None:
        raise NonExtremeVertexError(first + 1)
    return Polytope(d=d, n=n, vertices=tuple(verts), _kernel_rows=tuple(
        tuple(col[i] for col in kernel) for i in range(n)))


def _plane_hull(points) -> set:
    """Indices of the extreme points among distinct integer points (x, y):
    Andrew's monotone chain (Andrew 1979) over the points sorted by (x, y),
    whose lower and upper chains keep only strict left turns, so a point on
    a hull edge is dropped.  Distinct points lie in the hull of the others
    exactly when they are not extreme.  Integer cross products only."""
    order = sorted(range(len(points)), key=points.__getitem__)
    hull = set()
    for chain in (order, order[::-1]):
        kept = []
        for i in chain:
            cx, cy = points[i]
            while len(kept) > 1:
                (ax, ay), (bx, by) = points[kept[-2]], points[kept[-1]]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    break
                kept.pop()
            kept.append(i)
        hull.update(kept)
    return hull


def _certified(points, total, i: int) -> bool:
    """Whether a linear functional proves the distinct integer point i
    extreme: some a has a·v_i > a·v_j for every j != i, as the unique
    maximiser of a linear functional over distinct points is extreme.  The
    first a is n·v_i - Σ_j v_j, ``total`` being Σ_j v_j (n times the
    direction from the centroid); where it fails at some v_j, the first such
    j, it is corrected to a + (v_i - v_j) (a perceptron step, which raises
    a·(v_i - v_j) by |v_i - v_j|² > 0), at most 4n times.  False may mean
    extreme or not.  Each test is O(n·d) integer multiply-adds."""
    n, v = len(points), points[i]
    a = [n * x - s for x, s in zip(v, total)]
    others = points[:i] + points[i + 1:]
    for _ in range(4 * n + 1):
        top = sum(map(mul, a, v))
        q = next((q for q in others if sum(map(mul, a, q)) >= top), None)
        if q is None:
            return True
        a = [x + y - z for x, y, z in zip(a, v, q)]
    return False


def locate(p: Polytope, point: Sequence) -> PointLocation:
    """Classify ``point`` as Interior / Boundary / Outside with a certificate.

    The point is interior iff some lam > 0 has V·lam = p and sum(lam) = 1.
    Such a lam exists iff mu >= 0 solves (V - p·1^T)·mu = n·p - V·1: then
    lam = (mu + 1) / (sum(mu) + n), and conversely mu = lam / min(lam) - 1.
    One phase one on these d rows decides Interior, and its lam is the
    strictly positive ``barycentric``.  Otherwise phase one on [V; 1^T]
    gives either a basic feasible lam (Boundary) or the Farkas dual of that
    system as an exact separating functional (Outside, ``farkas_separator``).
    """
    pt = p.as_point(point)
    stacked = p.stacked_rows()
    coords = list(zip(stacked[: p.d], pt))
    mu, _ = feasible_point([[x - c for x in row] for row, c in coords],
                           [p.n * c - sum(row, Fraction(0)) for row, c in coords])
    if mu is not None:
        total = sum(mu, Fraction(p.n))
        return PointLocation(Location.INTERIOR,
                             barycentric=tuple((m + 1) / total for m in mu))
    lam, y = feasible_point(stacked, list(pt) + [_ONE])
    if y is None:
        return PointLocation(Location.BOUNDARY, barycentric=tuple(lam))
    return PointLocation(Location.OUTSIDE, separator=farkas_separator(p, pt, y))


def farkas_separator(p: Polytope, pt, y) -> tuple:
    """(a, b) = (y[:d], -y[d]) off a Farkas certificate y of phase one on
    [V; 1^T] lam = [pt; 1]: a·v_i <= b for every vertex and a·pt > b, else
    InternalError."""
    a, b = tuple(y[: p.d]), -y[p.d]
    if not (all(linalg.dot(a, v) <= b for v in p.vertices)
            and linalg.dot(a, pt) > b):
        raise InternalError("Farkas certificate does not separate the point")
    return a, b


def parse_polytope(doc) -> Polytope:
    """Build a validated Polytope from a parsed JSON document: its shape is
    checked by ``polytope_rows``, its vertices by ``validate``."""
    return validate(*polytope_rows(doc))


def polytope_rows(doc) -> tuple:
    """(rows, d) of a parsed JSON document, the d x n vertex matrix that
    ``validate`` takes; shape errors are ParseErrors, and nothing is validated.

    Expected shape: {"dim": d, "vertices": [[x, ...], ...]} where each
    coordinate is a number (converted exactly from its decimal expansion) or a
    string "p/q".  Vertex order fixes the 1-based index order.
    """
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    if "dim" not in doc or "vertices" not in doc:
        raise ParseError('missing required keys "dim" and "vertices"')
    d = doc["dim"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError('"dim" must be a positive integer')
    verts = doc["vertices"]
    if not isinstance(verts, list) or not verts:
        raise ParseError('"vertices" must be a nonempty list')
    cols = [parse_coordinates(v, d, f"vertex {i + 1}") for i, v in enumerate(verts)]
    return [[col[l] for col in cols] for l in range(d)], d


def parse_coordinates(row, d, what) -> tuple:
    """A JSON list of d coordinates as exact Fractions: numbers (exact from
    their decimal expansion) or strings "p/q"; ParseError names ``what``."""
    if not isinstance(row, list) or len(row) != d:
        raise ParseError(f"{what} must be a list of {d} coordinates")
    if any(isinstance(x, bool) for x in row):
        raise ParseError(f"{what}: bad coordinate (boolean)")
    try:
        return tuple(linalg.fr(x) for x in row)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"{what}: bad coordinate ({exc})") from exc


def read_json(path):
    """A UTF-8 JSON file's value, decimals as exact Fractions (``linalg.fr``);
    ParseError if unreadable, undecodable, not JSON, nested too deep to decode
    or a number fr refuses."""
    try:
        with open(path, encoding="utf-8") as fh:
            # fr("NaN"), fr("Infinity") and fr("1e99999") raise ValueError
            return json.load(fh, parse_float=linalg.fr, parse_constant=linalg.fr)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_polytope(path) -> Polytope:
    """Parse and validate a polytope file (see parse_polytope for the schema)."""
    return parse_polytope(read_json(path))


def polytope_document(p: Polytope) -> dict:
    """Lossless JSON document for a polytope (rationals as 'p/q' strings)."""
    return {"dim": p.d,
            "vertices": [[linalg.rational_str(x) for x in v] for v in p.vertices]}
