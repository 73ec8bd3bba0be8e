"""Lossless analysis report: exact values serialize as 'p/q' strings.

Re-parsing a serialized report reproduces the original exactly; floats
(probe data elsewhere) are written with 17 significant digits, which
round-trips IEEE doubles.  ``dumps`` writes the CLI's indented documents.
``analysis_document`` holds the analyze document's keys and their order:
``AnalysisReport.to_dict`` fills it from the report's Fractions, the CLI
from the integer pass's int rows (``lambda_entries``, ``ratio_rows``), with
no Fraction and no record per vertex.
"""

import json
from json.encoder import encode_basestring_ascii
from operator import mul

from .errors import ParseError
from .linalg import fr, ratio_str, rational_str
from .polytope import parse_coordinates
from .records import Record


def format_float(x: float) -> str:
    return f"{x:.17g}"


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for the documents the
    CLI writes: str, int, bool, None, and lists and dicts (str keys) of
    them.  It dispatches on the exact type, so it skips the pure-Python
    encoder's per-value checks; anything else, a float included, raises
    TypeError."""
    out = []
    _write(doc, out, "\n")
    return "".join(out)


# the leaves a list may hold alone, and their writers
_LEAVES = {str: encode_basestring_ascii, int: str}


def _write(x, out, newline) -> None:
    """Append ``x``'s JSON to ``out``, its lines after the first starting
    with ``newline`` (a newline and the indent of ``x``)."""
    kind = type(x)
    if kind is str:
        out.append(encode_basestring_ascii(x))
    elif kind is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        kinds = set(map(type, x))
        if len(kinds) == 1 and (leaf := _LEAVES.get(kinds.pop())):
            # a vector of strs or of ints: one join
            out.append("[" + inner + ("," + inner).join(map(leaf, x)) + newline + "]")
            return
        sep = "[" + inner
        for item in x:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in x.items():
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a str")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is int:
        out.append(str(x))
    elif kind is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    else:
        raise TypeError(f"{kind.__name__} is not a document value")


def _rvec(xs) -> list:
    return [rational_str(x) for x in xs]


def _parse_rvec(xs) -> tuple:
    return parse_coordinates(xs, len(xs), "report vector")


def _exact(value, kind):
    """``value`` if its type is ``kind`` itself (a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{value!r} is not of type {kind.__name__}")
    return value


def _ascending(indices) -> bool:
    return all(a < b for a, b in zip(indices, indices[1:]))


def analysis_document(polytope_dim, polytope_vertices, point, location, tau, nbasis,
                      lambda_vertices, gamma_vertices, dim, theorem_count_match) -> dict:
    """The analyze document, its keys in their order.  The vectors both
    routes hold as Fractions (the vertices, the point, tau and the rows of
    N) are written here; the vertex lists come written, each Lambda vertex
    a (lambda, support, zeros) triple of lists and each Gamma vertex a list
    of 'p/q' strings: ``AnalysisReport.to_dict`` writes them from its
    Fractions, the CLI from the integer pass (``lambda_entries``,
    ``ratio_rows``)."""
    return {
        "polytope": {"dim": polytope_dim,
                     "vertices": [_rvec(v) for v in polytope_vertices]},
        "point": _rvec(point),
        "location": location,
        "tau": _rvec(tau),
        "nullspace_basis": [_rvec(row) for row in nbasis],
        "lambda_vertices": [{"lambda": lam, "support": support, "zeros": zeros}
                            for lam, support, zeros in lambda_vertices],
        "gamma_vertices": gamma_vertices,
        "dim": dim,
        "theorem_count_match": theorem_count_match,
    }


def ratio_rows(scale: int, rows) -> list:
    """The 'p/q' strings of int rows over one denominator ``scale`` > 0,
    each entry reduced by one gcd (``ratio_str``)."""
    return [[ratio_str(x, scale) if x else "0" for x in row] for row in rows]


def lambda_entries(scale: int, rows) -> list:
    """(lambda, support, zeros) per int row of Lambda's vertices over one
    denominator ``scale`` (``coordinates._vertex_rows``): the row written by
    ``ratio_rows``, and the 1-based indices of its nonzero and zero
    entries."""
    return [(lam, [j for j, x in enumerate(row, 1) if x],
             [j for j, x in enumerate(row, 1) if not x])
            for lam, row in zip(ratio_rows(scale, rows), rows)]


class LambdaVertexEntry(Record):
    _fields = (
        "lam",
        "support",    # 1-based, ascending
        "zeros",      # 1-based, ascending
    )


class AnalysisReport(Record):
    _fields = (
        "polytope_dim",
        "polytope_vertices",
        "point",
        "location",
        "tau",
        "nbasis",                # n rows x (n-d-1) cols
        "lambda_vertices",       # LambdaVertexEntry
        "gamma_vertices",
        "dim",
        "theorem_count_match",
    )

    def to_dict(self) -> dict:
        return analysis_document(
            self.polytope_dim, self.polytope_vertices, self.point, self.location,
            self.tau, self.nbasis,
            [(_rvec(e.lam), list(e.support), list(e.zeros)) for e in self.lambda_vertices],
            [_rvec(v) for v in self.gamma_vertices], self.dim, self.theorem_count_match)

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def _check_shapes(self) -> None:
        """ValueError unless the lengths fit the polytope's d and n."""
        d, n = self.polytope_dim, len(self.polytope_vertices)
        k = n - d - 1
        if any(len(v) != d for v in (*self.polytope_vertices, self.point)):
            raise ValueError(f"the vertices and the point need dim = {d} entries")
        if any(len(v) != n for v in (self.tau, *(e.lam for e in self.lambda_vertices))):
            raise ValueError(f"tau and every lambda need n = {n} entries")
        if len(self.nbasis) != n or any(len(row) != k for row in self.nbasis):
            raise ValueError(f"nullspace_basis must be {n} rows of {k}")
        if (len(self.gamma_vertices) != len(self.lambda_vertices)
                or any(len(v) != k for v in self.gamma_vertices)):
            raise ValueError(f"gamma_vertices must be one vector of {k} per lambda")
        if not 0 <= self.dim <= k:
            raise ValueError(f"dim {self.dim} is outside 0..{k}")
        for e in self.lambda_vertices:
            if not (_ascending(e.support) and _ascending(e.zeros)
                    and sorted(e.support + e.zeros) == list(range(1, n + 1))):
                raise ValueError("support and zeros must be ascending complements "
                                 f"in 1..{n}")

    def _check_agreement(self) -> None:
        """ValueError unless the fields agree (shapes checked): each support
        is its lambda's nonzero indices, each Gamma vertex c maps to its
        lambda as tau + N·c, and theorem_count_match is whether the vertex
        count is n - d."""
        for i, (e, c) in enumerate(zip(self.lambda_vertices, self.gamma_vertices), 1):
            if e.support != tuple(j for j, x in enumerate(e.lam, 1) if x):
                raise ValueError(f"lambda vertex {i}: support and zeros are not "
                                 "its nonzero and zero indices")
            if any(t + sum(map(mul, row, c)) != x
                   for t, row, x in zip(self.tau, self.nbasis, e.lam)):
                raise ValueError(f"gamma vertex {i}: tau + N·c is not lambda vertex {i}")
        count = len(self.lambda_vertices)
        if self.theorem_count_match != (count == len(self.polytope_vertices)
                                        - self.polytope_dim):
            raise ValueError(f"theorem_count_match disagrees with {count} vertices")

    @classmethod
    def from_dict(cls, doc: dict) -> "AnalysisReport":
        try:
            if doc["location"] not in ("Interior", "Boundary"):
                raise ValueError(f"location {doc['location']!r} is not Interior or Boundary")
            report = cls(
                polytope_dim=_exact(doc["polytope"]["dim"], int),
                polytope_vertices=tuple(
                    _parse_rvec(v) for v in doc["polytope"]["vertices"]),
                point=_parse_rvec(doc["point"]),
                location=doc["location"],
                tau=_parse_rvec(doc["tau"]),
                nbasis=tuple(_parse_rvec(row) for row in doc["nullspace_basis"]),
                lambda_vertices=tuple(
                    LambdaVertexEntry(
                        lam=_parse_rvec(e["lambda"]),
                        support=tuple(_exact(i, int) for i in e["support"]),
                        zeros=tuple(_exact(i, int) for i in e["zeros"]),
                    )
                    for e in doc["lambda_vertices"]
                ),
                gamma_vertices=tuple(_parse_rvec(v) for v in doc["gamma_vertices"]),
                dim=_exact(doc["dim"], int),
                theorem_count_match=_exact(doc["theorem_count_match"], bool),
            )
            report._check_shapes()
            report._check_agreement()
            return report
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad report document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Parse a report; numbers are read as ``polytope.read_json`` and
        ``parse_coordinates`` read them, and a bad one raises ParseError."""
        try:
            # fr("NaN"), fr("Infinity") and fr("1e99999") raise ValueError
            doc = json.loads(text, parse_float=fr, parse_constant=fr)
        except (ValueError, RecursionError) as exc:  # and JSONDecodeError
            raise ParseError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(doc)
