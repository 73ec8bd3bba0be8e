"""Lossless analysis report: exact values serialize as 'p/q' strings.

Re-parsing a serialized report reproduces the original exactly; floats
(probe data elsewhere) are written with 17 significant digits, which
round-trips IEEE doubles.  ``dumps`` writes the CLI's indented documents.
"""

import json
from json.encoder import encode_basestring_ascii

from .errors import ParseError
from .linalg import fr, rational_str
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
        return {
            "polytope": {
                "dim": self.polytope_dim,
                "vertices": [_rvec(v) for v in self.polytope_vertices],
            },
            "point": _rvec(self.point),
            "location": self.location,
            "tau": _rvec(self.tau),
            "nullspace_basis": [_rvec(row) for row in self.nbasis],
            "lambda_vertices": [
                {
                    "lambda": _rvec(e.lam),
                    "support": list(e.support),
                    "zeros": list(e.zeros),
                }
                for e in self.lambda_vertices
            ],
            "gamma_vertices": [_rvec(v) for v in self.gamma_vertices],
            "dim": self.dim,
            "theorem_count_match": self.theorem_count_match,
        }

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
