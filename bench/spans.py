"""Span tracing of barypoly's layers from outside the package.

``Tracer.install`` wraps the public functions in ``TARGETS`` at every module
that holds a reference to them (``from .x import f`` copies the name, so a
patch on the defining module alone would miss those call sites).  Each call
records a span (id, name, start, end, parent, item, extra) in memory;
``write`` saves them once, at the end of the run.  A span's parent is the
innermost traced call on the same thread; calls on the CLI's worker threads
have the op's ``cli.main`` span as parent.
"""

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches a method
TARGETS = {
    "linalg.solve_linear": ("barypoly.linalg", "solve_linear"),
    "linalg.rank": ("barypoly.linalg", "rank"),
    "simplex.feasible_point": ("barypoly.simplex", "feasible_point"),
    "simplex.solve_lp": ("barypoly.simplex", "solve_lp"),
    "polytope.validate": ("barypoly.polytope", "validate"),
    "polytope.locate": ("barypoly.polytope", "locate"),
    "coordinates.lambda_vertices": ("barypoly.coordinates", "lambda_vertices"),
    "coordinates.simplicial_coords": ("barypoly.coordinates", "simplicial_coords"),
    "coordinates.feasible_tau": ("barypoly.coordinates", "feasible_tau"),
    "coordinates.nullbasis": ("barypoly.coordinates", "nullbasis"),
    "coordinates.gamma_polytope": ("barypoly.coordinates", "gamma_polytope"),
    "oracle.dd_vertices": ("barypoly.oracle", "dd_vertices"),
    "probes.continuity_probe": ("barypoly.probes", "continuity_probe"),
    "probes.semidiff_probe": ("barypoly.probes", "semidiff_probe"),
    "probes.min_norm_point": ("barypoly.probes", "_min_norm_point"),
    "report.to_json": ("barypoly.report", "AnalysisReport.to_json"),
    "cli.main": ("barypoly.cli", "main"),
    "cli.pick_selection": ("barypoly.cli", "_pick_selection"),
}

_PROBES = ("probes.continuity_probe", "probes.semidiff_probe")


def _extra(name, result):
    """What a span keeps of its return value for the per-layer counts."""
    if name == "coordinates.lambda_vertices":
        return len(result.vertices)
    if name in _PROBES:
        return result.verdict
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._item = None
        self._root = None
        self._anchor = None

    def install(self):
        """Patch every target at every barypoly module that refers to it;
        returns the span names whose target was not found."""
        missing = []
        for name, (modname, attr) in TARGETS.items():
            mod = sys.modules.get(modname)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, meth, None) if owner is not None else None
            if orig is None:
                missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("barypoly"):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)
        return missing

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            elif tracer._anchor is None:
                parent, tracer._anchor = tracer._root, sid
            else:
                parent = tracer._anchor
            stack.append(sid)
            extra = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                extra = _extra(name, result)
                return result
            except Exception as exc:
                extra = getattr(exc, "code", type(exc).__name__)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, tracer._item, extra))

        return traced

    def begin(self, item):
        """Start the op span of one plan item; returns its start time."""
        self._item, self._anchor = item, None
        self._root = next(self._ids)
        return perf_counter()

    def end(self, kind, start):
        self.spans.append((self._root, "op." + kind, start, perf_counter(),
                           None, self._item, None))
        self._item = None

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\titem\textra\n")
            for s in self.spans:
                fh.write("\t".join("" if x is None else str(x) for x in s) + "\n")


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans):
    """Per-layer counts and times (ms, summed over the traced pass)."""
    by_id = {s[0]: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s[4]].append((s[2], s[3]))
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_t = defaultdict(float)
    for sid, name, t0, t1, parent, _, _ in spans:
        calls[name] += 1
        up = by_id.get(parent)
        if up is None or up[1] != name:       # outermost of nested same-name
            incl[name] += t1 - t0
        self_t[name] += (t1 - t0) - _covered(t0, t1, kids.get(sid, ()))
    scanned = singular = 0
    for s in spans:
        up = by_id.get(s[4])
        if s[1] == "coordinates.simplicial_coords" and up and up[1] == "coordinates.lambda_vertices":
            scanned += 1
            singular += s[6] == "SingularPattern"
    returned = sum(s[6] for s in spans  # extra is an error code when it raised
                   if s[1] == "coordinates.lambda_vertices" and isinstance(s[6], int))
    verdicts = [s[6] for s in spans if s[1] in _PROBES]

    def ms(x):
        return 1000.0 * x

    out = {}
    for name in ("linalg.solve_linear", "linalg.rank", "simplex.feasible_point",
                 "simplex.solve_lp", "oracle.dd_vertices", "probes.min_norm_point"):
        out[name + ".calls"] = calls[name]
    for name in ("linalg.solve_linear", "linalg.rank", "simplex.feasible_point",
                 "simplex.solve_lp"):
        out[name + ".self_ms"] = ms(self_t[name])
    for name in ("polytope.validate", "polytope.locate", "coordinates.lambda_vertices",
                 "coordinates.feasible_tau", "coordinates.nullbasis",
                 "coordinates.gamma_polytope", "oracle.dd_vertices",
                 "probes.min_norm_point", "report.to_json", "cli.pick_selection"):
        out[name + ".ms"] = ms(incl[name])
    out["coordinates.patterns_scanned"] = scanned
    out["coordinates.patterns_singular"] = singular
    out["coordinates.pattern_yield"] = returned / scanned if scanned else 0.0
    out["probes.self_ms"] = ms(sum(self_t[n] for n in _PROBES))
    out["probes.inconclusive_ratio"] = (
        verdicts.count("Inconclusive") / len(verdicts) if verdicts else 0.0)
    out["cli.self_ms"] = ms(self_t["cli.main"])
    return out
