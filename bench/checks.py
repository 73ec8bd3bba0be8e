"""Output checks that do not trust the program's own arithmetic.

Each check takes the text a CLI call printed and returns ``(problem, digest)``:
``problem`` is None when the output is right, else a one-line reason;
``digest`` hashes the exact part of the output (see ``exact_digest``), so
repeated calls, the serial and parallel sweeps and the stored reference can be
compared.  Coordinates are verified with the benchmark's own Fraction sums:
every reported vertex must satisfy V·lam = p, sum(lam) = 1, lam >= 0.
"""

import csv
import hashlib
import io
import json
import math
from fractions import Fraction

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_vertices(path):
    with open(path) as fh:
        doc = json.load(fh)
    return [tuple(Fraction(x) for x in v) for v in doc["vertices"]]


def _coords_problem(verts, point, lam):
    if len(lam) != len(verts):
        return f"coordinate vector has length {len(lam)}, expected {len(verts)}"
    if any(x < 0 for x in lam):
        return "negative coordinate"
    if sum(lam) != 1:
        return "coordinates do not sum to 1"
    for l, pl in enumerate(point):
        if sum(x * v[l] for x, v in zip(lam, verts)) != pl:
            return "V·lam != p"
    return None


def _fracs(xs):
    return [Fraction(x) for x in xs]


def analyze_digest(out):
    """Hash of the analyze JSON without its wall-clock ``timing`` key."""
    doc = json.loads(out)
    doc.pop("timing", None)
    return sha(json.dumps(doc, indent=2))


def check_analyze(out, item, verts):
    if item["rc"] == 2:
        doc = json.loads(out)
        return (None if doc.get("error") == "Outside" else "expected Outside"), sha(out)
    doc = json.loads(out)
    n, d = len(verts), len(verts[0])
    k = n - d - 1
    point = _fracs(item["point"])
    if doc.get("location") != item["location"]:
        return f"location {doc.get('location')} != {item['location']}", None
    if _fracs(doc["point"]) != point:
        return "point echoed wrongly", None
    lams = [_fracs(e["lambda"]) for e in doc["lambda_vertices"]]
    if not lams or lams != sorted(lams) or len(set(map(tuple, lams))) != len(lams):
        return "lambda vertices empty, unsorted or duplicated", None
    for e, lam in zip(doc["lambda_vertices"], lams):
        bad = _coords_problem(verts, point, lam)
        if bad:
            return "lambda vertex: " + bad, None
        support = [j + 1 for j, x in enumerate(lam) if x != 0]
        zeros = [j for j in range(1, n + 1) if j not in support]
        if e["support"] != support or e["zeros"] != zeros:
            return "support or zero set does not match lambda", None
        if len(zeros) < k:
            return "vertex has fewer than n-d-1 zeros", None
    tau = _fracs(doc["tau"])
    bad = _coords_problem(verts, point, tau)
    if bad:
        return "tau: " + bad, None
    nb = [_fracs(row) for row in doc["nullspace_basis"]]
    if len(nb) != n or any(len(row) != k for row in nb):
        return "kernel basis has the wrong shape", None
    for c in range(k):
        col = [row[c] for row in nb]
        if sum(col) != 0 or any(
                sum(x * v[l] for x, v in zip(col, verts)) != 0 for l in range(d)):
            return "kernel basis column not in the kernel of [V; 1]", None
    gam = [_fracs(g) for g in doc["gamma_vertices"]]
    if len(gam) != len(lams):
        return "gamma and lambda vertex counts differ", None
    for g, lam in zip(gam, lams):
        recon = [t + sum(x * y for x, y in zip(row, g)) for t, row in zip(tau, nb)]
        if recon != lam:
            return "tau + N c != lambda vertex", None
    if not 0 <= doc["dim"] <= k:
        return "dim out of range", None
    if doc["theorem_count_match"] != (len(lams) == n - d):
        return "theorem_count_match inconsistent with vertex count", None
    return None, analyze_digest(out)


def check_oracle(out, item, verts, seed):
    doc = json.loads(out)
    if item["rc"] == 2:
        return (None if doc.get("error") == "Infeasible" else "expected Infeasible"), sha(out)
    if doc.get("agreement") is not True:
        return "oracle disagrees with the enumeration", None
    if doc.get("samples_feasible") is not True:
        return "infeasible oracle sample", None
    if doc.get("seed") != seed:
        return f"oracle used seed {doc.get('seed')}, expected {seed}", None
    lams = [tuple(_fracs(v)) for v in doc["lambda_vertices"]]
    orcs = [tuple(_fracs(v)) for v in doc["oracle_vertices"]]
    if set(lams) != set(orcs) or len(lams) != doc["vertex_count"]:
        return "vertex lists or count disagree", None
    point = _fracs(item["point"])
    for lam in lams:
        bad = _coords_problem(verts, point, lam)
        if bad:
            return "vertex: " + bad, None
    return None, sha(out)


def sweep_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


def exact_digest(out, d):
    """Hash of a sweep CSV's exact columns: point, vertex_count, dim,
    theorem_count_match and error."""
    header, rows = sweep_rows(out)
    keep = list(range(d + 3)) + [len(header) - 1]
    return sha("\n".join(",".join(r[i] for i in keep) for r in [header] + rows))


def dist_columns(out):
    header, rows = sweep_rows(out)
    idx = [i for i, h in enumerate(header) if h.startswith("dist_")]
    if not idx:
        return None
    return [[float(r[i]) if r[i] else None for i in idx] for r in rows]


def check_sweep(out, item, verts):
    n, d = len(verts), len(verts[0])
    header, rows = sweep_rows(out)
    if header[:d] != [f"p{i + 1}" for i in range(d)] or header[-1] != "error":
        return "unexpected CSV header", None
    if len(rows) != len(item["points"]):
        return f"{len(rows)} rows for {len(item['points'])} points", None
    probe = item["mode"] != "census"
    for row, pt, err in zip(rows, item["points"], item["errors"]):
        if len(row) != len(header):
            return "ragged CSV row", None
        if row[:d] != pt:
            return "row point differs from the input point", None
        if row[-1] != err:
            return f"error column {row[-1]!r}, expected {err!r}", None
        if err:
            continue
        count = int(row[d])
        if count < 1 or not 0 <= int(row[d + 1]) <= n - d - 1:
            return "vertex count or dim out of range", None
        if row[d + 2] != ("true" if count == n - d else "false"):
            return "theorem_count_match inconsistent with vertex count", None
        if probe:
            dists = [float(x) for x in row[d + 3:-1]]
            # No bound on semidiff's witness distance: when p lies within
            # t·|h| of a wall of the selection's chamber at every step, the
            # distance stays large (3.85 at all 8 steps on one census row).
            if not all(math.isfinite(x) and x >= 0 for x in dists):
                return "distance not finite and nonnegative", None
    return None, sha(out)
