"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 8 encode classical predictions that the measured geometry
contradicts on open regions; those tests run the stated check faithfully and
fail with the measured evidence (see the failure messages for the numbers).
"""

import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from barypoly.coordinates import (
    caratheodory_decompose,
    feasible_tau,
    lambda_vertices,
    nullbasis,
    segment_interval,
    simplicial_coords,
)
from barypoly.errors import SingularPatternError
from barypoly.oracle import (
    dd_vertices,
    random_feasible_sample,
    random_polytope,
)
from barypoly.probes import continuity_probe, selection_jacobian, semidiff_probe
from helpers import interior_point, pentagon_edge_region_point, vertices_agree

F = Fraction
CENTER = (F(1, 2), F(1, 2))


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL")
        raise
    print(f"[criterion {num:2d}] {name}: PASS")


@pytest.fixture(scope="module")
def census():
    """50 seeded random validated polytopes with 10 interior points each."""
    rows = []
    for i in range(50):
        d = 2 if i < 25 else 3
        rng = random.Random(9000 + i)
        n = rng.randint(d + 2, 8)
        p = random_polytope(d, n, seed=9000 + i)
        pts = [interior_point(p, rng) for _ in range(10)]
        rows.append((p, pts))
    return rows


@pytest.fixture(scope="module")
def census_lambdas(census):
    return [(p, [(q, lambda_vertices(p, q)) for q in pts]) for p, pts in census]


def test_criterion_1_square_segment(square):
    with criterion(1, "square: coordinate set is a segment"):
        start = time.perf_counter()
        rng = random.Random(101)
        nb = nullbasis(square)
        n_col = [row[0] for row in nb]
        for _ in range(25):
            q = interior_point(square, rng)
            lam = lambda_vertices(square, q)
            assert len(lam.vertices) == 2
            assert lam.dim == 1
            tau = feasible_tau(square, q)
            a, b = segment_interval(tau, n_col)
            ends = {
                tuple(t + a * c for t, c in zip(tau.lam, n_col)),
                tuple(t + b * c for t, c in zip(tau.lam, n_col)),
            }
            assert ends == {v.lam for v in lam.vertices}
        lam = lambda_vertices(square, CENTER)
        assert {v.lam for v in lam.vertices} == {
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(0), F(1, 2), F(0), F(1, 2)),
        }
        assert time.perf_counter() - start < 1.0


def test_criterion_2_pentagon_triangle(pentagon):
    with criterion(2, "pentagon: triangle structure in the edge regions"):
        start = time.perf_counter()
        rng = random.Random(202)
        qs = [pentagon_edge_region_point(pentagon, 1 + i % 5, rng)
              for i in range(25)]
        for q in qs:
            lam = lambda_vertices(pentagon, q)
            assert len(lam.vertices) == 3
            assert lam.dim == 2 == pentagon.kernel_dim()
        q = qs[0]
        lam = lambda_vertices(pentagon, q)
        for s in random_feasible_sample(dd_vertices(pentagon, q).vertices, q, 10,
                                        seed=202):
            pairs = caratheodory_decompose(lam, s)
            assert len(pairs) <= 3
            assert sum(w for _, w in pairs) == 1
            recon = tuple(
                sum((w * lam.vertices[i].lam[l] for i, w in pairs), F(0))
                for l in range(pentagon.n))
            assert recon == s.lam
        assert time.perf_counter() - start < 1.0


def test_criterion_3_pyramid_segment(pyramid):
    with criterion(3, "pyramid: two vertices, dimension one"):
        start = time.perf_counter()
        rng = random.Random(303)
        for _ in range(25):
            q = interior_point(pyramid, rng)
            lam = lambda_vertices(pyramid, q)
            assert len(lam.vertices) == 2
            assert lam.dim == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_4_vertex_count_census(census_lambdas):
    with criterion(4, "census: classical vertex count with witness rule"):
        total = matches = 0
        mismatch_rows = []
        for p, rows in census_lambdas:
            k = p.kernel_dim()
            for q, lam in rows:
                total += 1
                if lam.theorem_count_match:
                    matches += 1
                    continue
                witnessed = any(
                    sum(1 for x in v.lam if x == 0) > k for v in lam.vertices)
                mismatch_rows.append((p.d, p.n, len(lam.vertices), witnessed))
        rate = matches / total
        unwitnessed = [r for r in mismatch_rows if not r[3]]
        by_shape = {}
        for d, n, cnt, wit in mismatch_rows:
            by_shape.setdefault((d, n), []).append(cnt)
        detail = "; ".join(
            f"d={d} n={n} (expected {n - d}): counts {sorted(set(c))}"
            for (d, n), c in sorted(by_shape.items()))
        assert rate >= 0.95 and not unwitnessed, (
            f"classical count n-d held in {matches}/{total} samples "
            f"({rate:.1%}); {len(unwitnessed)} of {len(mismatch_rows)} "
            f"mismatches carry no degeneracy witness (every vertex has "
            f"exactly n-d-1 zeros, i.e. the extra vertices are "
            f"non-degenerate). Mismatch profile: {detail}. The vertex count "
            f"of the coordinate polytope equals the number of vertex-spanned "
            f"d-simplices containing the point, which exceeds n-d on open "
            f"regions once n >= d+3 (e.g. the pentagon's center lies strictly "
            f"inside 5 triangles)."
        )


def test_criterion_5_oracle_equivalence(census, square, pentagon, pyramid, prism8):
    with criterion(5, "oracle equivalence: double description vs pattern scan"):
        rng = random.Random(505)
        for p in (square, pentagon, pyramid, prism8):
            pts = [p.centroid()] + [interior_point(p, rng) for _ in range(3)]
            for q in pts:
                lam = lambda_vertices(p, q)
                ora = dd_vertices(p, q)
                assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices])
        for p, pts in census:
            for q in pts:
                lam = lambda_vertices(p, q)
                ora = dd_vertices(p, q)
                assert vertices_agree(ora.vertices, [v.lam for v in lam.vertices]), \
                    f"oracle disagreement: d={p.d} n={p.n} q={q}"


def test_criterion_6_dimension_bound(census_lambdas, square, pentagon):
    with criterion(6, "dimension bound and boundary degeneration"):
        for p, rows in census_lambdas:
            for q, lam in rows:
                assert lam.dim <= p.kernel_dim()
        rng = random.Random(606)
        for poly in (square, pentagon):
            for i in range(poly.n):
                v1 = poly.vertices[i]
                v2 = poly.vertices[(i + 1) % poly.n]
                t = F(rng.randint(1, 9), 10)
                edge_pt = tuple(a + t * (b - a) for a, b in zip(v1, v2))
                lam = lambda_vertices(poly, edge_pt)
                assert lam.dim == 0, f"boundary point {edge_pt} has dim {lam.dim}"
                assert lam.dim <= poly.kernel_dim()
                # the edge endpoints are the sole support on the boundary
                assert lam.vertex_supports[0] <= {i + 1, (i + 1) % poly.n + 1}


def _tiny_direction(rng, d):
    scale = F(1, 1 << 17)
    while True:
        h = tuple(F(rng.randint(-16, 16), 16) * scale for _ in range(d))
        if any(x != 0 for x in h):
            return h


def test_criterion_7_continuity(square, pentagon):
    with criterion(7, "continuity probe: vanishing distances, bounded ratios"):
        start = time.perf_counter()
        rng = random.Random(707)
        for p in (square, pentagon):
            for _ in range(5):
                q = interior_point(p, rng)
                h = _tiny_direction(rng, p.d)
                rep = continuity_probe(p, q, h, t0=F(1, 8), steps=8,
                                       tolerance=1e-7, distance_tol=1e-12)
                dists = [s.distance for s in rep.steps]
                assert dists[-1] < 1e-7, f"final distance {dists[-1]}"
                ratios = [s.ratio for s in rep.steps]
                med = statistics.median(ratios)
                assert max(ratios) <= 4 * med or max(ratios) < 1e-15, \
                    f"ratios {ratios} exceed 4x median {med}"
        assert time.perf_counter() - start < 5.0


def test_criterion_8_semidifferentiability(square):
    with criterion(8, "semidifferentiability probe at the square center"):
        start = time.perf_counter()
        rep = semidiff_probe(square, CENTER, {4}, (F(1), F(0)),
                             t0=F(1, 16), steps=8, tolerance=1e-6,
                             distance_tol=1e-12)
        witness = [s.distance for s in rep.steps]
        assert witness[-1] < 1e-6, f"witness distance {witness[-1]}"
        pair = rep.metadata["pairwise_hausdorff"]
        assert time.perf_counter() - start < 5.0
        decreasing = all(b < a for a, b in zip(pair, pair[1:]))
        assert decreasing, (
            f"consecutive quotient-set Hausdorff distances increase instead "
            f"of decreasing: {[f'{x:.6g}' for x in pair]} (they double each "
            f"halving). The witness direction check passes exactly "
            f"(distances {witness}), but the quotient sets "
            f"(Lambda(p+t h) - sigma_Z(p))/t contain the scaled segment "
            f"(Lambda(p) - sigma_Z(p))/t, whose diameter grows like 1/t "
            f"whenever the coordinate polytope at p is not the single point "
            f"sigma_Z(p); their Hausdorff distances cannot settle."
        )


def test_criterion_9_jacobian_finite_differences(square, pentagon, pyramid, prism8):
    with criterion(9, "selection Jacobian vs central differences"):
        step = F(1, 10_000)
        for p in (square, pentagon, pyramid, prism8):
            q = p.centroid()
            k = p.kernel_dim()
            zero = None
            for combo in combinations(range(1, p.n + 1), k):
                try:
                    sc = simplicial_coords(p, q, combo)
                except SingularPatternError:
                    continue
                if sc.feasible:
                    zero = frozenset(combo)
                    break
            assert zero is not None
            jac = selection_jacobian(p, zero)
            fd = np.zeros_like(jac)
            for l in range(p.d):
                qp = tuple(x + (step if i == l else 0) for i, x in enumerate(q))
                qm = tuple(x - (step if i == l else 0) for i, x in enumerate(q))
                sp = simplicial_coords(p, qp, zero).sigma
                sm = simplicial_coords(p, qm, zero).sigma
                fd[:, l] = [(float(a) - float(b)) / (2 * float(step))
                            for a, b in zip(sp, sm)]
            err = float(np.abs(jac - fd).max())
            assert err < 1e-8, f"max-norm error {err} on fixture n={p.n} d={p.d}"


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical sweeps, serial and parallel"):
        import json
        f = tmp_path / "square.json"
        f.write_text(json.dumps(
            {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
        env = dict(os.environ)
        cmd = [sys.executable, "-m", "barypoly", "sweep", str(f),
               "--mode", "census", "--grid", "9"]
        r1 = subprocess.run(cmd, capture_output=True, env=env)
        r2 = subprocess.run(cmd, capture_output=True, env=env)
        r3 = subprocess.run(cmd + ["--workers", "4"], capture_output=True, env=env)
        assert r1.returncode == r2.returncode == r3.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout == r3.stdout
        lines = r1.stdout.decode().strip().split("\n")
        assert len(lines) == 82
