import json
import random
from fractions import Fraction

import pytest

from barypoly import linalg
from barypoly.errors import (
    DimensionMismatchError,
    DuplicateVertexError,
    InternalError,
    NonExtremeVertexError,
    ParseError,
    RankDeficientError,
    TooFewVerticesError,
)
from barypoly.fixtures import fixture_document
from barypoly.oracle import random_polytope
from barypoly.polytope import (
    Location,
    Polytope,
    load_polytope,
    locate,
    parse_polytope,
    polytope_document,
    validate,
)
from helpers import interior_point

F = Fraction

SQUARE_ROWS = [[F(0), F(1), F(1), F(0)], [F(0), F(0), F(1), F(1)]]


def test_validate_square():
    p = validate(SQUARE_ROWS, 2)
    assert p.n == 4 and p.d == 2 and p.kernel_dim() == 1
    assert p.vertices[2] == (F(1), F(1))


def test_validate_non_extreme_centroid():
    rows = [[F(0), F(1), F(0), F(1, 3)],
            [F(0), F(0), F(1), F(1, 3)]]
    with pytest.raises(NonExtremeVertexError) as exc:
        validate(rows, 2)
    assert exc.value.index == 4


def test_validate_edge_midpoint_is_not_extreme():
    # the midpoint makes no turn with the square's edge: a hull walk that
    # kept points on a straight line would accept it
    rows = [row + [x] for row, x in zip(SQUARE_ROWS, (F(1, 2), F(0)))]
    with pytest.raises(NonExtremeVertexError) as exc:
        validate(rows, 2)
    assert exc.value.index == 5
    # listed first, it is still the vertex reported
    rows = [[x] + row for row, x in zip(SQUARE_ROWS, (F(1, 2), F(0)))]
    with pytest.raises(NonExtremeVertexError) as exc:
        validate(rows, 2)
    assert exc.value.index == 1


def _count_phase_ones(monkeypatch):
    """The list that every convex_membership call of validate appends to."""
    from barypoly import polytope

    calls = []
    real = polytope.convex_membership
    monkeypatch.setattr(polytope, "convex_membership",
                        lambda pts, x: calls.append(x) or real(pts, x))
    return calls


def test_plane_validation_runs_no_phase_one(monkeypatch):
    # the plane's extreme-point test is a hull walk; from d = 3 on a phase
    # one runs only for the vertices no integer functional certifies: none on
    # the pyramid and prism8, vertices 3, 5, 6 and 7 of a seeded census d3n8
    calls = _count_phase_ones(monkeypatch)
    for name, d, n in (("pentagon", 2, 0), ("pyramid", 3, 0), ("prism8", 3, 0)):
        calls.clear()
        doc = fixture_document(name)
        validate([[v[l] for v in doc["vertices"]] for l in range(d)], d)
        assert len(calls) == n
    calls.clear()
    census = random_polytope(3, 8, seed=9032)
    assert len(calls) == 4
    assert calls == [census.vertices[i] for i in (2, 4, 5, 6)]


# a tetrahedron and a fifth point above the centre of its slanted face
TETRAHEDRON = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]


@pytest.mark.parametrize("z, extreme", [(F(11, 10), True), (F(9, 10), False)])
def test_solid_validation_falls_back_to_a_phase_one(monkeypatch, z, extreme):
    # (3/2, 3/2, z) maximises no functional n·v_5 - Σ v_j over the five
    # points (vertex 2 beats it), so it alone runs a phase one: past the
    # face x + y + z = 4 (z = 11/10) it is extreme, below it (z = 9/10) it
    # is the first vertex in the hull of the others
    calls = _count_phase_ones(monkeypatch)
    pts = TETRAHEDRON + [(F(3, 2), F(3, 2), z)]
    rows = [[F(v[l]) for v in pts] for l in range(3)]
    if extreme:
        assert validate(rows, 3).n == 5
    else:
        with pytest.raises(NonExtremeVertexError) as exc:
            validate(rows, 3)
        assert exc.value.index == 5
    assert calls == [pts[4]]


def test_validate_collinear_rank_deficient():
    rows = [[F(0), F(1), F(2), F(3)],
            [F(0), F(1), F(2), F(3)]]
    with pytest.raises(RankDeficientError):
        validate(rows, 2)


def test_validate_too_few_and_duplicates():
    with pytest.raises(TooFewVerticesError):
        validate([[F(0), F(1)], [F(0), F(0)]], 2)
    rows = [[F(0), F(1), F(1), F(1)],
            [F(0), F(0), F(1), F(0)]]  # vertices 2 and 4 coincide
    with pytest.raises(DuplicateVertexError):
        validate(rows, 2)


def test_locate_square_examples():
    p = validate(SQUARE_ROWS, 2)
    inn = locate(p, (F(1, 2), F(1, 2)))
    assert inn.tag is Location.INTERIOR
    assert inn.barycentric == (F(1, 4),) * 4

    edge = locate(p, (F(1, 2), F(0)))
    assert edge.tag is Location.BOUNDARY
    lam = edge.barycentric
    assert all(x >= 0 for x in lam) and sum(lam) == 1

    out = locate(p, (F(2), F(2)))
    assert out.tag is Location.OUTSIDE
    a, b = out.separator
    assert all(linalg.dot(a, v) <= b for v in p.vertices)
    assert linalg.dot(a, (F(2), F(2))) > b


def test_locate_dimension_mismatch():
    p = validate(SQUARE_ROWS, 2)
    with pytest.raises(DimensionMismatchError):
        locate(p, (F(1), F(1), F(1)))


def test_locate_invariants_random_polytopes():
    rng = random.Random(42)
    for seed in range(6):
        d = 2 + seed % 2
        p = random_polytope(d, d + 3, seed=seed)
        assert locate(p, p.centroid()).tag is Location.INTERIOR
        for v in p.vertices:
            assert locate(p, v).tag is Location.BOUNDARY
        # Farkas soundness on a point pushed past a random vertex
        v = p.vertices[rng.randrange(p.n)]
        far = tuple(2 * x for x in v)
        loc = locate(p, far)
        if loc.tag is Location.OUTSIDE:
            a, b = loc.separator
            assert all(linalg.dot(a, u) <= b for u in p.vertices)
            assert linalg.dot(a, far) > b


def test_interior_certificate_is_strictly_positive():
    rng = random.Random(7)
    p = random_polytope(2, 6, seed=3)
    q = interior_point(p, rng)
    loc = locate(p, q)
    assert loc.tag is Location.INTERIOR
    assert all(x > 0 for x in loc.barycentric)
    assert sum(loc.barycentric) == 1


def test_locate_bad_certificate_is_internal_error(square, monkeypatch):
    from barypoly import polytope

    # no basic solution and a "certificate" y = 0, which separates nothing
    monkeypatch.setattr(polytope, "feasible_point", lambda *a: (None, [F(0)] * 3))
    with pytest.raises(InternalError) as exc:
        locate(square, (F(5), F(5)))
    assert exc.value.exit_code == 3


def test_parse_exact_decimals(tmp_path):
    doc = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0.1, 1]]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    p = load_polytope(f)
    assert p.vertices[3][0] == F(1, 10)  # exact decimal conversion
    f.write_text('{"dim": 2, "vertices": [[0,0],[1,0],[1,1],[2.5e-1,1]]}')
    assert load_polytope(f).vertices[3][0] == F(1, 4)  # exponents too


def test_parse_rational_strings_roundtrip(tmp_path):
    doc = {"dim": 2,
           "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["-1/3", "2/3"]]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(doc))
    p = load_polytope(f)
    assert p.vertices[3] == (F(-1, 3), F(2, 3))
    doc2 = polytope_document(p)
    p2 = parse_polytope(doc2)
    assert p2 == p


@pytest.mark.parametrize("doc", [
    [],
    {"dim": 2},
    {"dim": 0, "vertices": [[0]]},
    {"dim": 2, "vertices": []},
    {"dim": 2, "vertices": [[0, 0], [1], [1, 1]]},
    {"dim": 2, "vertices": [[0, "x"], [1, 0], [0, 1]]},
    {"dim": 2, "vertices": [[0, True], [1, 0], [0, 1]]},
    {"dim": 2, "vertices": [[0, "1/0"], [1, 0], [0, 1]]},
])
def test_parse_errors(doc):
    with pytest.raises(ParseError):
        parse_polytope(doc)


def test_load_malformed_json(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    with pytest.raises(ParseError):
        load_polytope(f)


def test_locate_interior_is_one_feasibility_solve(monkeypatch):
    from barypoly import polytope, simplex

    p = random_polytope(3, 8, seed=5)
    systems, tableaus = [], []
    real_feasible, real_bland = polytope.feasible_point, simplex._Tableau._bland
    monkeypatch.setattr(polytope, "feasible_point",
                        lambda a, b: systems.append(a) or real_feasible(a, b))
    monkeypatch.setattr(simplex._Tableau, "_bland",
                        lambda tab: tableaus.append(tab) or real_bland(tab))
    loc = locate(p, p.centroid())
    assert loc.tag is Location.INTERIOR
    # one phase one on the d-row homogenised system, no other LP
    assert len(systems) == len(tableaus) == 1
    assert len(systems[0]) == p.d


def test_pattern_table_is_not_part_of_the_value():
    # the pattern table and the kernel rows a polytope object keeps change no
    # comparison
    from barypoly.coordinates import lambda_vertices
    from barypoly.fixtures import fixture_document

    a, b = (parse_polytope(fixture_document("pentagon")) for _ in range(2))
    lambda_vertices(a, a.centroid())
    assert a._pattern_table and not b._pattern_table
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert {b: "b"}[a] == "b"
    assert len(a._kernel_rows) == a.n and a._kernel_rows[0]
    c = Polytope(b.d, b.n, b.vertices, ())
    assert c == b and hash(c) == hash(b) and repr(c) == repr(b)
    assert "_kernel_rows" not in repr(a)


def test_labels_is_an_unknown_key():
    # "labels" is ignored like any other key the format does not list
    doc = {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]], "labels": 5}
    p = parse_polytope(doc)
    assert p == validate([[F(0), F(1), F(0)], [F(0), F(0), F(1)]], 2)
    assert polytope_document(p) == {"dim": 2,
                                    "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


def test_validate_needs_d_coordinate_rows():
    # one coordinate row for d = 2 fails before any rank or extremality test
    with pytest.raises(DimensionMismatchError, match="expected 2 coordinate rows"):
        validate([[0, 1, 2]], 2)
