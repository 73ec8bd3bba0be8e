import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from barypoly.cli import main
from barypoly.errors import ParseError
from barypoly.report import AnalysisReport

F = Fraction


@pytest.fixture()
def square_file(tmp_path):
    f = tmp_path / "square.json"
    doc = {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    f.write_text(json.dumps(doc))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(square_file, capsys):
    code, out = run(capsys, "validate", square_file)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"valid": True, "n": 4, "dim": 2, "kernel_dim": 1}


def test_validate_bad_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{oops")
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_validate_rank_deficient(tmp_path, capsys):
    f = tmp_path / "flat.json"
    f.write_text(json.dumps(
        {"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2], [3, 3]]}))
    code, out = run(capsys, "validate", str(f))
    assert code == 1
    assert json.loads(out)["error"] == "RankDeficient"


def test_analyze_square_center(square_file, capsys):
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["location"] == "Interior"
    assert doc["dim"] == 1
    assert doc["theorem_count_match"] is True
    lams = [tuple(v["lambda"]) for v in doc["lambda_vertices"]]
    assert lams == [("0", "1/2", "0", "1/2"), ("1/2", "0", "1/2", "0")]
    rep = AnalysisReport.from_dict(doc)
    assert rep.to_dict() == doc  # lossless round-trip
    assert AnalysisReport.from_json(out) == rep


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_report_non_finite_number(square_file, capsys, value):
    # json writes these as Infinity, -Infinity and NaN; a report holding one
    # is a ParseError, as an input file holding one is
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    doc = json.loads(out)
    doc["point"][0] = value
    with pytest.raises(ParseError, match="invalid JSON"):
        AnalysisReport.from_json(json.dumps(doc))


def test_report_decimals_are_exact(square_file, capsys):
    # a decimal beyond the float range reads as its exact value
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    text = out.replace('"point": [\n    "1/2"', '"point": [\n    1e400', 1)
    assert text != out
    assert AnalysisReport.from_json(text).point == (F(10) ** 400, F(1, 2))


def test_report_nested_too_deep():
    # deeper than the interpreter's recursion limit: a ParseError, as a bad
    # number is, not a bare RecursionError
    with pytest.raises(ParseError, match="invalid JSON: maximum recursion depth"):
        AnalysisReport.from_json("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("value", ["1/0", True])
def test_report_bad_number(square_file, capsys, value):
    # a report vector is read as a vertex is: "1/0" is a ParseError, not a
    # ZeroDivisionError traceback, and a boolean is not the integer 1
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    doc = json.loads(out)
    doc["tau"][1] = value
    with pytest.raises(ParseError, match="report vector: bad coordinate"):
        AnalysisReport.from_json(json.dumps(doc))


@pytest.mark.parametrize("exponent", ["1e99999999", "1e-99999999"])
@pytest.mark.parametrize("entry", ["--point", "--h", "--t0", "polytope", "points",
                                   "report"])
def test_decimal_exponent_is_bounded(square_file, tmp_path, capsys, entry, exponent):
    # Fraction would build 10**99999999 and not return; every way a decimal
    # reaches the program refuses an exponent beyond linalg.MAX_EXPONENT
    # with a ParseError, at once
    why = "decimal exponent beyond ±4300"
    if entry == "report":
        code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
        text = out.replace('"point": [\n    "1/2"', f'"point": [\n    {exponent}', 1)
        assert text != out
        with pytest.raises(ParseError, match=f"invalid JSON: {why}"):
            AnalysisReport.from_json(text)
        return
    sweep = ["sweep", square_file, "--mode", "continuity", "--grid", "1"]
    argv = {"--point": ["analyze", square_file, "--point", f"{exponent},1/2"],
            "--h": sweep + ["--h", f"{exponent},0"],
            "--t0": sweep + ["--h", "1,0", "--t0", exponent]}.get(entry)
    if argv is None:
        text = SQUARE_TEXT % exponent if entry == "polytope" else f"[[{exponent}, 0.5]]"
        f, argv = _bad_input(square_file, tmp_path, entry[:-1] if entry == "points"
                             else entry, text.encode())
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert (code, doc["error"]) == (1, "ParseError")
    assert doc["detail"].endswith(f"{why})" if entry in ("polytope", "points")
                                  else why)


def test_decimal_exponent_at_the_bound_is_exact(square_file, tmp_path, capsys):
    # exponents within the bound still read exactly, from a points file and
    # from a report (values printed as p/q stay within Python's 4300 digits)
    f = tmp_path / "points.json"
    f.write_text("[[1e-4299, 0.5]]")
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--points", str(f))
    assert code == 0
    assert out.split("\n")[1] == f"1/{10 ** 4299},1/2,2,1,true,"
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    text = out.replace('"point": [\n    "1/2"', '"point": [\n    -25E+4298', 1)
    assert AnalysisReport.from_json(text).point == (-25 * F(10) ** 4298, F(1, 2))


def test_analyze_outside_exit_2(square_file, capsys):
    code, out = run(capsys, "analyze", square_file, "--point", "2,2")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "Outside"
    a = [F(x) for x in doc["certificate"]["normal"]]
    b = F(doc["certificate"]["offset"])
    assert a[0] * 2 + a[1] * 2 > b


def test_internal_error_exit_3(square_file, capsys, monkeypatch):
    from barypoly import cli
    from barypoly.errors import InternalError

    def broken(*args):
        raise InternalError("invariant violated")

    monkeypatch.setattr(cli.co, "feasible_tau", broken)
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    assert code == 3
    assert json.loads(out)["error"] == "InternalError"


def test_analyze_bad_point(square_file, capsys):
    code, out = run(capsys, "analyze", square_file, "--point", "1/2")
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_examples_listing_and_content(capsys):
    code, out = run(capsys, "examples")
    assert code == 0
    names = out.split()
    assert names == ["pentagon", "prism8", "pyramid", "square"]
    code, out = run(capsys, "examples", "square")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and len(doc["vertices"]) == 4
    code, out = run(capsys, "examples", "nonesuch")
    assert code == 1


def test_sweep_census_grid(square_file, capsys):
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--grid", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p1,p2,vertex_count,dim,theorem_count_match,error"
    assert len(lines) == 82
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2:] == ["2", "1", "true", ""]


def test_sweep_points_file_with_outside_row(square_file, tmp_path, capsys):
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps([["1/2", "1/2"], ["5", "5"], ["1/4", "3/4"]]))
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--points", str(pf))
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[2].endswith("Infeasible")
    assert lines[1].endswith("2,1,true,")


def test_sweep_empty_points(square_file, tmp_path, capsys):
    pf = tmp_path / "pts.json"
    pf.write_text("[]")
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--points", str(pf))
    assert code == 0
    assert out == "p1,p2,vertex_count,dim,theorem_count_match,error\n"


def test_sweep_continuity_columns(square_file, capsys):
    code, out = run(capsys, "sweep", square_file, "--mode", "continuity",
                    "--grid", "2", "--h", "1/64,0", "--steps", "4")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[-5:] == ["dist_0", "dist_1", "dist_2", "dist_3", "error"]
    cells = lines[1].split(",")
    dists = [float(x) for x in cells[5:9]]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_sweep_semidiff_runs(square_file, capsys):
    code, out = run(capsys, "sweep", square_file, "--mode", "semidiff",
                    "--grid", "2", "--h", "1,0", "--steps", "4",
                    "--t0", "1/16")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.endswith(",")  # no errors


def test_sweep_semidiff_center_witness(square_file, capsys):
    # grid 1 samples the bounding-box midpoint, i.e. the square's center
    code, out = run(capsys, "sweep", square_file, "--mode", "semidiff",
                    "--grid", "1", "--h", "1,0", "--steps", "6",
                    "--t0", "1/16")
    assert code == 0
    cells = out.strip().split("\n")[1].split(",")
    dists = [float(x) for x in cells[5:11]]
    assert all(x < 1e-6 for x in dists)


def test_sweep_semidiff_tiny_t0(square_file, capsys):
    # the quotient sets divide by t, so t0 = 5e-155 puts coordinates near
    # 1e154, whose squares add up past the float range: every row still
    # prints, with its witness distances
    code, out = run(capsys, "sweep", square_file, "--mode", "semidiff",
                    "--grid", "2", "--h", "1,0", "--steps", "3",
                    "--t0", "5e-155")
    assert code == 0
    assert out.splitlines()[1:] == [
        "1/3,1/3,2,1,true,0,0,0,", "1/3,2/3,2,1,true,0,0,0,",
        "2/3,1/3,2,1,true,0,0,0,", "2/3,2/3,2,1,true,0,0,0,"]


def test_sweep_requires_h(square_file, capsys):
    code, out = run(capsys, "sweep", square_file, "--mode", "continuity",
                    "--grid", "2")
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("options", [
    ["--mode", "census", "--t0", "abc"],
    ["--mode", "continuity", "--h", "1/64,0", "--t0", "0"],
    ["--mode", "continuity", "--h", "1/64,0", "--steps", "2"],
])
def test_sweep_bad_options(square_file, capsys, options):
    code, out = run(capsys, "sweep", square_file, "--grid", "2", *options)
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("row", [["a", "1/2"], [True, "1/2"], [None, "1/2"]])
def test_sweep_bad_point_coordinate(square_file, tmp_path, capsys, row):
    pf = tmp_path / "pts.json"
    pf.write_text(json.dumps([row]))
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--points", str(pf))
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("text, detail", [
    (None, "cannot read {}: [Errno 2] No such file or directory: '{}'"),
    ("{oops", "{}: invalid JSON (Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1))"),
])
def test_sweep_unreadable_points_file(square_file, tmp_path, capsys, text, detail):
    pf = tmp_path / "pts.json"
    if text is not None:
        pf.write_text(text)
    code, out = run(capsys, "sweep", square_file, "--mode", "census",
                    "--points", str(pf))
    assert code == 1
    assert json.loads(out) == {"error": "ParseError",
                               "detail": detail.format(pf, pf)}


SQUARE_TEXT = '{"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [%s, 1]]}'


def _bad_input(square_file, tmp_path, kind, data):
    """argv reading ``data`` as a polytope file or as a points file."""
    f = tmp_path / "in.json"
    f.write_bytes(data)
    if kind == "polytope":
        return f, ["validate", str(f)]
    return f, ["sweep", square_file, "--mode", "census", "--points", str(f)]


@pytest.mark.parametrize("kind", ["polytope", "points"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constant(square_file, tmp_path, capsys, kind, constant):
    text = SQUARE_TEXT % constant if kind == "polytope" else f"[[{constant}, 0.5]]"
    f, argv = _bad_input(square_file, tmp_path, kind, text.encode())
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "ParseError",
        "detail": f"{f}: invalid JSON (Invalid literal for Fraction: '{constant}')"}


@pytest.mark.parametrize("command", ["validate", "analyze", "sweep"])
def test_json_nested_too_deep(square_file, tmp_path, capsys, command):
    # a file nested deeper than the recursion limit is a ParseError on stdout
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    argv = {"validate": ["validate", str(f)],
            "analyze": ["analyze", str(f), "--point", "0,0"],
            "sweep": ["sweep", square_file, "--mode", "census", "--points", str(f)]}
    code, out = run(capsys, *argv[command])
    assert code == 1
    assert json.loads(out) == {
        "error": "ParseError",
        "detail": f"{f}: invalid JSON (maximum recursion depth exceeded while "
                  "decoding a JSON array from a unicode string)"}


@pytest.mark.parametrize("kind", ["polytope", "points"])
def test_non_utf8_file(square_file, tmp_path, capsys, kind):
    data = (SQUARE_TEXT % 0 if kind == "polytope" else "[[0.5, 0.5]]").encode()
    f, argv = _bad_input(square_file, tmp_path, kind, data[:-1] + b" \xff" + data[-1:])
    code, out = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ParseError"
    assert doc["detail"].startswith(f"{f}: invalid JSON ('utf-8' codec can't decode")


def test_point_and_vertex_messages_match(square_file, tmp_path, capsys):
    # one coordinate parser reads polytope and points files
    f, argv = _bad_input(square_file, tmp_path, "points", b"[[0.5, 0.5], [1]]")
    assert json.loads(run(capsys, *argv)[1])["detail"] == (
        "point 2 must be a list of 2 coordinates")
    f, argv = _bad_input(square_file, tmp_path, "polytope",
                         (SQUARE_TEXT % 0).replace("[1, 0]", "[1]").encode())
    assert json.loads(run(capsys, *argv)[1])["detail"] == (
        "vertex 2 must be a list of 2 coordinates")


@pytest.mark.parametrize("mode", ["continuity", "semidiff"])
@pytest.mark.parametrize("options", [
    ["--h", "1/64,0", "--steps", "1100"],     # the last step underflows
    ["--h", "1/64,0", "--t0", "1e-400"],      # below the smallest normal float
    ["--h", "0,0", "--t0", "1e400"],          # above the largest float
], ids=["steps", "t0-small", "t0-large"])
def test_sweep_steps_outside_the_float_range(square_file, capsys, mode, options):
    code, out = run(capsys, "sweep", square_file, "--mode", mode, "--grid", "2",
                    *options)
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_sweep_grid_xor_points(square_file, capsys):
    code, out = run(capsys, "sweep", square_file, "--mode", "census")
    assert code == 1


def test_oracle_check_agreement(square_file, capsys, monkeypatch):
    monkeypatch.setenv("BARYPOLY_SEED", "7")
    code, out = run(capsys, "oracle-check", square_file, "--point", "1/2,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["samples_feasible"] is True
    assert doc["seed"] == 7
    assert doc["lambda_vertices"] == doc["oracle_vertices"]


def test_oracle_check_bad_seed(square_file, capsys, monkeypatch):
    monkeypatch.setenv("BARYPOLY_SEED", "x")
    code, out = run(capsys, "oracle-check", square_file, "--point", "1/2,1/2")
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_oracle_check_outside(square_file, capsys):
    code, out = run(capsys, "oracle-check", square_file, "--point", "9,9")
    assert code == 2
    assert json.loads(out) == {"error": "Infeasible",
                               "detail": "point is outside the polytope"}


def test_oracle_check_empty_oracle_is_a_mismatch(square_file, capsys, monkeypatch):
    # the enumeration finds the centre inside, so an oracle that finds no
    # vertex disagrees with it: exit 3, not the outside code 2
    from barypoly import oracle

    monkeypatch.setattr(oracle, "_dd_reduced", lambda nb, tau, k: set())
    code, out = run(capsys, "oracle-check", square_file, "--point", "1/2,1/2")
    assert code == 3
    assert json.loads(out)["error"] == "OracleMismatch"


def test_oracle_check_runs_the_oracle_once(square_file, capsys, monkeypatch):
    from barypoly import cli

    calls = []
    real = cli.orc.dd_vertices
    monkeypatch.setattr(cli.orc, "dd_vertices",
                        lambda p, q: calls.append(q) or real(p, q))
    code, _ = run(capsys, "oracle-check", square_file, "--point", "1/3,1/2")
    assert code == 0
    assert len(calls) == 1


def test_oracle_check_samples_need_no_lp(tmp_path, capsys, monkeypatch):
    # samples are tested exactly, so every phase one left is validation's:
    # one for the tetrahedron's fifth vertex, just past its slanted face,
    # which the centroid functional and its 4n corrections leave (the
    # plane's hull walk and the certified vertices have none)
    from barypoly import coordinates, polytope, simplex

    solid_file = tmp_path / "tetrahedron-plus.json"
    solid_file.write_text(json.dumps({"dim": 3, "vertices": [
        [0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4], ["3/2", "3/2", "101/100"]]}))
    rows = []
    for module in (simplex, polytope, coordinates):
        real = module.feasible_point
        monkeypatch.setattr(module, "feasible_point",
                            lambda a, b, real=real: rows.append(len(a)) or real(a, b))
    assert run(capsys, "validate", str(solid_file))[0] == 0
    validation = list(rows)
    rows.clear()
    code, out = run(capsys, "oracle-check", str(solid_file), "--point=1,1,1/2",
                    "--samples", "5")
    assert code == 0
    assert json.loads(out)["samples_feasible"] is True
    assert len(rows) == 1
    assert rows == validation


@pytest.mark.parametrize("lam", [
    (F(1), F(0), F(0), F(0)),               # λ ≥ 0, Σλ = 1, V·λ ≠ p
    (F(0), F(1, 2), F(-1, 6), F(2, 3)),     # V·λ = p, Σλ = 1, λ_3 < 0
    (F(0), F(1, 3), F(0), F(1, 2)),         # V·λ = p, λ ≥ 0, Σλ = 5/6
], ids=["wrong-point", "negative", "wrong-sum"])
def test_oracle_check_infeasible_sample(square_file, capsys, monkeypatch, lam):
    # the sampler's integer core hands oracle-check lam as its sums s over
    # the total T: a wrong point, a negative entry and a wrong sum fail
    from barypoly import cli, linalg

    total, (sums,) = linalg.integer_rows([lam])
    monkeypatch.setattr(cli.orc, "_sample_sums",
                        lambda verts, count, seed: [(sums, total)])
    code, out = run(capsys, "oracle-check", square_file, "--point=1/3,1/2",
                    "--samples", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert doc["samples_feasible"] is False


@pytest.mark.parametrize("point, location, tau, solves", [
    ("1/2,0", "Boundary", ["1/2", "1/2", "0", "0"], [3]),
    ("1/3,1/2", "Interior", None, [3]),
    ("2,2", "Outside", None, [3]),
], ids=["boundary", "interior", "outside"])
def test_analyze_phase_one_count(square_file, capsys, monkeypatch,
                                 point, location, tau, solves):
    from barypoly import coordinates, polytope

    rows = []
    for module in (coordinates, polytope):
        real = module.feasible_point
        monkeypatch.setattr(module, "feasible_point",
                            lambda a, b, real=real: rows.append(len(a)) or real(a, b))
    code, out = run(capsys, "analyze", square_file, "--point", point)
    doc = json.loads(out)
    # tau's one [V; 1] solve: inside, the location is read off Lambda's
    # vertex supports; outside, the separator off its Farkas certificate
    assert rows == solves
    if location == "Outside":
        assert (code, doc["error"]) == (2, "Outside")
        return
    assert code == 0
    assert doc["location"] == location
    if tau is not None:
        assert doc["tau"] == tau


@pytest.mark.parametrize("name, point", [
    ("square", "2,1/2"), ("pentagon", "0,2"), ("pyramid", "0,0,-1"), ("prism8", "2,0,0")])
def test_outside_analyze_reads_its_certificate_off_tau(tmp_path, capsys, monkeypatch,
                                                       name, point):
    # one phase one, tau's on [V; 1ᵀ]: its Farkas certificate is the separator
    # locate reads off the same system after its d-row solve
    from barypoly import coordinates, polytope, simplex
    from barypoly.fixtures import fixture_document, get_fixture
    from barypoly.linalg import fr, rational_str

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(fixture_document(name)))
    calls = []
    for module in (simplex, polytope, coordinates):
        real = module.feasible_point
        monkeypatch.setattr(module, "feasible_point",
                            lambda a, b, real=real: calls.append(len(a)) or real(a, b))
    code, out = run(capsys, "analyze", str(path), "--point", point)
    assert code == 2 and len(calls) == 1
    a, b = polytope.locate(get_fixture(name), [fr(x) for x in point.split(",")]).separator
    assert json.loads(out)["certificate"] == {"normal": [rational_str(x) for x in a],
                                              "offset": rational_str(b)}


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--point", "-1/2,0"], 2),
    (["sweep", "--mode", "continuity", "--grid", "2", "--h", "-1/64,0"], 0),
    (["sweep", "--mode", "census", "--grid", "2", "--t0", "-1/8"], 0),
], ids=["point", "h", "t0"])
def test_option_value_with_leading_minus(square_file, capsys, argv, code):
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    spaced = run(capsys, argv[0], square_file, *argv[1:])
    assert spaced == run(capsys, joined[0], square_file, *joined[1:])
    assert spaced[0] == code
    if argv[0] == "analyze":
        assert json.loads(spaced[1])["error"] == "Outside"
    else:
        assert spaced[1].count("\n") == 5  # header and 4 grid rows


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--point", "1/2,1/2", "--samples", "-3"],
    ["sweep", "--mode", "census", "--grid", "-2"],
    ["sweep", "--mode", "census", "--grid", "0"],
    ["sweep", "--mode", "census", "--grid", "2", "--workers", "-4"],
    ["oracle-check", "--point", "1/2,1/2", "--samples", "100001"],
], ids=["samples", "grid-negative", "grid-zero", "workers", "samples-over-limit"])
def test_bad_counts(square_file, capsys, argv):
    code, out = run(capsys, argv[0], square_file, *argv[1:])
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"


def test_oracle_check_samples_are_bounded(tmp_path, capsys):
    # 10^8 samples would run for hours: a ParseError naming the count and the
    # limit, before the polytope file is read
    code, out = run(capsys, "oracle-check", str(tmp_path / "missing.json"),
                    "--point", "1/2,1/2", "--samples", "100000000")
    assert (code, json.loads(out)) == (1, {
        "error": "ParseError",
        "detail": "--samples 100000000 is over the limit of 100000"})


def test_cli_determinism_and_workers(square_file):
    env = dict(os.environ)
    cmd = [sys.executable, "-m", "barypoly", "sweep", square_file,
           "--mode", "census", "--grid", "5"]
    r1 = subprocess.run(cmd, capture_output=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, env=env)
    r3 = subprocess.run(cmd + ["--workers", "3"], capture_output=True, env=env)
    assert r1.returncode == r2.returncode == r3.returncode == 0
    assert r1.stdout == r2.stdout == r3.stdout


def test_analyze_stdout_is_deterministic(square_file):
    cmd = [sys.executable, "-m", "barypoly", "analyze", square_file,
           "--point", "1/3,1/2"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_too_many_patterns(tmp_path, capsys, monkeypatch):
    # the polygon on the parabola (i, i²), i = 0..85, validates, but it has
    # C(86, 3) = 102340 zero patterns: every reader of its pattern table stops
    # before the first wall is built with an error naming the count and limit
    from barypoly import linalg

    walls = []
    real_cofactors = linalg.cofactors
    monkeypatch.setattr(linalg, "cofactors",
                        lambda rows: walls.append(rows) or real_cofactors(rows))
    f = tmp_path / "parabola.json"
    f.write_text(json.dumps({"dim": 2, "vertices": [[i, i * i] for i in range(86)]}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 2], [2, 9]]))
    code, out = run(capsys, "validate", str(f))
    assert (code, json.loads(out)["n"]) == (0, 86)
    want = {"error": "TooManyPatterns",
            "detail": "102340 zero patterns exceed the limit of 100000"}
    for command in ("analyze", "oracle-check"):
        code, out = run(capsys, command, str(f), "--point", "1,2")
        assert (code, json.loads(out)) == (1, want)
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--points", str(pts))
    assert code == 0
    assert out.split("\n")[1:] == ["1,2,,,,TooManyPatterns",
                                   "2,9,,,,TooManyPatterns", ""]
    assert walls == []


def test_oracle_check_refuses_the_pattern_count_before_validating(tmp_path, capsys,
                                                                  monkeypatch):
    # the count C(n, n-d-1) needs only n and d: oracle-check reads the file's
    # shape, the point and the seed, and refuses a polytope past the budget
    # without validation's n phase ones, also when the polytope is invalid
    # (here, a repeated vertex)
    from barypoly import cli

    def validate(*args):
        raise AssertionError("validate ran")

    monkeypatch.setattr(cli, "validate", validate)
    want = {"error": "TooManyPatterns",
            "detail": "102340 zero patterns exceed the limit of 100000"}
    parabola = [[i, i * i] for i in range(86)]
    for verts in (parabola, parabola[:85] + [parabola[0]]):
        f = tmp_path / "parabola.json"
        f.write_text(json.dumps({"dim": 2, "vertices": verts}))
        code, out = run(capsys, "oracle-check", str(f), "--point", "1,2")
        assert (code, json.loads(out)) == (1, want)
        code, out = run(capsys, "oracle-check", str(f), "--point", "1,2,3")
        assert (code, json.loads(out)["error"]) == (1, "ParseError")
    # n <= d has no pattern count: validation refuses it
    monkeypatch.undo()
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0]]}))
    code, out = run(capsys, "oracle-check", str(f), "--point", "0,0")
    assert (code, json.loads(out)["error"]) == (1, "TooFewVertices")


def test_output_past_the_int_digit_limit(square_file, tmp_path, capsys):
    # 1e-4300 is in fr's input range, but its denominator 10**4300 has 4301
    # digits, more than str() of an int gives: a typed error, not a traceback,
    # and the process-wide limit that fr's input bound relies on stays
    limit = sys.get_int_max_str_digits()
    want = {"error": "TooManyDigits",
            "detail": f"an output value has more than {limit} digits"}
    for command in ("analyze", "oracle-check"):
        code, out = run(capsys, command, square_file, "--point=1e-4300,1/2")
        assert (code, json.loads(out)) == (1, want)
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["1e-4300", "0.5"], ["1/3", "1/2"]]))
    code, out = run(capsys, "sweep", square_file, "--mode", "census", "--points", str(pts))
    assert code == 0
    assert out.split("\n")[1:] == [",,,,,TooManyDigits", "1/3,1/2,2,1,true,", ""]
    code, out = run(capsys, "sweep", square_file, "--mode", "continuity",
                    "--points", str(pts), "--h=1/64,0", "--steps=3")
    assert code == 0
    assert out.split("\n")[1] == ",,,,,,,,TooManyDigits"
    assert sys.get_int_max_str_digits() == limit
    code, out = run(capsys, "analyze", square_file, "--point=1" + "0" * limit + ",0")
    assert (code, json.loads(out)["error"]) == (1, "ParseError")


# a convex pentagon moved off its integer corners by 1/(2^64 - k)
WIDE = {"dim": 2, "vertices": [[str(x + F(1, 2 ** 64 - 3 * i - l)) for l, x in enumerate(c)]
                               for i, c in enumerate([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])]}


def test_entries_past_the_int_digit_limit(tmp_path, capsys):
    # the point prints, its denominator 3**8990 has 4290 digits, but over the
    # pentagon's ~2^64 denominators Lambda's and Gamma's entries have more
    # than the limit: analyze, which writes them off the integer pass, gives
    # the typed error as the Fraction route's writer did
    from barypoly.coordinates import feasible_tau, gamma_polytope, lambda_vertices, nullbasis
    from barypoly.polytope import load_polytope

    limit = sys.get_int_max_str_digits()
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(WIDE))
    x = 1 + F(1, 3 ** 8990)
    assert len(str(x.denominator)) == 4290 < limit
    code, out = run(capsys, "analyze", str(f), f"--point={x},8/5")
    assert (code, json.loads(out)) == (1, {
        "error": "TooManyDigits", "detail": f"an output value has more than {limit} digits"})
    p = load_polytope(str(f))
    lam = lambda_vertices(p, (x, F(8, 5)))
    gam = gamma_polytope(p, feasible_tau(p, (x, F(8, 5))), nullbasis(p), lam)
    for vertices in ([v.lam for v in lam.vertices], gam.vertices):
        assert max(y.denominator for v in vertices for y in v) >= 10 ** limit


@pytest.mark.parametrize("mode", ["continuity", "semidiff"])
def test_probe_rows_with_a_tiny_direction(square_file, tmp_path, capsys, mode):
    # h = (1e-4300, 0) is exact with a 4301-digit denominator, which no row
    # prints: the probes keep it exact and the row gets its 8 distances
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["1/3", "1/2"]]))
    code, out = run(capsys, "sweep", square_file, "--mode", mode,
                    "--points", str(pts), "--h=1e-4300,0")
    assert code == 0
    cells = out.split("\n")[1].split(",")
    assert cells[:5] == ["1/3", "1/2", "2", "1", "true"]
    assert [math.isfinite(float(x)) for x in cells[5:13]] == [True] * 8
    assert cells[13:] == [""]


def test_sweep_rows_share_one_pattern_table(monkeypatch):
    # one pattern table per polytope object: a 5-point census sweep on a
    # freshly parsed prism8 builds its C(8, 3) = 56 walls once, off
    # C(7, 2) = 21 prefix eliminations (a scan per point made 350
    # eliminations), and continuity and semidiff rows on it build none
    from barypoly import cli, linalg
    from barypoly.fixtures import fixture_document
    from barypoly.polytope import parse_polytope

    p = parse_polytope(fixture_document("prism8"))
    prefixes = []
    real_pencil = linalg.cofactor_pencil
    monkeypatch.setattr(linalg, "cofactor_pencil",
                        lambda rows: prefixes.append(rows) or real_pencil(rows))
    pts = [(F(1, 2),) * 3, (F(1, 3), F(2, 5), F(1, 2)), (F(1, 4), F(1, 4), F(3, 4)),
           (F(1, 2), F(0), F(1, 2)), (F(2), F(0), F(0))]
    h = (F(1, 64), F(-1, 32), F(1, 128))
    rows = [cli._sweep_row(p, "census", pt, None, F(1, 8), 8) for pt in pts]
    assert len(prefixes) == math.comb(7, 2) == 21
    assert len(p._pattern_table[0]) == math.comb(8, 3) == 56
    assert [row.rsplit(",", 1)[1] for row in rows] == ["", "", "", "", "Infeasible"]
    for mode in ("continuity", "semidiff"):
        row = cli._sweep_row(p, mode, pts[1], h, F(1, 8), 8)
        assert row.endswith(",")  # no error
    assert len(prefixes) == 21


def test_main_builds_no_parser(square_file, capsys, monkeypatch):
    # the argparse tree is built once, at import: a call of main only parses
    import argparse

    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["analyze", square_file, "--point", "1/3,1/2"],
                 ["sweep", square_file, "--mode", "census", "--grid", "2"],
                 ["oracle-check", square_file, "--point", "1/2,1/2"]):
        code, out = run(capsys, *argv)
        assert code == 0, out
    assert built == []


@pytest.mark.parametrize("options, detail", [
    (["--mode", "census"], "exactly one of --grid or --points is required"),
    (["--mode", "census", "--grid", "0"], "--grid must be >= 1, got 0"),
    (["--mode", "census", "--grid", "2", "--workers", "0"],
     "--workers must be >= 1, got 0"),
    (["--mode", "census", "--grid", "2", "--t0", "abc"],
     "bad --t0 'abc': Invalid literal for Fraction: 'abc'"),
    (["--mode", "continuity", "--grid", "2"], "--h is required for mode continuity"),
    (["--mode", "semidiff", "--grid", "2", "--h", "1,0", "--steps", "2"],
     "mode semidiff needs --t0 > 0, --steps >= 3, and --t0 and "
     "--t0/2^(steps-1) in [float min, float max]"),
], ids=["grid-xor-points", "grid-zero", "workers", "t0", "h", "steps"])
def test_sweep_checks_flags_before_reading_the_file(tmp_path, capsys, monkeypatch,
                                                    options, detail):
    # a flag that needs no polytope is checked first: a bad flag on an
    # invalid file reports the flag, and the file is never read
    from barypoly import cli

    f = tmp_path / "flat.json"
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}))

    def read(path):
        raise AssertionError("read the polytope file before checking the flags")

    monkeypatch.setattr(cli, "read_json", read)
    code, out = run(capsys, "sweep", str(f), *options)
    assert (code, json.loads(out)) == (1, {"error": "ParseError", "detail": detail})
    monkeypatch.undo()
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--grid", "2")
    assert (code, json.loads(out)["error"]) == (1, "RankDeficient")


@pytest.mark.parametrize("options, detail", [
    (["--mode", "census", "--grid", "400"],
     "--grid 400 gives 400^2 points, more than the limit of 100000"),
    (["--mode", "census", "--points", "{bad}"], "points file must hold a list of points"),
    (["--mode", "census", "--points", "{missing}"],
     "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
    (["--mode", "semidiff", "--grid", "2", "--h", "1"],
     "direction must have 2 coordinates"),
], ids=["grid-bound", "points-shape", "points-missing", "h-length"])
def test_sweep_checks_what_needs_only_d_before_validating(tmp_path, capsys, monkeypatch,
                                                          options, detail):
    # the grid bound, the points file and --h need only the file's dim: they
    # are checked after its shape and before validation's n phase ones, so a
    # bad one on an invalid polytope reports the flag
    from barypoly import cli

    f = tmp_path / "flat.json"
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}))
    bad, missing = tmp_path / "bad.json", tmp_path / "missing.json"
    bad.write_text(json.dumps({"x": 1}))
    options = [x.format(bad=bad, missing=missing) for x in options]

    def validate(rows, d):
        raise AssertionError("validated the polytope before the checks that need d")

    monkeypatch.setattr(cli, "validate", validate)
    code, out = run(capsys, "sweep", str(f), *options)
    assert (code, json.loads(out)) == (1, {"error": "ParseError",
                                           "detail": detail.format(missing=missing)})
    # the file's own shape errors still come first
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1]]}))
    code, out = run(capsys, "sweep", str(f), *options)
    assert (code, json.loads(out)) == (1, {
        "error": "ParseError", "detail": "vertex 2 must be a list of 2 coordinates"})
    monkeypatch.undo()
    f.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 1], [2, 2]]}))
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--grid", "2")
    assert (code, json.loads(out)["error"]) == (1, "RankDeficient")


def test_sweep_grid_is_bounded(tmp_path, capsys, monkeypatch):
    # --grid 100 on prism8 asks for 100^3 = 10^6 points: a ParseError naming
    # the count and the limit before any point is built, not a silent hang
    from barypoly import cli
    from barypoly.fixtures import fixture_document

    f = tmp_path / "prism8.json"
    f.write_text(json.dumps(fixture_document("prism8")))
    real_grid = cli._grid_points
    built = []

    def grid_points(p, k):
        built.append(k)
        if k ** p.d > 100_000:  # fail at once where the bound is missing
            raise AssertionError(f"built a grid of {k}^{p.d} points")
        return real_grid(p, k)

    monkeypatch.setattr(cli, "_grid_points", grid_points)
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--grid", "100")
    assert (code, json.loads(out)) == (1, {
        "error": "ParseError",
        "detail": "--grid 100 gives 100^3 points, more than the limit of 100000"})
    assert built == []
    # the limit is inclusive: k^d at the limit runs, one more k does not
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--grid", "2")
    assert (code, len(out.splitlines()), built) == (0, 9, [2])
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--grid", "3")
    assert (code, json.loads(out)["error"], built) == (1, "ParseError", [2])


def test_one_integer_elimination_per_polytope(tmp_path, capsys, monkeypatch):
    # validation's kernel basis gives the rank test, N and dim Λ: analyze at
    # an interior point runs the integer loop once on [V; 1ᵀ] and once per
    # 2-vertex prefix of its wall values, C(7, 2) = 21 cofactors of 2 x 3
    # rows; so does oracle-check, whose oracle runs its own loop.  A census
    # sweep over interior points builds the table: once on [V; 1ᵀ] and once
    # per 2-vertex prefix of its C(8, 3) = 56 walls, C(7, 2) = 21 cofactor
    # pencils of 2 x 4 rows.  linalg keeps no rref
    from barypoly import linalg
    from barypoly.fixtures import fixture_document

    f = tmp_path / "prism8.json"
    f.write_text(json.dumps(fixture_document("prism8")))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["1/2", "1/2", "1/2"], ["1/3", "2/5", "1/2"],
                               ["1/4", "1/4", "3/4"], ["2/3", "1/3", "1/4"]]))
    assert not hasattr(linalg, "rref")
    eliminations, kernels = [], []
    real_eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate",
                        lambda rows: eliminations.append(rows) or real_eliminate(rows))
    for name in ("cofactors", "cofactor_pencil"):
        monkeypatch.setattr(linalg, name, lambda rows, name=name, real=getattr(linalg, name):
                            kernels.append((name, rows)) or real(rows))

    def one_stacked_elimination(kernel, count, shape):
        # of the eliminations since the last check, the one that is not a
        # wall kernel's has d + 1 rows of n entries, the last row 1ᵀ scaled
        # to integers, and the rest are ``count`` calls of ``kernel`` on
        # ``shape`` rows
        stacked, = [rows for rows in eliminations
                    if not any(rows is w for _, w in kernels)]
        assert (len(stacked), {len(row) for row in stacked}, len(set(stacked[-1]))) \
            == (4, {8}, 1)
        assert len(eliminations) == 1 + len(kernels) and len(kernels) == count
        assert {(name, len(w), *{len(row) for row in w})
                for name, w in kernels} == {(kernel, *shape)}
        eliminations.clear()
        kernels.clear()

    code, out = run(capsys, "analyze", str(f), "--point", "1/3,2/5,1/2")
    assert (code, json.loads(out)["location"]) == (0, "Interior")
    one_stacked_elimination("cofactors", math.comb(7, 2), (2, 3))
    code, out = run(capsys, "sweep", str(f), "--mode", "census", "--points", str(pts))
    rows = out.splitlines()[1:]
    assert (code, len(rows)) == (0, 4)
    assert all(row.endswith(",") for row in rows)  # empty error column
    one_stacked_elimination("cofactor_pencil", math.comb(7, 2), (2, 4))
    code, out = run(capsys, "oracle-check", str(f), "--point", "1/3,2/5,1/2")
    assert (code, json.loads(out)["agreement"]) == (0, True)
    one_stacked_elimination("cofactors", math.comb(7, 2), (2, 3))


def test_sweep_writes_each_row_as_it_is_computed(square_file, capsys, monkeypatch):
    # a failure at row k leaves the header and rows 1 … k-1 already on stdout
    from barypoly import cli

    code, full = run(capsys, "sweep", square_file, "--mode", "census", "--grid", "3")
    assert code == 0 and full.count("\n") == 10
    real_row, rows = cli._sweep_row, []

    def sweep_row(*args):
        if len(rows) == 4:
            raise RuntimeError("row 5")
        rows.append(args)
        return real_row(*args)

    monkeypatch.setattr(cli, "_sweep_row", sweep_row)
    with pytest.raises(RuntimeError, match="row 5"):
        main(["sweep", square_file, "--mode", "census", "--grid", "3"])
    assert capsys.readouterr().out == "".join(full.splitlines(True)[:5])


def test_closed_stdout_ends_the_sweep_quietly(square_file):
    # a reader that stops early (``| head``) closes the pipe: the sweep ends
    # with exit 1 and no traceback, after the rows the reader took.  300^2
    # rows are far more than a pipe buffer holds, so a write meets the closed
    # pipe
    with subprocess.Popen([sys.executable, "-m", "barypoly", "sweep", square_file,
                           "--mode", "census", "--grid", "300"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        header = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in proc.stderr.read()
    assert header == b"p1,p2,vertex_count,dim,theorem_count_match,error\n"


@pytest.mark.parametrize("argv, detail", [
    (["analyze", "{}"], "the following arguments are required: --point"),
    (["oracle-check", "{}", "--point", "1/2"], "point must have 2 coordinates"),
    (["sweep", "{}", "--mode", "continuity", "--grid", "2", "--h", "1"],
     "direction must have 2 coordinates"),
    (["sweep", "{}", "--mode", "census", "--points", "{points}"],
     "points file must hold a list of points"),
], ids=["missing-point", "oracle-point", "direction", "points-dict"])
def test_parse_error_details(square_file, tmp_path, capsys, argv, detail):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps({"x": 1}))
    code, out = run(capsys, *(a.format(square_file, points=points) for a in argv))
    assert (code, json.loads(out)) == (1, {"error": "ParseError", "detail": detail})


def test_report_without_fields_is_a_parse_error():
    with pytest.raises(ParseError, match="bad report document"):
        AnalysisReport.from_dict({})


@pytest.mark.parametrize("path, value", [
    (("dim",), "x"), (("dim",), True), (("dim",), 1.0), (("polytope", "dim"), "2"),
    (("polytope", "dim"), False), (("location",), 5), (("location",), "Outside"),
    (("theorem_count_match",), "yes"), (("theorem_count_match",), 1),
    (("lambda_vertices", 0, "support"), "ab"),
    (("lambda_vertices", 0, "support"), [2, True]),
    (("lambda_vertices", 0, "zeros"), ["1"]),
    (("lambda_vertices", 0, "zeros"), [1.0]),
])
def test_report_malformed_field_is_a_parse_error(square_file, capsys, path, value):
    # each field has one type: dims and support and zeros entries are ints
    # (no bools, no floats), the count match a bool, the location Interior or
    # Boundary; a string support is not read as its characters
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    doc = json.loads(out)
    AnalysisReport.from_dict(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError, match="bad report document"):
        AnalysisReport.from_dict(doc)


@pytest.mark.parametrize("path, value", [
    (("polytope", "vertices", 1), ["1"]),
    (("point",), ["1", "2", "3"]),
    (("tau",), ["1"]),
    (("lambda_vertices", 0, "lambda"), ["0", "1/2", "1/2"]),
    (("nullspace_basis",), [["-1"], ["1"], ["-1"]]),
    (("nullspace_basis", 2), ["-1", "0"]),
    (("gamma_vertices", 1), []),
    (("gamma_vertices",), [["1/2"]]),
    (("dim",), -7),
    (("dim",), 2),
    (("lambda_vertices", 0, "support"), [9, 9]),
    (("lambda_vertices", 0, "support"), [4, 2]),
    (("lambda_vertices", 0, "zeros"), [0, 1, 3]),
    (("lambda_vertices", 0, "zeros"), [1, 2]),
], ids=["vertex-length", "point-length", "tau-length", "lambda-length",
        "nbasis-rows", "nbasis-columns", "gamma-length", "gamma-count",
        "dim-negative", "dim-above-kernel", "support-repeated",
        "support-descending", "zeros-outside", "not-complements"])
def test_report_bad_shape_is_a_parse_error(square_file, capsys, path, value):
    # lengths must fit the square's d = 2 and n = 4: the vertices and the
    # point have d entries, tau and each lambda n, N is n rows of n - d - 1,
    # Gamma one vector of n - d - 1 per lambda, dim lies in 0..n - d - 1,
    # and support and zeros are strictly ascending complements in 1..n
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    doc = json.loads(out)
    AnalysisReport.from_dict(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError, match="bad report document"):
        AnalysisReport.from_dict(doc)


@pytest.mark.parametrize("path, value", [
    (("lambda_vertices", 0, "support"), [1, 3]),
    (("gamma_vertices", 0), ["7"]),
    (("theorem_count_match",), False),
], ids=["support-off-lambda", "gamma-off-lambda", "count-match-off-count"])
def test_report_fields_that_disagree_are_a_parse_error(square_file, capsys, path, value):
    # each field fits its shape, but the fields disagree: λ = (0, 1/2, 0, 1/2)
    # with support [1, 3] and zeros [2, 4] (its nonzero entries are 2 and 4),
    # a first Γ vertex 7 where λ - τ at N's unit row is 1/2, and a count
    # match false for 2 = n - d vertices
    code, out = run(capsys, "analyze", square_file, "--point", "1/2,1/2")
    doc = json.loads(out)
    assert doc["lambda_vertices"][0]["lambda"] == ["0", "1/2", "0", "1/2"]
    AnalysisReport.from_dict(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    if last == "support":
        doc["lambda_vertices"][0]["zeros"] = [2, 4]
    with pytest.raises(ParseError, match="bad report document"):
        AnalysisReport.from_dict(doc)


def test_report_documents_round_trip(tmp_path, capsys):
    # the agreement checks accept what analyze writes: interior and boundary
    # documents of prism8 and of a seeded d = 5 polytope with many Γ vertices
    from barypoly.fixtures import fixture_document
    from barypoly.oracle import random_polytope
    from barypoly.polytope import polytope_document

    for name, doc in (("prism8", fixture_document("prism8")),
                      ("d5n10", polytope_document(random_polytope(5, 10, seed=24)))):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc))
        verts = [[F(x) for x in v] for v in doc["vertices"]]
        centroid = [sum(col) / len(verts) for col in zip(*verts)]
        midpoint = [(a + b) / 2 for a, b in zip(verts[0], verts[1])]
        for point in (centroid, midpoint):
            code, out = run(capsys, "analyze", str(f),
                            "--point=" + ",".join(map(str, point)))
            assert code == 0, out
            rep = AnalysisReport.from_json(out)
            assert rep.to_json() + "\n" == out


def test_pick_selection_without_a_feasible_pattern_is_internal(square):
    # sweep rows pick a selection only after their census cells found Lambda(p)
    # non-empty on the same table reading, so finding none is an invariant
    # violation, not a bad input
    from barypoly import cli
    from barypoly.coordinates import _feasible_rows
    from barypoly.errors import InternalError

    with pytest.raises(InternalError, match="no feasible selection pattern"):
        cli._pick_selection(square.n, list(_feasible_rows(square, (2, 2))))
