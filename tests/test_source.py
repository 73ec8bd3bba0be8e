"""Guards on the package source itself."""

import ast
import inspect
from pathlib import Path

import pytest

import barypoly


def test_no_assert_statements():
    # python -O strips assert statements, so invariants raise typed errors
    src = Path(barypoly.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(module):
    """Dotted names a package module imports, relative imports resolved."""
    path = Path(barypoly.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["barypoly" if node.level else "",
                                          node.module]))
            names |= {f"{base}.{alias.name}" for alias in node.names}
    return names


def test_oracle_is_independent_of_the_scan():
    # two independent routes: the oracle shares linalg with the pattern scan,
    # but neither the simplex nor anything of coordinates but its result type
    names = _imported_names("oracle")
    assert "barypoly.coordinates.BarycentricVector" in names
    bad = sorted(name for name in names
                 if name.startswith("barypoly.simplex")
                 or name.startswith("barypoly.coordinates")
                 and name != "barypoly.coordinates.BarycentricVector")
    assert bad == []


def _identifiers(path):
    """Every name, attribute, imported name and string constant in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_phase_one_returns_its_answer():
    # phase one has two answers, a basic solution or a Farkas certificate, and
    # feasible_point returns them as a pair: no result record, no status
    # string for any module to compare
    from barypoly import simplex

    assert not hasattr(simplex, "LPResult") and not hasattr(simplex, "_phase_one")
    src = Path(barypoly.__file__).parent
    found = {path.stem: sorted(_identifiers(path) & {
        "LPResult", "_phase_one", "optimal", "infeasible", "unbounded"})
        for path in sorted(src.glob("*.py"))}
    assert {mod: names for mod, names in found.items() if names} == {}


def test_only_coordinates_eliminates_patterns():
    # coordinates' pattern table, its lone-point read and simplicial_coords
    # are the callers of the wall kernels, and the oracle
    # stays an independent route: it never reads the table or the wall
    # values, although the table lives on the Polytope object it is given.
    # The probes and the CLI read it only at points, through coordinates'
    # readers, and never see its layout; the CLI's _pick_selection unpacks
    # the rows those readers yield
    src = Path(barypoly.__file__).parent
    names = {path.stem: _identifiers(path) for path in sorted(src.glob("*.py"))}
    # the table's _walls runs linalg's prefix kernel, and _wall_values, which
    # reads a lone point, and simplicial_coords, whose keep set's Cramer
    # vector is one cofactor vector, its wall kernel
    kernels = {"cofactors", "cofactor_pencil"}
    assert {"_patterns", "_walls", "_wall_values", *kernels} <= names["coordinates"]
    assert sorted(mod for mod, found in names.items()
                  if found & {"_patterns", "_walls", "_wall_values", *kernels}) == [
        "coordinates"]
    tree = ast.parse((src / "coordinates.py").read_text(), "coordinates.py")
    assert {top.name: sorted(_names_in("coordinates", top.name) & kernels)
            for top in tree.body if isinstance(top, ast.FunctionDef)
            and _names_in("coordinates", top.name) & kernels} == {
        "_walls": ["cofactor_pencil"], "_wall_values": ["cofactors"],
        "simplicial_coords": ["cofactors"]}
    assert "_pattern_table" in names["polytope"]
    table = {"_pattern_table", "_table", "_evaluate", "_feasible_rows",
             "_vertices_at", "_read_rows", "_pattern_order", "_wall_values"}
    defined = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert table <= names["coordinates"] | names["polytope"] | defined
    assert sorted(names["oracle"] & table) == []
    layout = {"_pattern_table", "_table", "_sigma", "_evaluate", "_read_rows",
              "_pattern_order"}
    assert {mod: sorted(names[mod] & layout) for mod in ("probes", "cli")} == {
        "probes": [], "cli": []}


def test_pattern_table_is_built_from_walls():
    # the table's one kernel is linalg.cofactor_pencil, one call per
    # (d-1)-vertex prefix in _walls, which _patterns calls; neither calls
    # cofactors, the kernel of one wall.  No module defines or calls the
    # per-pattern elimination (bareiss) or its system (_solve_pattern), and
    # the evaluator reads wall values at a point with no elimination.
    # _patterns takes the walls and no pattern's determinant: the patterns are
    # combinatorial (_pattern_order), the reader sums their wall values, and
    # a row's sign is the sum of its signed walls' constant entries
    from barypoly import coordinates, linalg

    assert not hasattr(linalg, "bareiss") and not hasattr(coordinates, "_solve_pattern")
    src = Path(barypoly.__file__).parent
    found = {path.stem: sorted(_identifiers(path) & {"bareiss", "_solve_pattern"})
             for path in sorted(src.glob("*.py"))}
    assert {mod: names for mod, names in found.items() if names} == {}
    walls, patterns = (_names_in("coordinates", f) for f in ("_walls", "_patterns"))
    assert "cofactor_pencil" in walls and "_walls" in patterns
    assert "cofactors" not in walls | patterns
    evaluate = _names_in("coordinates", "_evaluate")
    assert sorted(evaluate & {"cofactors", "bareiss_row", "rref", "pivot",
                              "_patterns", "_table"}) == []
    assert sorted(_names_in("coordinates", "_patterns")
                  & {"mul", "abs", "det", "_read_rows", "_evaluate"}) == []
    assert sorted(_names_in("coordinates", "_pattern_order")
                  & {"cofactors", "mul", "sum", "abs", "det", "vertices",
                     "integer_rows"}) == []


def test_one_reader_forms_every_denominator():
    # _read_rows is the one function that forms a pattern row's denominator,
    # the sum of its signed wall values, and the one that reads a pattern's
    # wall ids; every point read of Lambda reaches it: a lone read
    # (_vertices_at), a table read (_feasible_rows), a ray step (_ray_keys),
    # a census read (_census_at), those three over the rows the wall signs
    # leave (_masked_rows).  simplicial_coords, which reads no pattern,
    # forms the one other denominator, the sum of its Cramer vector
    from barypoly import coordinates

    assert not hasattr(coordinates, "_lone_rows")
    path = Path(barypoly.__file__).parent / "coordinates.py"
    funcs = [node.name for node in ast.parse(path.read_text(), str(path)).body
             if isinstance(node, ast.FunctionDef)]
    assigned = {name: {t.id for node in ast.walk(_function("coordinates", name))
                       if isinstance(node, ast.Assign)
                       for t in node.targets if isinstance(t, ast.Name)}
                for name in funcs}
    assert [name for name in funcs if "den" in assigned[name]] == [
        "_read_rows", "simplicial_coords"]
    assert [name for name in funcs
            if "itemgetter" in _names_in("coordinates", name)] == ["_read_rows"]
    for reader in ("_vertices_at", "_masked_rows"):
        assert "_read_rows" in _names_in("coordinates", reader), reader
    for reader in ("_feasible_rows", "_ray_keys", "_census_at"):
        assert "_masked_rows" in _names_in("coordinates", reader), reader


def test_a_lone_point_reads_wall_values():
    # a lone read takes the wall values at the point off one cofactor per
    # (d-1)-vertex prefix, on integers, and streams the patterns through the
    # one reader: _wall_values, _pattern_order and _read_rows build no
    # Fraction and read neither the table nor its evaluator, and
    # _vertices_at checks the pattern budget before any of them runs; it has
    # this one route, whether or not the polytope holds a table
    assert "cofactors" in _names_in("coordinates", "_wall_values")
    for function in ("_wall_values", "_pattern_order", "_read_rows"):
        assert sorted(_names_in("coordinates", function)
                      & {"Fraction", "_ZERO", "_ONE", "fr", "vec", "_sigma", "_table",
                         "_pattern_table", "_evaluate", "_patterns"}) == []
    reads = _names_in("coordinates", "_vertices_at")
    assert {"check_pattern_count", "_wall_values", "_pattern_order", "_read_rows"} <= reads
    assert sorted(reads & {"_pattern_table", "_feasible_rows", "_table",
                           "_masked_rows"}) == []


def test_simplicial_coords_has_one_route():
    # simplicial_coords reads its keep set's Cramer vector off one
    # linalg.cofactors call, whether or not the polytope holds a table: it
    # reads no table, no wall values of the whole vertex list and no
    # pattern row, looks no wall up by rank and builds no wall; the
    # selection Jacobian calls it at 0 and at each e_l, and no module keeps
    # a second keep-set reader
    coords = _names_in("coordinates", "simplicial_coords")
    assert "cofactors" in coords
    assert sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "linalg.cofactors"
               for node in ast.walk(_function("coordinates", "simplicial_coords"))) == 1
    assert sorted(coords & {"_wall_values", "_read_rows", "_table", "_pattern_table",
                            "_evaluate", "comb", "_wall"}) == []
    assert "simplicial_coords" in _names_in("probes", "_selection_jacobian_exact")
    src = Path(barypoly.__file__).parent
    assert sorted(path.stem for path in src.glob("*.py")
                  if "_simplicial_at" in _identifiers(path)) == []
    # the pattern table is read by _table alone, and linalg.cofactors has
    # two callers in the package, the lone read's walls and sigma_Z
    def users(name):
        return sorted(f"{path.stem}.{top.name}" for path in sorted(src.glob("*.py"))
                      for top in ast.parse(path.read_text(), str(path)).body
                      if isinstance(top, ast.FunctionDef)
                      and any(name in (getattr(node, "id", None), getattr(node, "attr", None))
                              for node in ast.walk(top)))

    assert users("_pattern_table") == ["coordinates._table"]
    assert users("cofactors") == ["coordinates._wall_values",
                                  "coordinates.simplicial_coords"]


def test_gamma_runs_no_elimination():
    # Gamma reads each vertex off N's unit rows and checks the other d + 1
    # rows: no solve, no elimination, no product with all n rows
    path = Path(barypoly.__file__).parent / "coordinates.py"
    tree = ast.parse(path.read_text(), str(path))
    func, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "gamma_polytope"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(func)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(names & {"rref", "mat_vec", "solve_linear", "bareiss"}) == []


def test_gamma_reads_the_integer_pass():
    # Gamma tests each vertex on the integer pass's int rows over their
    # common denominator: gamma_polytope scales a LambdaPolytope's vertices
    # to them (integer_rows), and the LambdaPolytope, which only
    # lambda_vertices builds, keeps no second copy; the residual test builds
    # no Fraction and takes no Fraction product, and its core returns int
    # rows, which gamma_polytope alone turns into Fractions
    func = _function("coordinates", "_gamma_rows")
    residuals, = [node for node in ast.walk(func)
                  if isinstance(node, ast.FunctionDef) and node.name == "residuals"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(residuals)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(names & {"Fraction", "fr", "vec", "mat", "dot", "mat_vec"}) == []
    core = _names_in("coordinates", "_gamma_rows")
    assert "integer_rows" in core and sorted(core & {"Fraction", "vertices"}) == []
    gamma = _names_in("coordinates", "gamma_polytope")
    assert {"integer_rows", "vertex_arrays", "_gamma_rows"} <= gamma
    assert sorted(gamma & {"_rows", "vertices", "_vertex_rows"}) == []
    from barypoly.coordinates import LambdaPolytope
    assert [field for field in LambdaPolytope._fields if field.startswith("_")] == []
    src = Path(barypoly.__file__).parent
    builders = sorted(f"{path.stem}.{top.name}" for path in src.glob("*.py")
                      for top in ast.parse(path.read_text(), str(path)).body
                      if isinstance(top, ast.FunctionDef)
                      and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id == "LambdaPolytope"
                              for node in ast.walk(top)))
    assert builders == ["coordinates.lambda_vertices"]


def test_caratheodory_reads_the_basic_solution():
    # one phase one gives a basic solution, whose support is already
    # affinely independent: no reduction loop, no elimination after it
    path = Path(barypoly.__file__).parent / "coordinates.py"
    tree = ast.parse(path.read_text(), str(path))
    func, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "caratheodory_decompose"]
    calls = [node.func.id for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)]
    assert calls.count("convex_membership") == 1
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(func)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(names & {"reduce_convex_combination", "nullspace_basis", "rref",
                           "rank", "affine_dim", "solve_linear", "bareiss"}) == []


def _function(module, function):
    """The AST of one top-level function of a module."""
    path = Path(barypoly.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    func, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == function]
    return func


def _names_in(module, function):
    """Every name and attribute used in one top-level function of a module."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(_function(module, function))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_one_elimination_of_the_stacked_matrix():
    # validation eliminates [V; 1ᵀ] once, for its kernel basis, whose column
    # count is the rank test; nullbasis returns the kept rows and dim Λ reads
    # the rank of N's rows off the support, so neither eliminates [V; 1ᵀ]
    validate = _names_in("polytope", "validate")
    assert "nullspace_basis" in validate and "rank" not in validate
    assert sorted(_names_in("coordinates", "nullbasis")
                  & {"nullspace_basis", "rref"}) == []
    assert "affine_dim" not in _names_in("coordinates", "lambda_vertices")


def test_analyze_reads_the_certificate_off_tau():
    # analyze reads Interior/Boundary off Λ(p)'s vertex supports after tau's
    # one phase one, and an outside point's separator off the InfeasibleError
    # of that same phase one: it never locates the point
    names = _names_in("cli", "_analysis_report")
    assert "feasible_tau" in names and "separator" in names
    assert "locate" not in names
    assert "barypoly.polytope.locate" not in _imported_names("cli")


def test_analyze_writes_off_the_integer_pass():
    # analyze's document is written from the int rows of Lambda's vertices
    # and Gamma's: no Fraction vertex list, no per-vertex record, and none
    # of the Fraction wrappers over the integer cores; the document's keys
    # live in report.analysis_document, which AnalysisReport.to_dict fills
    # too
    names = _names_in("cli", "_analysis_report")
    assert {"_lambda_rows", "_gamma_rows", "analysis_document"} <= names
    assert sorted(names & {"_vertex_list", "_sigma", "Fraction", "LambdaVertexEntry",
                           "lambda_vertices", "gamma_polytope", "AnalysisReport"}) == []
    for function in ("lambda_entries", "ratio_rows"):
        assert sorted(_names_in("report", function) & {"Fraction", "fr", "rational_str"}) == []
    doc = _function("report", "analysis_document")
    assert [k.value for node in ast.walk(doc) if isinstance(node, ast.Dict)
            for k in node.keys][:3] == ["polytope", "point", "location"]
    path = Path(barypoly.__file__).parent / "report.py"
    report, = [node for node in ast.parse(path.read_text(), str(path)).body
               if isinstance(node, ast.ClassDef) and node.name == "AnalysisReport"]
    assert "analysis_document" in {node.id for node in ast.walk(report)
                                   if isinstance(node, ast.Name)}


def test_one_interior_rule():
    # analyze's location and semidiff's basepoint test ask one function of
    # coordinates whether Lambda's vertex supports cover 1..n
    for module, function in (("cli", "_analysis_report"), ("probes", "_semidiff_witness")):
        names = _names_in(module, function)
        assert "is_interior" in names
        assert sorted(names & {"union", "enumerate"}) == []


def test_cli_solves_no_lp():
    # oracle-check tests its samples exactly against [V; 1ᵀ]λ = [p; 1],
    # λ ≥ 0, so the front door imports nothing from the simplex
    names = _imported_names("cli")
    assert "barypoly.oracle" in names
    assert sorted(name for name in names
                  if name.startswith("barypoly.simplex")) == []


def test_probes_read_the_pattern_table():
    # probes read every vertex list and the Jacobian from coordinates' pattern
    # system: no phase one, no point location, no elimination of their own
    names = _imported_names("probes")
    path = Path(barypoly.__file__).parent / "probes.py"
    names |= {f"barypoly.linalg.{node.attr}"
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "linalg"}
    assert any(name.startswith("barypoly.coordinates") for name in names)
    assert sorted(name for name in names
                  if name.startswith("barypoly.simplex")
                  or name in ("barypoly.polytope.locate", "barypoly.linalg.bareiss",
                              "barypoly.linalg.integer_rows")) == []


def test_no_numpy_in_the_package():
    # the probes run on plain floats: numpy is a test dependency only
    src = Path(barypoly.__file__).parent
    found = sorted(f"{path.name}: {name}"
                   for path in src.glob("*.py")
                   for name in _imported_names(path.stem)
                   if name.split(".")[0] == "numpy")
    assert found == []


def test_cli_does_not_load_numpy(tmp_path):
    # a cold start imports no numpy, nor does a whole analyze call
    import subprocess
    import sys

    f = tmp_path / "square.json"
    f.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}')
    script = (
        "import sys\n"
        "import barypoly.cli\n"
        "print('numpy' in sys.modules)\n"
        f"rc = barypoly.cli.main(['analyze', {str(f)!r}, '--point=1/3,1/2'])\n"
        "print(rc, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False")


def test_analyze_compiles_no_probe_code(tmp_path):
    # the package resolves its public names on first access and the CLI
    # imports the probes and the fixtures only where a command needs them,
    # so a cold analyze imports neither; its records need no dataclasses
    # (which imports inspect) and its annotations no typing.  -S keeps site
    # from importing modules of its own (typing, through a .pth file)
    import subprocess
    import sys

    f = tmp_path / "square.json"
    f.write_text('{"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}')
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "barypoly",
                           "analyze", str(f), "--point=1/3,1/2"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "barypoly.cli" in imported
    assert sorted(imported & {"barypoly.probes", "barypoly.fixtures", "dataclasses",
                              "inspect", "typing"}) == []


def test_no_dataclasses_or_typing_in_the_package():
    # the records are barypoly.records.Record classes and the annotations
    # take Sequence from collections.abc: a cold start imports neither module
    src = Path(barypoly.__file__).parent
    found = sorted(f"{path.name}: {name}"
                   for path in src.glob("*.py")
                   for name in _imported_names(path.stem)
                   if name.split(".")[0] in ("dataclasses", "typing"))
    assert found == []


def test_every_public_name_resolves():
    # each name in __all__ imports from the package, as the module that
    # defines it gives it, and a star import binds them all
    import importlib

    for name in barypoly.__all__:
        scope = {}
        exec(f"from barypoly import {name}", scope)
        home = importlib.import_module(f"barypoly.{barypoly._HOME[name]}")
        assert scope[name] is getattr(home, name)
    scope = {}
    exec("from barypoly import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == sorted(barypoly.__all__)
    assert set(barypoly.__all__) <= set(dir(barypoly))
    with pytest.raises(AttributeError):
        barypoly.solve_linear


def test_one_verdict_rule_and_one_step_rule():
    # one function of probes.py chooses "Converges" and "Diverges", and the
    # CLI asks the probes' step rule instead of comparing --steps itself
    src = Path(barypoly.__file__).parent
    tree = ast.parse((src / "probes.py").read_text(), "probes.py")
    owners = [getattr(top, "name", type(top).__name__) for top in tree.body
              if any(isinstance(node, ast.Constant)
                     and node.value in ("Converges", "Diverges")
                     for node in ast.walk(top))]
    assert owners == ["_report"]
    tree = ast.parse((src / "cli.py").read_text(), "cli.py")
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(x, ast.Name) and x.id == "steps"
                        for x in [node.left, *node.comparators])]
    assert compared == []
    assert "_float_steps" in _names_in("cli", "run_sweep")


def test_oracle_runs_its_own_elimination():
    # the oracle reads the int rows g = L (N, tau) and the free columns, where
    # N's rows are the unit vectors, off its own primitive-row Gauss-Jordan
    # loop on integers: none of linalg's eliminations, no Fraction and only
    # exact (//) division; no kernel basis to transpose, no search for unit
    # rows, no row-value helper, and double description carries each vertex
    # as its coordinate vector, which dd_vertices returns as it is
    names = _identifiers(Path(barypoly.__file__).parent / "oracle.py")
    assert sorted(names & {"nullspace_basis", "index", "_row_value"}) == []
    loop = _names_in("oracle", "_reduced_system")
    assert {"integer_rows", "gcd", "lcm"} <= loop
    assert sorted(loop & {"eliminate", "bareiss_row", "cofactors", "nullspace_basis",
                          "rank", "rref", "pivot", "Fraction", "_ZERO"}) == []
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   for node in ast.walk(_function("oracle", "_reduced_system")))
    assert sorted(_names_in("oracle", "dd_vertices") & {"dot", "mat_vec", "zip"}) == []


def test_oracle_check_runs_on_integers():
    # double description inserts each row on integer rays, so its per-row
    # loop calls no linalg kernel, builds no Fraction and divides only
    # exactly (by a gcd, with //); oracle-check tests its samples as the
    # sampler's integer sums on integer rows, with no Fraction and no
    # matrix-vector product, and its agreement as the oracle's sorted list
    # scaled to ints against the integer pass's (M, rows), written off the
    # ints, with no Fraction vertex list built for Lambda
    from barypoly import linalg, oracle

    kernels = {name for name, obj in vars(linalg).items()
               if inspect.isfunction(obj) and obj.__module__ == linalg.__name__}
    loop, = [node for node in _function("oracle", "_dd_reduced").body
             if isinstance(node, ast.For)]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(loop) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "dot" in kernels
    assert sorted(names & (kernels | {"linalg", "Fraction"})) == []
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   for node in ast.walk(loop))
    checks = _names_in("oracle", "samples_feasible")
    assert {"integer_rows", "_sample_sums"} <= checks
    for func in ("samples_feasible", "_sample_sums"):
        assert sorted(_names_in("oracle", func)
                      & {"Fraction", "random_feasible_sample", "mat_vec", "dot"}) == []
    run = _names_in("cli", "run_oracle_check")
    assert "samples_feasible" in run
    assert {"_lambda_rows", "integer_rows", "ratio_rows"} <= run
    assert sorted(run & {"random_feasible_sample", "vertices_agree", "set",
                         "lambda_vertices", "vertex_arrays", "rational_str"}) == []
    assert not hasattr(oracle, "solves") and not hasattr(oracle, "_ray")
    assert "mat_vec" not in _identifiers(Path(barypoly.__file__).parent / "cli.py")


def test_floats_add_left_to_right():
    # sum of floats rounds differently from Python 3.12 on and math.fsum
    # raises past the float range: the probes and the seeded polytope
    # generator add floats with linalg.float_sum only
    probes = _identifiers(Path(barypoly.__file__).parent / "probes.py")
    assert sorted(probes & {"sum", "fsum"}) == []
    assert "float_sum" in probes
    assert "float_sum" in _names_in("oracle", "random_polytope")


def test_scan_runs_on_integer_cross_products():
    # the oracle's k <= 2 cross-check reads each tight point off integer
    # cross products of the elimination's int rows g, as given (nothing to
    # scale): no solve, no elimination, no exception to catch and only exact
    # (//) division; linalg keeps no square solver, which only this scan
    # called
    from barypoly import linalg

    func = _function("oracle", "_scan_reduced")
    names = _names_in("oracle", "_scan_reduced")
    assert sorted(names & {"integer_rows", "solve_linear", "rref", "bareiss"}) == []
    assert not any(isinstance(node, ast.Try) for node in ast.walk(func))
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                   for node in ast.walk(func))
    assert not hasattr(linalg, "solve_linear")
    assert "solve_linear" not in barypoly.__all__


def test_semidiff_rows_compute_only_what_they_print():
    # a semidiff sweep row prints the witness distances: it runs the witness
    # function, not the probe with its consecutive-set Hausdorff series, and
    # the witness function builds its quotient sets on integers, with no
    # Fraction and no FloatPolytope.from_exact
    row = _names_in("cli", "_sweep_row")
    assert "_semidiff_witness" in row
    assert sorted(row & {"semidiff_probe", "_hausdorff_status", "hausdorff"}) == []
    assert "_semidiff_witness" in _names_in("probes", "semidiff_probe")
    witness = _names_in("probes", "_semidiff_witness") | _names_in("probes", "_quotients")
    assert "_point_distance_status" in witness
    assert sorted(witness & {"Fraction", "from_exact", "_hausdorff_status"}) == []


def test_hausdorff_runs_each_vertex_with_a_cutoff():
    # the Hausdorff distance prints only the largest vertex distance: each
    # vertex that runs calls _min_norm_point with the largest distance so far
    # as its cutoff, not _point_distance_status, which runs each to its stop,
    # and the loop over the runs ends at the first vertex whose nearest-vertex
    # bound is within that maximum.  A run's differences b_j - x
    # (operator.sub) are built inside that loop, so only the runs that run
    # build them, and nothing calls _differences
    func = _function("probes", "_hausdorff_status")
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_min_norm_point"]
    assert calls and all(len(call.args) + len(call.keywords) >= 4 for call in calls)
    names = _names_in("probes", "_hausdorff_status")
    assert sorted(names & {"_point_distance_status", "_differences"}) == []
    assert "cutoff" in _names_in("probes", "_min_norm_point")
    loop = [node for node in func.body if isinstance(node, ast.For)][-1]
    inside = {node.attr for node in ast.walk(loop) if isinstance(node, ast.Attribute)}
    before = {node.attr for stmt in func.body[:func.body.index(loop)]
              for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
    assert any(isinstance(node, ast.Break) for node in ast.walk(loop))
    assert "sub" in inside and "sub" not in before


def test_census_rows_build_no_fraction():
    # a census row prints Lambda's vertex count and dim, which the integer
    # pass's vertex keys give (or, off every wall, the count of surviving
    # rows): its cells read no Fraction vertex list, and
    # _sigma, which builds a coordinate vector's Fractions, runs only in the
    # Fraction pass and for the keep-set read's one row (simplicial_coords),
    # never in the integer pass or the count
    assert {"_census_cells", "_census_at", "_census"} <= _names_in("cli", "_sweep_row")
    for function in ("_census_cells", "_sweep_row"):
        assert sorted(_names_in("cli", function)
                      & {"lambda_vertices", "_vertices_at", "_vertex_list", "_sigma",
                         "Fraction"}) == []
    path = Path(barypoly.__file__).parent / "coordinates.py"
    tree = ast.parse(path.read_text(), str(path))
    callers = sorted(top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                     and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id == "_sigma" for node in ast.walk(top)))
    assert callers == ["_vertex_list", "simplicial_coords"]
    for function in ("_vertex_keys", "_census"):
        assert sorted(_names_in("coordinates", function) & {"_sigma", "Fraction"}) == []
    src = Path(barypoly.__file__).parent
    assert sorted(path.stem for path in src.glob("*.py")
                  if "_sigma" in _identifiers(path)) == ["coordinates"]


def test_probe_steps_round_integer_rows():
    # each probe step reads its vertices as int rows over one denominator and
    # rounds them to floats (or quotients) itself: no Fraction vertex list,
    # no float(Fraction); the Fraction pass serves lambda_vertices alone
    for function in ("_probe_samples", "continuity_probe", "_semidiff_witness",
                     "_quotients"):
        assert sorted(_names_in("probes", function)
                      & {"_vertex_list", "from_exact", "_fractions"}) == []
    assert "_vertex_rows" in _names_in("probes", "_probe_samples")
    src = Path(barypoly.__file__).parent
    assert sorted(path.stem for path in src.glob("*.py")
                  if "_vertex_list" in _identifiers(path)) == ["coordinates"]
    path = src / "coordinates.py"
    callers = sorted(top.name for top in ast.parse(path.read_text(), str(path)).body
                     if isinstance(top, ast.FunctionDef)
                     and "_vertex_list" in _names_in("coordinates", top.name))
    assert callers == ["lambda_vertices"]


def test_plane_validation_is_a_hull_walk():
    # validate's d = 2 extreme-point test walks the hull on integer cross
    # products: no phase one, no Fraction
    assert "_plane_hull" in _names_in("polytope", "validate")
    assert sorted(_names_in("polytope", "_plane_hull")
                  & {"convex_membership", "feasible_point", "Fraction", "_ONE", "fr",
                     "vec", "mat"}) == []


def test_solid_validation_certifies_before_any_phase_one():
    # from d = 3 on, validate runs a phase one only for the vertices that one
    # integer functional each does not prove extreme: no Fraction, no phase
    # one in the certificate
    assert "_certified" in _names_in("polytope", "validate")
    assert sorted(_names_in("polytope", "_certified")
                  & {"convex_membership", "feasible_point", "Fraction", "_ONE", "fr",
                     "vec", "mat"}) == []


def test_probe_steps_read_the_ray_on_integers():
    # the walls are read once at the basepoint and once along h, and each
    # step's values are integer multiply-adds of the two: no step builds its
    # point pt + t·h, and the ray's values go through the one reader
    func = _function("probes", "_probe_samples")
    loops = [node for node in ast.walk(func)
             if isinstance(node, (ast.For, ast.ListComp, ast.GeneratorExp))]
    assert loops and all(
        "_vertices_at" not in {n.attr for n in ast.walk(loop)
                               if isinstance(n, ast.Attribute)}
        for loop in loops)
    assert "_ray_keys" in _names_in("probes", "_probe_samples")
    ray = _names_in("coordinates", "_ray_keys")
    assert "_masked_rows" in ray
    assert sorted(ray & {"_evaluate", "_vertices_at", "Fraction", "fr", "vec",
                         "_sigma"}) == []


def test_one_integer_loop_under_the_kernels():
    # the wall cofactors, validation's kernel basis and the rank read one
    # fraction-free loop, linalg.eliminate, and no src/ module names a
    # Fraction rref: the DD oracle runs its own primitive-row loop, apart
    # from the scan's
    src = Path(barypoly.__file__).parent
    naming = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if "rref" in names:
                    naming.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.alias) and node.name == "rref":
                naming.append(f"{path.stem}: import")
    assert naming == []
    for kernel in ("cofactors", "nullspace_basis", "rank"):
        names = _names_in("linalg", kernel)
        assert "eliminate" in names
        assert sorted(names & {"rref", "pivot", "bareiss_row"}) == []
    for kernel in ("eliminate", "cofactors", "rank"):
        assert sorted(_names_in("linalg", kernel)
                      & {"Fraction", "_ZERO", "_ONE", "fr", "vec", "mat"}) == []
    assert "bareiss_row" in _names_in("linalg", "eliminate")


def test_row_signs_are_built_with_the_table():
    # the rows and the per-wall sign bitsets are built in _patterns, in the
    # pass that lists the rows, and only there; a read ORs the bitsets of
    # the walls whose values rule rows out (_survivors, one loop over the
    # walls, whose one shift is the mask of all rows) and walks the bits
    # left in one linear pass (_masked_rows), never a bit at a time
    path = Path(barypoly.__file__).parent / "coordinates.py"
    tree = ast.parse(path.read_text(), str(path))
    funcs = [top.name for top in tree.body if isinstance(top, ast.FunctionDef)]

    def nodes(name, kind):
        return [node for node in ast.walk(_function("coordinates", name))
                if isinstance(node, kind)]

    assert [name for name in funcs
            if any(isinstance(node.op, ast.LShift) for node in nodes(name, ast.BinOp))] == [
        "_patterns", "_survivors"]
    assert len([node for node in nodes("_survivors", ast.BinOp)
                if isinstance(node.op, ast.LShift)]) == 1
    assert [name for name in funcs if "needs" in _names_in("coordinates", name)] == ["_patterns"]
    assert {"_patterns", "check_pattern_count"} <= _names_in("coordinates", "_table")
    assert "_survivors" in _names_in("coordinates", "_masked_rows")
    assert nodes("_masked_rows", (ast.For, ast.While)) == []
    assert len(nodes("_survivors", ast.For)) == 1 and nodes("_survivors", ast.While) == []
    for reader in ("_survivors", "_masked_rows"):
        assert sorted(_names_in("coordinates", reader) & {"_evaluate", "bit_length"}) == []


def test_off_wall_census_builds_no_key():
    # where no wall value is 0, _census_at counts the surviving rows: that
    # branch builds no vertex key, takes no gcd and builds no Fraction
    func = _function("coordinates", "_census_at")
    branch, = [node for node in ast.walk(func) if isinstance(node, ast.If)
               and isinstance(node.test, ast.Call) and isinstance(node.test.func, ast.Name)
               and node.test.func.id == "all"]
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for stmt in branch.body for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "bit_count" in names and "_survivors" in names
    assert sorted(names & {"_vertex_keys", "_census", "_read_rows", "_masked_rows", "gcd",
                           "Fraction", "_sigma", "_ZERO", "_ONE"}) == []
    assert sum(isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_evaluate"
               for node in ast.walk(func)) == 1


def test_no_cache_keyed_by_sign_vectors():
    # a point's chamber is the sign vector of its wall values, and nothing
    # keeps reads by it: the dicts coordinates builds are the rank lookup of
    # _pattern_order and the vertex keys, and the readers build none
    path = Path(barypoly.__file__).parent / "coordinates.py"
    tree = ast.parse(path.read_text(), str(path))
    builders = sorted(top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                      and any(isinstance(node, (ast.Dict, ast.DictComp))
                              or isinstance(node, ast.Call)
                              and getattr(node.func, "id", "") in ("dict", "defaultdict")
                              for node in ast.walk(top)))
    assert builders == ["_pattern_order", "_vertex_keys"]
    for reader in ("_survivors", "_masked_rows", "_feasible_rows", "_ray_keys", "_census_at"):
        assert sorted(_names_in("coordinates", reader)
                      & {"dict", "setdefault", "cache", "lru_cache", "_pattern_table"}) == []


def test_src_has_no_matrix_vector_product():
    # only the tests multiply a matrix by a vector (helpers.mat_vec)
    src = Path(barypoly.__file__).parent
    assert sorted(path.stem for path in src.glob("*.py")
                  if "mat_vec" in path.read_text()) == []


def test_a_row_is_its_keep_set():
    # a pattern row is (keep, ids) and a read row (keep, xs, den): no row
    # holds a zero set, the complement of its keep set.  _pattern_order
    # builds none, _read_rows yields 3-tuples, the table is (walls, order,
    # ge, le) with its rows listed once
    order = _function("coordinates", "_pattern_order")
    assert [ast.unparse(node) for node in ast.walk(order) if isinstance(node, ast.Call)
            and ast.unparse(node).startswith("combinations(range(1, n + 1)")] == []
    yields = [node.value for node in ast.walk(_function("coordinates", "_read_rows"))
              if isinstance(node, ast.Yield)]
    assert yields and all(isinstance(v, ast.Tuple) and len(v.elts) == 3 for v in yields)
    returned, = [node.value for node in ast.walk(_function("coordinates", "_patterns"))
                 if isinstance(node, ast.Return)]
    assert [ast.unparse(x) for x in returned.elts[:2]] == ["walls", "order"]
    assert len(returned.elts) == 4
    # in the CLI only _pick_selection unpacks a row (keep, xs, den)
    path = Path(barypoly.__file__).parent / "cli.py"
    unpacking = sorted(
        top.name for top in ast.parse(path.read_text(), str(path)).body
        if isinstance(top, ast.FunctionDef)
        and any(isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.target, ast.Tuple) and len(node.target.elts) == 3
                for node in ast.walk(top)))
    assert unpacking == ["_pick_selection"]
