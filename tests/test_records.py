"""The package's records: frozen values on ``barypoly.records.Record``."""

import copy
import pickle
from fractions import Fraction

import pytest

from barypoly.coordinates import (
    BarycentricVector,
    GammaPolytope,
    LambdaPolytope,
    SimplicialCoordinate,
)
from barypoly.fixtures import get_fixture
from barypoly.oracle import OracleResult
from barypoly.polytope import Location, PointLocation, Polytope
from barypoly.probes import FloatPolytope, ProbeReport, ProbeStep
from barypoly.records import Record
from barypoly.report import AnalysisReport, LambdaVertexEntry

F = Fraction
SQUARE = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))
CENTRE = (F(1, 2), F(1, 2))
TAU = BarycentricVector((F(1, 2), F(0), F(1, 2), F(0)), CENTRE)
STEP = ProbeStep(0.5, 0.25, 0.5)
ENTRY = LambdaVertexEntry((F(1, 2), F(0), F(1, 2), F(0)), (1, 3), (2, 4))

# one instance's fields per class, in declaration order
SAMPLES = {
    "Polytope": (Polytope, (2, 4, SQUARE, ((F(-1),), (F(1),), (F(-1),), (F(1),)))),
    "PointLocation": (PointLocation, (
        Location.INTERIOR, (F(1, 3), F(1, 6), F(1, 6), F(1, 3)), None)),
    "BarycentricVector": (BarycentricVector, (TAU.lam, CENTRE)),
    "SimplicialCoordinate": (SimplicialCoordinate, (
        frozenset({2, 4}), (F(1, 2), F(0), F(1, 2), F(0)), True)),
    "LambdaPolytope": (LambdaPolytope, (
        CENTRE, (TAU,), (frozenset({1, 3}),), 0, False)),
    "GammaPolytope": (GammaPolytope, (
        TAU, ((F(-1),), (F(1),), (F(-1),), (F(1),)),
        (((F(-1),), F(1, 2)), ((F(1),), F(0))), ((F(0),),))),
    "OracleResult": (OracleResult, ((TAU.lam,), "DoubleDescription")),
    "FloatPolytope": (FloatPolytope, (((0.0, 1.0), (1.0, 1.0)), 2)),
    "ProbeStep": (ProbeStep, (0.125, 0.0625, 0.5)),
    "ProbeReport": (ProbeReport, ((STEP,), "Inconclusive", 1e-09, {"zero_set": [1]})),
    "LambdaVertexEntry": (LambdaVertexEntry, (ENTRY.lam, ENTRY.support, ENTRY.zeros)),
    "AnalysisReport": (AnalysisReport, (
        2, SQUARE, CENTRE, "Interior", TAU.lam, ((F(-1),), (F(1),), (F(-1),), (F(1),)),
        (ENTRY,), ((F(0),),), 0, False)),
}

# each sample's repr, as @dataclass(frozen=True) wrote it for these classes
REPRS = {
    "Polytope": "Polytope(d=2, n=4, vertices=((Fraction(0, 1), Fraction(0, 1)), "
                "(Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(1, 1)), "
                "(Fraction(0, 1), Fraction(1, 1))))",
    "PointLocation": "PointLocation(tag=<Location.INTERIOR: 'Interior'>, "
                     "barycentric=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), "
                     "Fraction(1, 3)), separator=None)",
    "BarycentricVector": "BarycentricVector(lam=(Fraction(1, 2), Fraction(0, 1), "
                         "Fraction(1, 2), Fraction(0, 1)), point=(Fraction(1, 2), "
                         "Fraction(1, 2)))",
    "SimplicialCoordinate": "SimplicialCoordinate(zero_set=frozenset({2, 4}), "
                            "sigma=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 2), "
                            "Fraction(0, 1)), feasible=True)",
    "LambdaPolytope": "LambdaPolytope(point=(Fraction(1, 2), Fraction(1, 2)), "
                      "vertices=(BarycentricVector(lam=(Fraction(1, 2), Fraction(0, 1), "
                      "Fraction(1, 2), Fraction(0, 1)), point=(Fraction(1, 2), "
                      "Fraction(1, 2))),), vertex_supports=(frozenset({1, 3}),), dim=0, "
                      "theorem_count_match=False)",
    "GammaPolytope": "GammaPolytope(tau=BarycentricVector(lam=(Fraction(1, 2), "
                     "Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)), "
                     "point=(Fraction(1, 2), Fraction(1, 2))), nbasis=((Fraction(-1, 1),), "
                     "(Fraction(1, 1),), (Fraction(-1, 1),), (Fraction(1, 1),)), "
                     "hrep_rows=(((Fraction(-1, 1),), Fraction(1, 2)), ((Fraction(1, 1),), "
                     "Fraction(0, 1))), vertices=((Fraction(0, 1),),))",
    "OracleResult": "OracleResult(vertices=((Fraction(1, 2), Fraction(0, 1), "
                    "Fraction(1, 2), Fraction(0, 1)),), method='DoubleDescription')",
    "FloatPolytope": "FloatPolytope(vertices=((0.0, 1.0), (1.0, 1.0)), ambient_dim=2)",
    "ProbeStep": "ProbeStep(t=0.125, distance=0.0625, ratio=0.5)",
    "ProbeReport": "ProbeReport(steps=(ProbeStep(t=0.5, distance=0.25, ratio=0.5),), "
                   "verdict='Inconclusive', tolerance=1e-09, metadata={'zero_set': [1]})",
    "LambdaVertexEntry": "LambdaVertexEntry(lam=(Fraction(1, 2), Fraction(0, 1), "
                         "Fraction(1, 2), Fraction(0, 1)), support=(1, 3), zeros=(2, 4))",
    "AnalysisReport": "AnalysisReport(polytope_dim=2, polytope_vertices=((Fraction(0, 1), "
                      "Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), "
                      "Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1))), "
                      "point=(Fraction(1, 2), Fraction(1, 2)), location='Interior', "
                      "tau=(Fraction(1, 2), Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)), "
                      "nbasis=((Fraction(-1, 1),), (Fraction(1, 1),), (Fraction(-1, 1),), "
                      "(Fraction(1, 1),)), lambda_vertices=(LambdaVertexEntry(lam=("
                      "Fraction(1, 2), Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)), "
                      "support=(1, 3), zeros=(2, 4)),), gamma_vertices=((Fraction(0, 1),),), "
                      "dim=0, theorem_count_match=False)",
}

names = pytest.mark.parametrize("name", sorted(SAMPLES))


def _make(name, **changes):
    """A fresh instance of sample ``name``, with ``changes`` to its fields."""
    cls, args = SAMPLES[name]
    values = dict(zip(cls._fields, args))
    values.update(changes)
    return cls(*values.values())


def _other(value):
    """A value unequal to ``value``."""
    return ("other", value)


def test_samples_cover_every_record_class():
    # the package's twelve record classes, each on the one base
    classes = {cls for cls, _ in SAMPLES.values()}
    assert len(classes) == 12 and all(issubclass(c, Record) for c in classes)
    assert set(REPRS) == set(SAMPLES)
    assert _make("Polytope") == get_fixture("square")


@names
def test_value_is_the_public_fields(name):
    # == and hash read the fields whose names have no leading _, and == is
    # NotImplemented across classes
    cls, _ = SAMPLES[name]
    a, b = _make(name), _make(name)
    assert a is not b and a.__eq__(object()) is NotImplemented
    if cls is FloatPolytope:  # a float hull equals only itself
        assert a != b and a == a and hash(a) != hash(b)
        return
    assert a == b and not a != b
    if cls is ProbeReport:  # its metadata is a dict, as before
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in cls._fields:
        c = _make(name, **{field: _other(getattr(a, field))})
        if field.startswith("_"):
            assert c == a and hash(c) == hash(a) and repr(c) == repr(a)
        else:
            assert c != a
    if cls is Polytope:  # the pattern table is not part of the value either
        b._pattern_table.append("built")
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@names
def test_repr_is_the_dataclass_repr(name):
    assert repr(_make(name)) == REPRS[name]


@names
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, _ = SAMPLES[name]
    a = _make(name)
    for field in cls._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        a.extra = 1
    assert repr(a) == REPRS[name]


@names
def test_fields_keep_their_declaration_order(name):
    # a keyword call in reverse order stores the same __dict__, in the
    # declared order, as a positional call
    cls, args = SAMPLES[name]
    kwargs = dict(reversed(list(zip(cls._fields, args))))
    a, b = cls(**kwargs), cls(*args)
    extra = ["_pattern_table"] if cls is Polytope else []
    assert list(vars(a)) == list(vars(b)) == list(cls._fields) + extra
    assert vars(a) == vars(b)


@names
def test_copy_and_pickle_round_trip(name):
    cls, _ = SAMPLES[name]
    a = _make(name)
    for b in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and vars(b) == vars(a)
        assert list(vars(b)) == list(vars(a))
        assert b == a or cls is FloatPolytope


@names
def test_missing_or_unknown_field_is_a_type_error(name):
    cls, args = SAMPLES[name]
    first = cls._fields[0]
    kwargs = dict(zip(cls._fields, args))
    del kwargs[first]
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**kwargs)
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**kwargs, extra=1)  # as many names as fields, one unknown
    with pytest.raises(TypeError, match="unknown field 'extra'"):
        cls(*args, extra=1)
    with pytest.raises(TypeError, match=f"repeated field '{first}'"):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError, match=f"takes {len(args)} fields"):
        cls(*args, None)


def test_defaults_are_fresh_per_instance():
    # a location's coordinates and separator default to None, a report's
    # metadata to a new dict, and each polytope gets its own pattern table,
    # which no call can pass
    loc = PointLocation(Location.OUTSIDE)
    assert (loc.barycentric, loc.separator) == (None, None)
    a, b = ProbeReport((STEP,), "Inconclusive", 1e-9), ProbeReport((STEP,), "Inconclusive", 1e-9)
    assert a.metadata == {} and a.metadata is not b.metadata
    p, q = _make("Polytope"), _make("Polytope")
    assert p._pattern_table == [] and p._pattern_table is not q._pattern_table
    with pytest.raises(TypeError, match="unknown field '_pattern_table'"):
        Polytope(*SAMPLES["Polytope"][1], _pattern_table=[])
