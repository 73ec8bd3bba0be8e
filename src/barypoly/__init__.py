"""Exact computation of the polytope of generalized barycentric coordinates.

For a convex d-polytope with n > d vertices and a point p inside it, the
feasible coordinate vectors form a polytope in R^n of dimension at most
n-d-1.  This package computes that polytope exactly (vertices, dimension,
reduced kernel-coordinate form), cross-checks the enumeration against an
independent double-description oracle, and probes continuity and
semidifferentiability of the point -> coordinate-set map numerically.
"""

import importlib

# each public name and the module that defines it; ``__getattr__`` imports
# the module on the name's first access, so ``python -m barypoly analyze``
# compiles neither the probes nor the fixtures (PEP 562)
_HOMES = {
    "coordinates": ("BarycentricVector", "GammaPolytope", "LambdaPolytope",
                    "SimplicialCoordinate", "caratheodory_decompose",
                    "circular_windows", "feasible_tau", "gamma_polytope",
                    "lambda_vertices", "nullbasis", "segment_interval",
                    "simplicial_coords"),
    "fixtures": ("fixture_names", "get_fixture"),
    "linalg": ("affine_dim", "nullspace_basis", "rank"),
    "oracle": ("OracleResult", "dd_vertices", "random_feasible_sample"),
    "polytope": ("Location", "PointLocation", "Polytope", "load_polytope", "locate",
                 "parse_polytope", "validate"),
    "probes": ("FloatPolytope", "ProbeReport", "ProbeStep", "continuity_probe",
               "hausdorff", "point_polytope_distance", "selection_jacobian",
               "semidiff_probe"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
