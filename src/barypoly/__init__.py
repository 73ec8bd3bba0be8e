"""Exact computation of the polytope of generalized barycentric coordinates.

For a convex d-polytope with n > d vertices and a point p inside it, the
feasible coordinate vectors form a polytope in R^n of dimension at most
n-d-1.  This package computes that polytope exactly (vertices, dimension,
reduced kernel-coordinate form), cross-checks the enumeration against an
independent double-description oracle, and probes continuity and
semidifferentiability of the point -> coordinate-set map numerically.
"""

from .coordinates import (
    BarycentricVector,
    GammaPolytope,
    LambdaPolytope,
    SimplicialCoordinate,
    caratheodory_decompose,
    circular_windows,
    feasible_tau,
    gamma_polytope,
    lambda_vertices,
    nullbasis,
    segment_interval,
    simplicial_coords,
)
from .fixtures import fixture_names, get_fixture
from .linalg import affine_dim, nullspace_basis, rank
from .oracle import OracleResult, dd_vertices, random_feasible_sample
from .polytope import (
    Location,
    PointLocation,
    Polytope,
    load_polytope,
    locate,
    parse_polytope,
    validate,
)
from .probes import (
    FloatPolytope,
    ProbeReport,
    ProbeStep,
    continuity_probe,
    hausdorff,
    point_polytope_distance,
    selection_jacobian,
    semidiff_probe,
)

__version__ = "0.1.0"

__all__ = [
    "BarycentricVector",
    "FloatPolytope",
    "GammaPolytope",
    "LambdaPolytope",
    "Location",
    "OracleResult",
    "PointLocation",
    "Polytope",
    "ProbeReport",
    "ProbeStep",
    "SimplicialCoordinate",
    "affine_dim",
    "caratheodory_decompose",
    "circular_windows",
    "continuity_probe",
    "dd_vertices",
    "feasible_tau",
    "fixture_names",
    "gamma_polytope",
    "get_fixture",
    "hausdorff",
    "lambda_vertices",
    "load_polytope",
    "locate",
    "nullbasis",
    "nullspace_basis",
    "parse_polytope",
    "point_polytope_distance",
    "random_feasible_sample",
    "rank",
    "segment_interval",
    "selection_jacobian",
    "semidiff_probe",
    "simplicial_coords",
    "validate",
]
