"""Derivative-free trust-region optimization over convex feasible sets.

The package is organized around the pieces a model-based DFO method needs
when every sample must stay feasible:

* :mod:`convexdfo.geometry` -- feasible regions, membership, projections.
* :mod:`convexdfo.linear_models` -- linear regression and its Lagrange
  polynomials.
* :mod:`convexdfo.quadratic_models` -- :class:`Quadratics`, the one quadratic
  type (a model is ``sum_t f(y_t) l_t``, one row), minimum-Frobenius-norm
  interpolation, the bordered KKT system, and the determinant update
  identity (validation only).
* :mod:`convexdfo.poisedness` -- geometry certificates and constructive
  repair of interpolation sets.
* :mod:`convexdfo.accuracy` -- guaranteed accuracy constants and sampled
  checks of them (validation only; not imported by the package).
* :mod:`convexdfo.subproblems` -- criticality measure and trust-region step.
* :mod:`convexdfo.solver` -- the trust-region driver.
* :mod:`convexdfo.problems` -- benchmark objectives for the harness.
* :mod:`convexdfo.cli` -- command-line front end.
"""

from .geometry import (
    Ball,
    Box,
    ConvexRegion,
    Halfspaces,
    Intersection,
    ProjectionError,
    ProjectionResult,
    WholeSpace,
    contains,
    parse_region,
    project,
)
from .linear_models import (
    DegenerateGeometryError,
    InterpolationSet,
    RegressionBasis,
    build_design_matrix,
    fit_regression_model,
)
from .poisedness import (
    PoisednessCertificate,
    check_poisedness,
    improve_to_poised,
    initial_invertible_set,
)
from .quadratic_models import (
    MfnSystem,
    Quadratics,
    SingularGeometryError,
    assemble_system,
    det_swap_factor,
    fit_mfn_model,
)
from .solver import RunRecord, SolverConfig, SolverError, solve
from .subproblems import criticality_measure, solve_trust_region_step

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "ConvexRegion",
    "Halfspaces",
    "Intersection",
    "ProjectionError",
    "ProjectionResult",
    "WholeSpace",
    "contains",
    "parse_region",
    "project",
    "DegenerateGeometryError",
    "InterpolationSet",
    "RegressionBasis",
    "build_design_matrix",
    "fit_regression_model",
    "PoisednessCertificate",
    "check_poisedness",
    "improve_to_poised",
    "initial_invertible_set",
    "MfnSystem",
    "Quadratics",
    "SingularGeometryError",
    "assemble_system",
    "det_swap_factor",
    "fit_mfn_model",
    "RunRecord",
    "SolverConfig",
    "SolverError",
    "solve",
    "criticality_measure",
    "solve_trust_region_step",
]
