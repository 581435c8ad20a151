"""Probability that a random chord from the base of an isosceles triangle beats a cutoff.

A point is drawn uniformly on the base and a ray direction uniformly on
(0, pi); the chord runs from the point to the boundary.  The package computes
the probability that the chord exceeds a length cutoff three independent
ways: a closed form for the unit configuration (base = height = cutoff = 1),
adaptive quadrature of the angular-measure profile, and Monte Carlo
sampling.  In the unit configuration the probability is
(2/pi)(2*atan(1/3) - 1/phi), about 0.0162.

Only Monte Carlo needs NumPy, so ``estimate``, ``empirical_limit_angle`` and
the ``montecarlo`` module load on first access.
"""

import importlib

from .directions import (
    AngularIntervalSet,
    ChordProblem,
    direction_set,
    is_unit_configuration,
    probability_general,
)
from .errors import DegenerateDirectionError, NonFiniteSampleError, OutOfBaseError
from .estimates import Method, ProbabilityEstimate
from .exact import (
    ExactConstants,
    arcsin_terms_definite,
    arctan_identity_residual,
    complex_argument_residual,
    constants,
    primitive_arcsin_down,
    primitive_arcsin_up,
    primitive_inv_root,
    primitive_x_over_root,
    probability_arctan_form,
    probability_golden_ratio_form,
    tangent_sum_residual,
)
from .geometry import (
    IsoscelesTriangle,
    LimitAngleBreakdown,
    RayHit,
    Side,
    limit_angle,
    limit_angle_components,
    side_hit,
)
from .quadrature import QuadratureResult, integrate_profile, probability_by_quadrature
from .reports import (
    Agreement,
    DensityProfile,
    ExperimentConfig,
    ExperimentReport,
    base_grid,
    density_profile,
    parse_density_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AngularIntervalSet",
    "Agreement",
    "ChordProblem",
    "DegenerateDirectionError",
    "DensityProfile",
    "ExactConstants",
    "ExperimentConfig",
    "ExperimentReport",
    "IsoscelesTriangle",
    "LimitAngleBreakdown",
    "Method",
    "NonFiniteSampleError",
    "OutOfBaseError",
    "ProbabilityEstimate",
    "QuadratureResult",
    "RayHit",
    "Side",
    "arcsin_terms_definite",
    "arctan_identity_residual",
    "base_grid",
    "complex_argument_residual",
    "constants",
    "density_profile",
    "direction_set",
    "empirical_limit_angle",
    "estimate",
    "integrate_profile",
    "is_unit_configuration",
    "limit_angle",
    "limit_angle_components",
    "parse_density_csv",
    "primitive_arcsin_down",
    "primitive_arcsin_up",
    "primitive_inv_root",
    "primitive_x_over_root",
    "probability_arctan_form",
    "probability_by_quadrature",
    "probability_general",
    "probability_golden_ratio_form",
    "side_hit",
    "tangent_sum_residual",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: NumPy loads on first use of a Monte Carlo name, not on import.
    if name in ("montecarlo", "estimate", "empirical_limit_angle"):
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
