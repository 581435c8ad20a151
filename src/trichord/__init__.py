"""Probability that a random chord from the base of an isosceles triangle beats a cutoff.

A point is drawn uniformly on the base and a ray direction uniformly on
(0, pi); the chord runs from the point to the boundary.  The package computes
the probability that the chord exceeds a length cutoff three independent
ways: a closed form for the unit configuration (base = height = cutoff = 1),
adaptive quadrature of the angular-measure profile, and Monte Carlo
sampling.  In the unit configuration the probability is
(2/pi)(2*atan(1/3) - 1/phi), about 0.0162.

Every public name loads its defining module on first use, so ``import
trichord`` runs no engine code.  Only Monte Carlo needs NumPy, so NumPy still
loads only with ``estimate``, ``empirical_limit_angle`` or the ``montecarlo``
module.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "AngularIntervalSet": "directions",
    "ChordProblem": "directions",
    "direction_set": "directions",
    "is_unit_configuration": "directions",
    "probability_general": "directions",
    "DegenerateDirectionError": "errors",
    "NonFiniteSampleError": "errors",
    "OutOfBaseError": "errors",
    "Method": "estimates",
    "ProbabilityEstimate": "estimates",
    "ExactConstants": "exact",
    "arcsin_terms_definite": "exact",
    "arctan_identity_residual": "exact",
    "complex_argument_residual": "exact",
    "constants": "exact",
    "primitive_arcsin_down": "exact",
    "primitive_arcsin_up": "exact",
    "primitive_inv_root": "exact",
    "primitive_x_over_root": "exact",
    "probability_arctan_form": "exact",
    "probability_golden_ratio_form": "exact",
    "tangent_sum_residual": "exact",
    "IsoscelesTriangle": "geometry",
    "LimitAngleBreakdown": "geometry",
    "RayHit": "geometry",
    "Side": "geometry",
    "limit_angle": "geometry",
    "limit_angle_components": "geometry",
    "side_hit": "geometry",
    "empirical_limit_angle": "montecarlo",
    "estimate": "montecarlo",
    "QuadratureResult": "quadrature",
    "integrate_profile": "quadrature",
    "probability_by_quadrature": "quadrature",
    "Agreement": "reports",
    "DensityProfile": "reports",
    "ExperimentConfig": "reports",
    "ExperimentReport": "reports",
    "base_grid": "reports",
    "density_profile": "reports",
    "parse_density_csv": "reports",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # PEP 562: a public name or a submodule that defines one loads on first
    # access, and is kept in the package globals so later lookups skip this.
    from importlib import import_module

    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
