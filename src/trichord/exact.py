"""Closed-form probability for the unit configuration.

The limit-angle profile asin((1-2x)/sqrt(5)) + asin((1+2x)/sqrt(5))
+ 2*atan(2) - pi integrates in closed form over the base: integration by
parts turns each arcsin term into an explicit antiderivative, and the
requested probability is the integral divided by pi.  The module exposes the
four antiderivatives, the definite integral of the two arcsin terms, the
probability in its two equivalent shapes (arctangent form and golden-ratio
form), and residuals for the arctangent identity the simplification rests on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .geometry import SQRT5, UNIT_TRIANGLE, require_on_base

GOLDEN_RATIO = (1.0 + SQRT5) / 2.0


def primitive_arcsin_down(x: float) -> float:
    """Antiderivative of asin((1 - 2x)/sqrt(5)) on [-1/2, 1/2].

    Equals (x - 1/2)*asin((1 - 2x)/sqrt(5)) - sqrt(-x^2 + x + 1), with the
    integration constant fixed at zero.
    """
    require_on_base(UNIT_TRIANGLE, x)
    return (x - 0.5) * math.asin((1.0 - 2.0 * x) / SQRT5) - math.sqrt(-x * x + x + 1.0)


def primitive_arcsin_up(x: float) -> float:
    """Antiderivative of asin((1 + 2x)/sqrt(5)) on [-1/2, 1/2].

    Equals (x + 1/2)*asin((1 + 2x)/sqrt(5)) + sqrt(-x^2 - x + 1), with the
    integration constant fixed at zero.
    """
    require_on_base(UNIT_TRIANGLE, x)
    return (x + 0.5) * math.asin((1.0 + 2.0 * x) / SQRT5) + math.sqrt(-x * x - x + 1.0)


def primitive_x_over_root(x: float) -> float:
    """Antiderivative of -x / sqrt(-x^2 + x + 1) plus half the arcsin term.

    Equals sqrt(-x^2 + x + 1) + (1/2)*asin((1 - 2x)/sqrt(5)); its derivative
    collects the boundary terms produced by integrating the arcsin factors by
    parts.
    """
    require_on_base(UNIT_TRIANGLE, x)
    return math.sqrt(-x * x + x + 1.0) + 0.5 * math.asin((1.0 - 2.0 * x) / SQRT5)


def primitive_inv_root(x: float) -> float:
    """Antiderivative of 1 / (2*sqrt(-x^2 + x + 1)) on [-1/2, 1/2].

    Equals -(1/2)*asin((1 - 2x)/sqrt(5)).
    """
    require_on_base(UNIT_TRIANGLE, x)
    return -0.5 * math.asin((1.0 - 2.0 * x) / SQRT5)


def arcsin_terms_definite() -> float:
    """Definite integral of the two arcsin terms over the base.

    Evaluates the antiderivatives at the endpoints; simplifies to
    2*atan(1/3) + pi/2 + 1 - sqrt(5).
    """
    upper = primitive_arcsin_down(0.5) + primitive_arcsin_up(0.5)
    lower = primitive_arcsin_down(-0.5) + primitive_arcsin_up(-0.5)
    return upper - lower


def probability_arctan_form() -> float:
    """Exceedance probability as (2/pi)(atan(1/3) + atan(2)) - (sqrt(5)-1)/pi - 1/2."""
    return (
        (2.0 / math.pi) * (math.atan(1.0 / 3.0) + math.atan(2.0))
        - (SQRT5 - 1.0) / math.pi
        - 0.5
    )


def probability_golden_ratio_form() -> float:
    """Exceedance probability as (2/pi)(2*atan(1/3) - 1/phi), phi the golden ratio."""
    return (2.0 / math.pi) * (2.0 * math.atan(1.0 / 3.0) - 1.0 / GOLDEN_RATIO)


def arctan_identity_residual() -> float:
    """Residual of atan(2) - atan(1/3) - pi/4; zero up to roundoff."""
    return math.atan(2.0) - math.atan(1.0 / 3.0) - math.pi / 4.0


def tangent_sum_residual() -> float:
    """Residual of tan(atan(1/3) + pi/4) - 2, checking the identity by tangent sum."""
    return math.tan(math.atan(1.0 / 3.0) + math.pi / 4.0) - 2.0


def complex_argument_residual() -> float:
    """Residual of arg((3 + i)(1 + i)) - atan(2).

    The product is 2 + 4i, whose argument is atan(2); the factor arguments are
    atan(1/3) and pi/4, checking the same identity through complex rotation.
    """
    return cmath.phase((3.0 + 1.0j) * (1.0 + 1.0j)) - math.atan(2.0)


@dataclass(frozen=True)
class ExactConstants:
    """Named constants of the unit configuration.

    ``arcsin_terms_integral`` is the definite integral of the two arcsin terms
    over the base; ``probability`` is the closed-form exceedance probability.
    """

    golden_ratio: float
    arcsin_terms_integral: float
    probability: float


def constants() -> ExactConstants:
    """Evaluate the unit-configuration constants."""
    return ExactConstants(
        golden_ratio=GOLDEN_RATIO,
        arcsin_terms_integral=arcsin_terms_definite(),
        probability=probability_golden_ratio_form(),
    )
