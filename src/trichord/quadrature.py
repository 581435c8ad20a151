"""Adaptive Gauss–Kronrod 7/15 integration of angular-measure profiles over the base."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import NonFiniteSampleError
from .geometry import limit_angle

MAX_DEPTH = 50

# Once a run has spent this many evaluations it accepts every panel still
# open.  The depth cap bounds depth, not work: an integrand whose rounding
# noise lies above the roundoff stop's scale would otherwise bisect toward
# 2**MAX_DEPTH panels.
MAX_EVALUATIONS = 4095

# QUADPACK's qk15 rule (Piessens et al., 1983) on [-1, 1]: the 15 Kronrod
# abscissae +-KRONROD_NODES[j] and 0 with their weights, and the weights of
# the 7-point Gauss rule nested in them, which uses +-KRONROD_NODES[1], [3]
# and [5] and 0 and so weighs the other nodes 0.
KRONROD_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
KRONROD_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
KRONROD_CENTRE_WEIGHT = 0.209482141084727828012999174891714
GAUSS_WEIGHTS = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
)
GAUSS_CENTRE_WEIGHT = 0.417959183673469387755102040816327
_PAIRS = tuple(zip(KRONROD_NODES, KRONROD_WEIGHTS, GAUSS_WEIGHTS))


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    ``probability`` is filled by the callers that normalize the integral into
    a probability and stays None for a bare integration.  ``converged`` is
    False when some subinterval was accepted without meeting its error share,
    at the depth cap, at the evaluation cap or at roundoff.
    """

    integral: float
    probability: float | None
    evaluations: int
    tolerance: float
    converged: bool


def integrate_profile(
    profile: Callable[[float], float], lower: float, upper: float, tolerance: float
) -> QuadratureResult:
    """Integrate ``profile`` over [lower, upper] by adaptive Gauss–Kronrod 7/15.

    Each panel takes QUADPACK's 15-point Kronrod rule and the 7-point Gauss
    rule nested in it (Piessens et al., 1983) and is accepted when
    |K15 - G7| falls within its share of ``tolerance``; otherwise it is
    bisected and each half gets half the share.  The returned value sums the
    accepted K15 values.  As in Gander & Gautschi (BIT 40, 2000), a panel
    whose difference no longer changes the integral's magnitude,
    (upper - lower) times the largest |sample| of the first panel, is also
    accepted: a tolerance below roundoff then stops there instead of
    splitting to the depth cap, ``MAX_DEPTH``.  Noise in the samples can
    keep a difference above that scale, so once ``MAX_EVALUATIONS`` are
    spent every panel still open is accepted too; the right halves pending
    on the way back up add at most 15 evaluations a level.  A panel accepted
    at either cap or at roundoff without meeting its share is flagged by
    ``converged=False``.

    Args:
        profile: integrand; must return finite floats.
        lower: left endpoint, strictly below ``upper``.
        upper: right endpoint.
        tolerance: absolute error target, positive.

    Raises:
        ValueError: empty interval or non-positive tolerance.
        NonFiniteSampleError: the integrand returned inf or nan.
    """
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    evaluations = 0
    converged = True

    def sample(x: float) -> float:
        y = profile(x)
        if not math.isfinite(y):
            raise NonFiniteSampleError(f"integrand returned {y!r} at x={x!r}")
        return y

    def panel(a: float, b: float) -> tuple[float, float, float]:
        """K15 over [a, b], K15 - G7, and the largest |sample|."""
        nonlocal evaluations
        evaluations += 15
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        fc = sample(centre)
        kronrod, gauss, largest = KRONROD_CENTRE_WEIGHT * fc, GAUSS_CENTRE_WEIGHT * fc, abs(fc)
        for node, kronrod_weight, gauss_weight in _PAIRS:
            f1, f2 = sample(centre - half * node), sample(centre + half * node)
            pair = f1 + f2
            kronrod += kronrod_weight * pair
            gauss += gauss_weight * pair
            largest = max(largest, abs(f1), abs(f2))
        return kronrod * half, (kronrod - gauss) * half, largest

    def settle(a: float, b: float, kronrod: float, delta: float, tol: float, depth: int) -> float:
        nonlocal converged
        if (
            abs(delta) <= tol
            or depth >= MAX_DEPTH
            or evaluations >= MAX_EVALUATIONS
            or magnitude + delta == magnitude
        ):
            if abs(delta) > tol:
                converged = False
            return kronrod
        m = 0.5 * (a + b)
        left_kronrod, left_delta, _ = panel(a, m)
        left = settle(a, m, left_kronrod, left_delta, 0.5 * tol, depth + 1)
        right_kronrod, right_delta, _ = panel(m, b)
        return left + settle(m, b, right_kronrod, right_delta, 0.5 * tol, depth + 1)

    whole, delta, largest = panel(lower, upper)
    magnitude = (upper - lower) * largest
    integral = settle(lower, upper, whole, delta, tolerance, 0)
    return QuadratureResult(
        integral=integral,
        probability=None,
        evaluations=evaluations,
        tolerance=tolerance,
        converged=converged,
    )


def probability_by_quadrature(tolerance: float = 1e-12) -> QuadratureResult:
    """Unit-configuration exceedance probability by quadrature of the limit angle.

    Integrates the closed-form limit angle over [-1/2, 1/2] and divides by pi.
    """
    result = integrate_profile(limit_angle, -0.5, 0.5, tolerance)
    return replace(result, probability=result.integral / math.pi)
