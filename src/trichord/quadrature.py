"""Adaptive Gauss–Kronrod–Patterson 7/15 quadrature of angular-measure profiles over the base."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Callable

from .errors import NonFiniteSampleError
from .geometry import limit_angle

# Once a run has spent this many evaluations it accepts every panel still
# open.  The resolution stop bounds depth, not work: an integrand whose
# rounding noise lies above the roundoff stop's scale would otherwise bisect
# until floats run out of room in every panel.
MAX_EVALUATIONS = 4095

# Patterson's nested 3/7/15 sequence (Math. Comp. 22, 1968) on [-1, 1], each
# rule symmetric with a node at 0.  The 7-point Kronrod rule K7 keeps the
# 3-point Gauss rule G3, which uses 0 and +-K7_NODES[1] and so weighs the
# other nodes 0, and adds +-K7_NODES[0] and [2].  P15 keeps all seven nodes
# and adds +-PATTERSON_NODES, the roots of the even degree-8 polynomial
# orthogonal to x^k (k = 0..7) under the weight prod(x - K7 node); each
# rule's weights solve its moment equations.  Derived in 60-digit mpmath.
# K7 is exact to degree 11, G3 to 5 and P15, like QUADPACK's 15-point
# Kronrod rule, to 23.
K7_NODES = (
    0.960491268708020283423507092629080,
    0.774596669241483377035853079956480,
    0.434243749346802558002071502844628,
)
K7_WEIGHTS = (
    0.104656226026467265193823857192073,
    0.268488089868333440728569280666710,
    0.401397414775962222905051818618432,
)
K7_CENTRE_WEIGHT = 0.450916538658474142345110087045571
G3_WEIGHTS = (0.0, 5.0 / 9.0, 0.0)
G3_CENTRE_WEIGHT = 8.0 / 9.0
PATTERSON_NODES = (
    0.993831963212755022208512841307951,
    0.888459232872256998890420167258503,
    0.621102946737226402940687443816595,
    0.223386686428966881628203986843998,
)
P15_NODES = K7_NODES + PATTERSON_NODES
P15_WEIGHTS = (
    0.0516032829970797396969201205678610,
    0.134415255243784220359968764802492,
    0.200628529376989021033931873331359,
    0.0170017196299402603390274174026535,
    0.0929271953151245376858942226541688,
    0.171511909136391380787353165019717,
    0.219156858401587496403693161643774,
)
P15_CENTRE_WEIGHT = 0.225510499798206687386422549155950

# A panel samples the centre, then -node and +node for each node of P15 in
# turn, so its first 7 samples are K7's.  The weights follow that order.
_ABSCISSAE = (0.0, *(sign * node for node in P15_NODES for sign in (-1.0, 1.0)))
_K7 = (K7_CENTRE_WEIGHT, *(weight for weight in K7_WEIGHTS for _ in range(2)))
_G3 = (G3_CENTRE_WEIGHT, *(weight for weight in G3_WEIGHTS for _ in range(2)))
_P15 = (P15_CENTRE_WEIGHT, *(weight for weight in P15_WEIGHTS for _ in range(2)))


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    ``probability`` is filled by the callers that normalize the integral into
    a probability and stays None for a bare integration.  ``tolerance`` is
    the absolute error target on ``integral``, or on pi * p when p is filled.
    ``converged`` is False when some subinterval was accepted without meeting
    its error share, at roundoff, at float resolution or at the evaluation cap.
    """

    integral: float
    probability: float | None
    evaluations: int
    tolerance: float
    converged: bool


def _stage(
    weights: tuple[float, ...],
    embedded: tuple[float, ...],
    samples: list[float],
    half: float,
    magnitude: float,
) -> tuple[float, float, float]:
    """A rule's value over a panel, its difference from the embedded rule, and the error estimate.

    The estimate is QUADPACK's calibrated one (Piessens et al., 1983),
    resasc * min(1, (200 |difference| / resasc)^1.5), where resasc is the
    rule applied to |f - mean f| over the panel.  A difference that no longer
    changes ``magnitude`` is roundoff, and stands as its own estimate.
    """
    rule = sum(map(mul, weights, samples))
    delta = (rule - sum(map(mul, embedded, samples))) * half
    mean = 0.5 * rule
    resasc = half * sum(weight * abs(f - mean) for weight, f in zip(weights, samples))
    if resasc == 0.0 or magnitude + delta == magnitude:
        return rule * half, delta, abs(delta)
    return rule * half, delta, resasc * min(1.0, (200.0 * abs(delta) / resasc) ** 1.5)


def integrate_profile(
    profile: Callable[[float], float], lower: float, upper: float, tolerance: float
) -> QuadratureResult:
    """Integrate ``profile`` over [lower, upper] by adaptive Gauss–Kronrod–Patterson 7/15.

    Each panel first takes the 7-point Kronrod rule K7 and the 3-point Gauss
    rule nested in it, and is accepted at 7 evaluations when the error
    estimate of K7 - G3 falls within its share of ``tolerance``.  Otherwise
    Patterson's 8 added nodes extend the same samples to P15 (Patterson,
    Math. Comp. 22, 1968), and the panel is accepted when the estimate of
    P15 - K7 meets the share; failing that it is bisected and each half gets
    half the share.  The estimate is QUADPACK's calibrated one (Piessens et
    al., 1983), see ``_stage``.  The returned value sums the accepted
    values.  As in Gander & Gautschi (BIT 40, 2000), a panel is also
    accepted at roundoff, when its P15 - K7 no longer changes the integral's
    magnitude, (upper - lower) times the largest |sample| of the first K7,
    with the raw difference as its estimate, and at float resolution, when
    its outer K7 nodes no longer lie strictly inside it: its samples then
    collapse onto a few floats and K7 - G3 reads 0, so it takes its K7 value
    before the estimate is read.  Noise in the samples can keep a difference
    above the roundoff scale, so once ``MAX_EVALUATIONS`` are spent every
    panel still open is accepted too.  A panel is bisected only after 15
    evaluations below that cap, so the recursion stays under
    ``MAX_EVALUATIONS`` / 15 levels and a run takes at most
    2 * ``MAX_EVALUATIONS`` + 15.  A panel accepted at resolution, or at any
    other stop short of its share, sets ``converged=False``.

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
    magnitude = 0.0

    def sample(x: float) -> float:
        y = profile(x)
        if not math.isfinite(y):
            raise NonFiniteSampleError(f"integrand returned {y!r} at x={x!r}")
        return y

    def settle(a: float, b: float, tol: float) -> float:
        nonlocal evaluations, converged, magnitude
        centre, half = 0.5 * (a + b), 0.5 * (b - a)
        samples = [sample(centre + half * node) for node in _ABSCISSAE[:7]]
        evaluations += 7
        if evaluations == 7:
            magnitude = (b - a) * max(map(abs, samples))
        value, delta, error = _stage(_K7, _G3, samples, half, magnitude)
        # Floats no longer resolve the panel: its outer nodes round onto or past its ends.
        if not a < centre - half * K7_NODES[0] < centre + half * K7_NODES[0] < b:
            converged = False
            return value
        if error <= tol:
            return value
        samples += [sample(centre + half * node) for node in _ABSCISSAE[7:]]
        evaluations += 8
        value, delta, error = _stage(_P15, _K7, samples, half, magnitude)
        if error <= tol or evaluations >= MAX_EVALUATIONS or magnitude + delta == magnitude:
            if error > tol:
                converged = False
            return value
        return settle(a, centre, 0.5 * tol) + settle(centre, b, 0.5 * tol)

    integral = settle(lower, upper, tolerance)
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
