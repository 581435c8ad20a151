"""Adaptive Gauss–Kronrod–Patterson 7/15 quadrature of angular-measure profiles over the base.

Each panel's error estimate is derived from the rules themselves: null rules
on the 7-point stage, the nested 3/7/15 differences on the 15-point one, both
extrapolated as Berntsen & Espelid do (ACM TOMS 17, 1991).
"""

from __future__ import annotations

import math
import sys
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
_K7 = (K7_CENTRE_WEIGHT, *(weight for weight in K7_WEIGHTS for _ in range(2)))
_P15 = (P15_CENTRE_WEIGHT, *(weight for weight in P15_WEIGHTS for _ in range(2)))

# The null rules of degrees 1 to 6 on K7's nodes, as (centre, +K7_NODES[0],
# +[1], +[2]) weights; a rule of odd degree weighs -node by minus its +node
# weight.  The degree-k rule is w_i * phi_k(x_i), phi_k the degree-k
# polynomial orthogonal under the K7 weights, scaled so that its weights
# have the Euclidean norm of K7's (Berntsen & Espelid, ACM TOMS 17, 1991).
# It integrates every monomial below degree k to 0 and x^k not, the rules
# are orthogonal under the K7 weights, and the degree-6 rule is
# proportional to K7 - G3.  K7 is exact to degree 11, so phi_k is
# Legendre's P_k up to degree 5 and the degree-3 rule weighs the G3 node
# sqrt(3/5), a root of P_3, 0.  Derived in 60-digit mpmath.
K7_NULL_RULES = (
    (0.0, 0.204278688200707619393107242349069, 0.422634766324372320532421424976716,
     0.354219704272484026988265973525919),
    (-0.57535358507931871261053082865614, 0.236045213642441630449731748370019,
     0.274065059607572892167217907340921, -0.22243348071035516631168424138287),
    (0.0, 0.242259514531121769669488180302569, 0.0, -0.535846857481771518328907261534165),
    (0.571458234162826198005229695302927, 0.22599528355971199528210313714877,
     -0.272209540481931644407495135694011, -0.239514860159193449877222849106222),
    (0.0, 0.197119391072388564081927654480111, -0.436044143944221543813118314354504,
     0.341805466967903395033981623363849),
    (-0.435107518633684988767271430718803, 0.103971656639935490375846520884397,
     -0.285189721702559088544177400885549, 0.398771824379466092551966595360553),
)
# The null rules in sample order, highest degree first, so that consecutive
# pairs are degrees (6, 5), (4, 3) and (2, 1).
_NULLS = tuple(
    (rule[0], *(sign**degree * weight for weight in rule[1:] for sign in (-1.0, 1.0)))
    for degree, rule in reversed(tuple(enumerate(K7_NULL_RULES, 1)))
)

# Berntsen & Espelid's constants (ACM TOMS 17, 1991): the safety factor K on
# every extrapolated estimate, and the critical ratio r_crit below which the
# magnitudes are taken to decay asymptotically.
ERROR_FACTOR = 10.0
CRITICAL_RATIO = 0.25


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    ``probability`` is filled by the callers that normalize the integral into
    a probability and stays None for a bare integration.  ``tolerance`` is
    the absolute error target on ``integral``, or on pi * p when p is filled.
    ``converged`` is False when some subinterval was accepted without meeting
    its error share, at roundoff, at float resolution or at the evaluation cap.
    No panel's error estimate falls below its own rounding, so a tolerance
    below the integral's roundoff reads ``converged`` False too.
    """

    integral: float
    probability: float | None
    evaluations: int
    tolerance: float
    converged: bool


def _extrapolate(magnitudes: tuple[float, ...], alpha: float) -> float:
    """Berntsen & Espelid's error estimate from magnitudes of rising accuracy.

    ``magnitudes`` lists nonnegative differences or null-rule magnitudes,
    the highest degree first, and r is the largest ratio of one to the next
    (a zero over a zero reads 0, anything else over a zero reads inf).  Once
    r falls below ``CRITICAL_RATIO`` the sequence is taken to decay
    asymptotically, and the rule's own error, ``alpha`` such ratio steps
    beyond the first magnitude, is K * r_crit^(1 - alpha) * r^alpha times
    it; between r_crit and 1 it is K * r times the first, and from 1 up,
    where the magnitudes do not decay, K times the largest (Berntsen &
    Espelid, ACM TOMS 17, 1991), with K = ``ERROR_FACTOR``.
    """
    top = high = magnitudes[0]
    # As max() does: the first ratio, replaced only by a strictly larger one.
    ratio = None
    for index in range(1, len(magnitudes)):
        low = magnitudes[index]
        step = high / low if low else (math.inf if high else 0.0)
        if ratio is None or step > ratio:
            ratio = step
        high = low
    if ratio >= 1.0:
        return ERROR_FACTOR * max(magnitudes)
    if ratio >= CRITICAL_RATIO:
        return ERROR_FACTOR * ratio * top
    return ERROR_FACTOR * CRITICAL_RATIO ** (1.0 - alpha) * ratio**alpha * top


def _stage(
    weights: tuple[float, ...],
    samples: list[float],
    half: float,
    magnitude: float,
    delta: float,
    magnitudes: tuple[float, ...],
    alpha: float,
) -> float:
    """A rule's error estimate over a panel, floored at the rule's rounding.

    ``delta`` is the rule's difference from the rule nested in it.  A
    difference that no longer changes ``magnitude`` is roundoff, and stands
    as its own estimate; otherwise ``magnitudes`` are extrapolated
    (``_extrapolate``).  The floor is machine epsilon times resabs, the rule
    applied to |f| over the panel: no sum of the rule's terms is closer than
    that, and an extrapolation that claims less would call a panel converged
    at any tolerance.
    """
    if magnitude + delta == magnitude:
        estimate = abs(delta)
    else:
        estimate = _extrapolate(magnitudes, alpha)
    floor = sys.float_info.epsilon * (half * sum(map(mul, weights, map(abs, samples))))
    return floor if floor > estimate else estimate


def integrate_profile(
    profile: Callable[[float], float], lower: float, upper: float, tolerance: float
) -> QuadratureResult:
    """Integrate ``profile`` over [lower, upper] by adaptive Gauss–Kronrod–Patterson 7/15.

    Each panel first takes the 7-point Kronrod rule K7, and is accepted at 7
    evaluations when the error estimate from K7's null rules falls within
    its share of ``tolerance``.  Otherwise Patterson's 8 added nodes extend
    the same samples to P15 (Patterson, Math. Comp. 22, 1968), and the panel
    is accepted when P15's estimate meets the share; failing that it is
    bisected and each half gets half the share.  Both estimates extrapolate
    magnitudes that fall with the rules' degree, as Berntsen & Espelid do
    (ACM TOMS 17, 1991; see ``_extrapolate``), and are floored at rounding
    (``_stage``).  K7's pairs its six null rules, degrees (6, 5), (4, 3) and
    (2, 1), into Euclidean magnitudes; K7 is exact to degree 11, three pair
    steps above the first, so alpha = 3.  P15's takes |P15 - K7| and
    |K7 - G3|, G3 the 3-point Gauss rule nested in K7: G3, K7 and P15 are
    exact to degrees 5, 11 and 23, so their errors go as sigma, sigma^2 and
    sigma^4, and alpha = 2.  The returned value sums the accepted values.
    As in Gander & Gautschi (BIT 40, 2000), a panel is also accepted at
    roundoff, when its P15 - K7 no longer changes the integral's magnitude,
    (upper - lower) times the largest |sample| of any panel so far, with the
    raw difference as its estimate, and at float resolution, when its outer
    K7 nodes no longer lie strictly inside it: its samples then collapse
    onto a few floats and its null rules read 0, so it takes its K7 value
    before any estimate is read.  Noise in the samples can keep a difference
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
        # Samples at centre + half * node in _K7's order.  The centre too takes
        # + half * 0.0, which reads a centre of -0.0 as 0.0 and is nan where
        # b - a overflows.
        k0, k1, k2 = K7_NODES
        d0, d1, d2 = half * k0, half * k1, half * k2
        f0 = sample(centre + half * 0.0)
        f1, f2 = sample(centre - d0), sample(centre + d0)
        f3, f4 = sample(centre - d1), sample(centre + d1)
        f5, f6 = sample(centre - d2), sample(centre + d2)
        samples = [f0, f1, f2, f3, f4, f5, f6]
        evaluations += 7
        scale = (b - a) * max(map(abs, samples))
        if scale > magnitude:
            magnitude = scale
        # Each rule adds its terms left to right.  value and refined start from
        # 0.0, as sum() does, so a panel of negative zeros reads 0.0; the other
        # sums reach the estimate only through abs() and hypot(), where the sign
        # of a zero, and G3's terms of weight 0, change nothing.
        w0, w1, w2 = K7_WEIGHTS
        value = half * (
            0.0 + K7_CENTRE_WEIGHT * f0 + w0 * f1 + w0 * f2 + w1 * f3 + w1 * f4 + w2 * f5 + w2 * f6
        )
        # Floats no longer resolve the panel: its outer nodes round onto or past its ends.
        if not a < centre - d0 < centre + d0 < b:
            converged = False
            return value
        gauss = half * (G3_CENTRE_WEIGHT * f0 + G3_WEIGHTS[1] * f3 + G3_WEIGHTS[1] * f4)
        nulls = []
        for r0, r1, r2, r3, r4, r5, r6 in _NULLS:
            nulls.append(
                half * (r0 * f0 + r1 * f1 + r2 * f2 + r3 * f3 + r4 * f4 + r5 * f5 + r6 * f6)
            )
        n6, n5, n4, n3, n2, n1 = nulls
        pairs = (math.hypot(n6, n5), math.hypot(n4, n3), math.hypot(n2, n1))
        if _stage(_K7, samples, half, magnitude, value - gauss, pairs, 3.0) <= tol:
            return value
        p0, p1, p2, p3 = PATTERSON_NODES
        e0, e1, e2, e3 = half * p0, half * p1, half * p2, half * p3
        f7, f8 = sample(centre - e0), sample(centre + e0)
        f9, f10 = sample(centre - e1), sample(centre + e1)
        f11, f12 = sample(centre - e2), sample(centre + e2)
        f13, f14 = sample(centre - e3), sample(centre + e3)
        added = [f7, f8, f9, f10, f11, f12, f13, f14]
        evaluations += 8
        # magnitude holds the K7 samples already, and rounding keeps the order
        # of products with b - a, so the added samples give the same maximum.
        scale = (b - a) * max(map(abs, added))
        if scale > magnitude:
            magnitude = scale
        samples += added
        v0, v1, v2, v3, v4, v5, v6 = P15_WEIGHTS
        refined = half * (
            0.0 + P15_CENTRE_WEIGHT * f0 + v0 * f1 + v0 * f2 + v1 * f3 + v1 * f4 + v2 * f5
            + v2 * f6 + v3 * f7 + v3 * f8 + v4 * f9 + v4 * f10 + v5 * f11 + v5 * f12
            + v6 * f13 + v6 * f14
        )
        delta = refined - value
        differences = (abs(delta), abs(value - gauss))
        error = _stage(_P15, samples, half, magnitude, delta, differences, 2.0)
        if error <= tol or evaluations >= MAX_EVALUATIONS or magnitude + delta == magnitude:
            if error > tol:
                converged = False
            return refined
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
