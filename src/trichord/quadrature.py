"""Adaptive Simpson integration of angular-measure profiles over the base."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import NonFiniteSampleError
from .geometry import limit_angle

MAX_DEPTH = 50


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive quadrature run.

    ``probability`` is filled by the callers that normalize the integral into
    a probability and stays None for a bare integration.  ``converged`` is
    False when some subinterval was accepted without meeting its error share,
    at the depth cap or at roundoff.
    """

    integral: float
    probability: float | None
    evaluations: int
    tolerance: float
    converged: bool


def integrate_profile(
    profile: Callable[[float], float], lower: float, upper: float, tolerance: float
) -> QuadratureResult:
    """Integrate ``profile`` over [lower, upper] by adaptive Simpson quadrature.

    Each subinterval is accepted when the Richardson error estimate
    |S_fine - S_coarse| / 15 falls within its share of ``tolerance`` (halved
    per split); the returned value includes the Richardson correction.  As in
    Gander & Gautschi (BIT 40, 2000), a subinterval whose difference no
    longer changes the integral's magnitude, (upper - lower) times the
    largest of the first three samples, is also accepted: a tolerance below
    roundoff then stops there instead of splitting to the depth cap,
    ``MAX_DEPTH``.  A subinterval accepted at the cap or at roundoff without
    meeting its share is flagged by ``converged=False``.

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
        nonlocal evaluations
        evaluations += 1
        y = profile(x)
        if not math.isfinite(y):
            raise NonFiniteSampleError(f"integrand returned {y!r} at x={x!r}")
        return y

    def recurse(
        a: float,
        b: float,
        fa: float,
        fm: float,
        fb: float,
        whole: float,
        tol: float,
        depth: int,
    ) -> float:
        nonlocal converged
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = sample(lm), sample(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or depth >= MAX_DEPTH or magnitude + delta == magnitude:
            if abs(delta) > 15.0 * tol:
                converged = False
            return left + right + delta / 15.0
        return recurse(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, b, fm, frm, fb, right, 0.5 * tol, depth + 1
        )

    fa, fb = sample(lower), sample(upper)
    mid = 0.5 * (lower + upper)
    fm = sample(mid)
    magnitude = (upper - lower) * max(abs(fa), abs(fm), abs(fb))
    whole = (upper - lower) / 6.0 * (fa + 4.0 * fm + fb)
    integral = recurse(lower, upper, fa, fm, fb, whole, tolerance, 0)
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
