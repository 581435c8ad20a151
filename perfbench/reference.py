"""Reference answers, computed without the trichord package.

The base point P = (x, 0) sees a chord longer than t exactly when the point
P + t*(cos theta, sin theta) lies inside the triangle, so the direction-set
measure is pi minus the arcs of the radius-t circle about P that fall outside
the two slanted sides.  Each side excludes the arc within acos(d/t) of its
outward normal, d being the distance from P to the side line.  As a function
of x the measure is analytic between closed-form breakpoints: the tangencies
d(x) = t and the vertex distances |P - V| = t.  ``general_reference``
integrates it with QUADPACK (scipy.integrate.quad) piece by piece.
"""

from __future__ import annotations

import math
import warnings

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Closed form for base = height = threshold = 1.
UNIT_PROBABILITY = (2.0 / math.pi) * (2.0 * math.atan(1.0 / 3.0) - 1.0 / GOLDEN_RATIO)

# The reference must be this many times tighter than the check it feeds.
TIGHTNESS = 10.0


def longest_chord(base: float, height: float) -> float:
    """Supremum of chord lengths from the base: the longer of base and side."""
    return max(base, math.hypot(base / 2.0, height))


def unit_limit_angle(x: float) -> float:
    """Closed-form direction-set measure of the unit configuration."""
    s5 = math.sqrt(5.0)
    return (
        math.asin((1.0 - 2.0 * x) / s5)
        + math.asin((1.0 + 2.0 * x) / s5)
        + 2.0 * math.atan(2.0)
        - math.pi
    )


def direction_measure(base: float, height: float, t: float, x: float, lib=math) -> float:
    """Angular measure of directions from (x, 0) whose chord exceeds t.

    ``lib`` supplies pi, hypot, atan2 and acos; the tests pass mpmath to
    evaluate the same formula in high precision.
    """
    half = base / 2
    side = lib.hypot(half, height)
    phi = lib.atan2(half, height)  # outward normal of the side toward (half, 0)
    arcs = []
    for dist, normal in ((height * (half - x) / side, phi), (height * (half + x) / side, lib.pi - phi)):
        if dist < t:
            width = lib.acos(max(dist, 0) / t)
            arcs.append((max(0, normal - width), min(lib.pi, normal + width)))
    if not arcs:
        return lib.pi
    if len(arcs) == 1:
        return lib.pi - (arcs[0][1] - arcs[0][0])
    (a0, a1), (b0, b1) = arcs
    covered = (a1 - a0) + (b1 - b0) - max(0, min(a1, b1) - max(a0, b0))
    return lib.pi - covered


def breakpoints(base: float, height: float, t: float) -> list[float]:
    """Abscissas in (0, base/2) where the measure stops being analytic."""
    half = base / 2.0
    side = math.hypot(half, height)
    reach = t * side / height  # d(x) = t  <=>  half -/+ x = reach
    candidates = [half - reach, reach - half, half - t, t - half]
    if t > height:
        candidates.append(math.sqrt(t * t - height * height))
    return sorted({c for c in candidates if 0.0 < c < half})


def general_reference(base: float, height: float, t: float, tol: float) -> tuple[float, float]:
    """Exceedance probability and its error bound, for a check of tolerance ``tol``.

    ``tol`` is the absolute integral tolerance handed to the engine, so the
    probability check is |p - ref| <= tol / (pi * base).  Raises ValueError
    when QUADPACK cannot bound its own error ``TIGHTNESS`` times below that.
    """
    from scipy.integrate import IntegrationWarning, quad

    half = base / 2.0
    edges = [0.0, *breakpoints(base, height, t), half]
    with warnings.catch_warnings():
        # QUADPACK warns when it cannot trust its own error estimate.
        warnings.simplefilter("error", IntegrationWarning)
        pieces = [
            quad(
                lambda x: direction_measure(base, height, t, x),
                lo,
                hi,
                epsabs=tol / (TIGHTNESS * 10.0),
                epsrel=1e-14,
                limit=200,
            )
            for lo, hi in zip(edges, edges[1:])
        ]
    total = sum(value for value, _ in pieces)
    error = sum(err for _, err in pieces)
    scale = math.pi * base
    p_error = 2.0 * error / scale + 4.0 * math.ulp(1.0)
    if p_error * TIGHTNESS > tol / scale:
        raise ValueError(
            f"reference for base={base} height={height} threshold={t} is only "
            f"good to {p_error:.3g}, need {tol / scale / TIGHTNESS:.3g}"
        )
    return 2.0 * total / scale, p_error
