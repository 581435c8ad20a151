"""Direction sets: ray angles whose chord beats a cutoff, for any configuration.

For a base point P and cutoff t, the admissible directions form a finite
union of open angular intervals.  Their endpoints are critical angles where
the chord length crosses t: directions toward intersections of the circle of
radius t about P with the side lines, and the direction toward the apex
(where the struck side changes).  Between consecutive critical angles the
indicator is constant, so classifying one interior direction classifies the
whole cell.

As a function of x the measure is analytic between closed-form breakpoints:
the tangencies, where the circle of radius t about (x, 0) touches a side line
and the measure has a square-root cusp, and the vertex distances, where the
circle passes through a vertex and the measure has a kink.  The measure is
even in x, so ``probability_general`` integrates [0, base/2] piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .geometry import IsoscelesTriangle, require_on_base, side_hit
from .quadrature import QuadratureResult, integrate_profile

# Cells between critical angles no wider than this are left unclassified.
MIN_CELL_WIDTH = 1e-15

# Final intervals narrower than this are dropped as numerical slivers.
MIN_INTERVAL_WIDTH = 1e-12

# Breakpoints closer than this share of base/2 merge into one, and those this
# close to 0 or base/2 land there, so roundoff leaves no sliver pieces.
BREAKPOINT_SNAP = 1e-12


@dataclass(frozen=True)
class AngularIntervalSet:
    """Sorted union of disjoint open angular intervals inside (0, pi)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        previous_end = 0.0
        for start, end in self.intervals:
            if not (0.0 <= start < end <= math.pi):
                raise ValueError(f"interval ({start}, {end}) not inside [0, pi]")
            if start < previous_end:
                raise ValueError("intervals must be sorted and disjoint")
            previous_end = end

    @property
    def measure(self) -> float:
        """Total length in radians."""
        return math.fsum(end - start for start, end in self.intervals)

    def contains(self, theta: float) -> bool:
        """True when theta lies strictly inside one of the intervals."""
        return any(start < theta < end for start, end in self.intervals)


@dataclass(frozen=True)
class ChordProblem:
    """A triangle together with a chord-length cutoff.

    ``threshold`` may be zero, meaning no cutoff: every direction qualifies.
    Height and threshold over base must stay inside the float range, so the
    problem scaled to base 1 (``unit_base``) represents the same shape.
    """

    triangle: IsoscelesTriangle = IsoscelesTriangle(1.0, 1.0)
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError(
                f"threshold must be a nonnegative finite length, got {self.threshold}"
            )
        base, height = self.triangle.base, self.triangle.height
        if not (0.0 < height / base < math.inf and self.threshold / base < math.inf):
            raise ValueError(
                f"base {base}, height {height} and threshold "
                f"{self.threshold} span more than the floating-point range"
            )


def unit_base(problem: ChordProblem) -> ChordProblem:
    """The same problem scaled to base 1.

    Direction sets depend on the shape only, and the scaled lengths square
    without overflow or underflow, so callers that evaluate many direction
    sets scale once and pass x / base.
    """
    triangle = problem.triangle
    height = triangle.height / triangle.base
    return ChordProblem(IsoscelesTriangle(1.0, height), problem.threshold / triangle.base)


def is_unit_configuration(problem: ChordProblem) -> bool:
    """True for base = height = threshold = 1, where the closed form applies."""
    return (
        problem.triangle.base == 1.0
        and problem.triangle.height == 1.0
        and problem.threshold == 1.0
    )


def direction_set(problem: ChordProblem, x: float) -> AngularIntervalSet:
    """Directions from (x, 0) whose chord to the boundary exceeds the cutoff.

    Critical angles are 0, pi, the apex direction and the directions where
    the circle of radius t about (x, 0) crosses a side line.  Times the side
    length s, that line lies at depth (half -+ x)*h and the circle has radius
    t*s; a crossing sits sqrt(radius^2 - depth^2) along the side from the
    foot of the perpendicular, and atan2 cancels s.  A crossing beyond the
    segment only splits a cell.  Each cell is classified by the chord length
    at its midpoint, and adjacent qualifying cells are merged.  Lengths are
    multiplied, so they should lie well inside 1e+-150; see ``unit_base``.

    Raises:
        OutOfBaseError: x lies outside the base.
    """
    triangle = problem.triangle
    require_on_base(triangle, x)
    if problem.threshold == 0.0:
        return AngularIntervalSet(((0.0, math.pi),))

    half, height = triangle.base / 2.0, triangle.height
    reach = problem.threshold * math.hypot(half, height)
    # The base vertices lie at angle 0 or pi from any base point (or at the
    # point itself), so the apex is the only vertex that adds a critical angle.
    critical = {0.0, math.pi, math.atan2(height, -x)}
    # Side AB has outward normal (h, half)/s, side CB (-h, half)/s.
    for depth, sign in (((half - x) * height, 1.0), ((half + x) * height, -1.0)):
        if depth < reach:
            chord = math.sqrt((reach - depth) * (reach + depth))
            for along in (chord, -chord):
                angle = math.atan2(
                    depth * half + along * height, sign * (depth * height - along * half)
                )
                if 0.0 < angle < math.pi:
                    critical.add(angle)

    angles = sorted(critical)
    merged: list[list[float]] = []
    for low, high in zip(angles, angles[1:]):
        if high - low <= MIN_CELL_WIDTH:
            continue
        midpoint = 0.5 * (low + high)
        if side_hit(triangle, x, midpoint).distance > problem.threshold:
            if merged and merged[-1][1] == low:
                merged[-1][1] = high
            else:
                merged.append([low, high])
    kept = tuple(
        (start, end) for start, end in merged if end - start >= MIN_INTERVAL_WIDTH
    )
    return AngularIntervalSet(kept)


def _breakpoints(problem: ChordProblem) -> tuple[list[float], list[float]]:
    """Piece edges of the measure on [0, base/2], and the abscissas of its cusps.

    The tangencies x = +-(base/2 - t*side/height) are square-root cusps, and
    are returned wherever they lie; the vertex distances x = +-(base/2 - t)
    and, for t > height, the apex distance x = sqrt(t^2 - height^2) are
    kinks.  Edges run from 0 to base/2, at least BREAKPOINT_SNAP * base/2
    apart; a breakpoint that close to 0, base/2 or a tangency lands there.
    """
    triangle, t = problem.triangle, problem.threshold
    half, height = triangle.base / 2.0, triangle.height
    snap = BREAKPOINT_SNAP * half

    def snapped(x: float) -> float:
        if abs(x) <= snap:
            return 0.0
        return half if abs(x - half) <= snap else x

    tangency = half - t * math.hypot(half, height) / height
    cusps = [snapped(tangency), snapped(-tangency)]
    kinks = [half - t, t - half]
    if t > height:
        kinks.append(math.sqrt(t * t - height * height))
    points = [(0.0, False), (half, False), *((c, True) for c in cusps)]
    points += [(snapped(k), False) for k in kinks]
    edges: list[float] = []
    for x, cusp in sorted(points):
        if not 0.0 <= x <= half:
            continue
        if not edges or x - edges[-1] > snap:
            edges.append(x)
        elif cusp:
            edges[-1] = x  # a tangency keeps its place
    return edges, cusps


def _absorb_cusp(
    profile: Callable[[float], float], lo: float, hi: float, cusps: list[float]
) -> Callable[[float], float]:
    """Integrand over s in [0, 1] whose integral equals that of ``profile`` on [lo, hi].

    Substitutes x = c +- v^2 about the cusp c nearest to the piece, with v
    linear in s, so a square-root cusp at c becomes smooth in s whether c is
    the piece's end (x = lo + w*s^2 or x = hi - w*s^2) or lies just beyond it.
    The cusps sit at +-(base/2 - t*side/height), so one of them is never
    right of 0 and an anchor always exists; a far one makes the map nearly
    linear.  The map is written about the piece's end, x = end +- q*s*(2a + q*s)
    with a = sqrt(|end - c|) and q = w / (a + sqrt(a^2 + w)), so nothing cancels
    when c is far.  x is clamped into [lo, hi] against roundoff.
    """
    w = hi - lo
    distance, end, direction = min(
        [(lo - c, lo, 1.0) for c in cusps if c <= lo]
        + [(c - hi, hi, -1.0) for c in cusps if c >= hi]
    )
    a = math.sqrt(distance)
    q = w / (a + math.sqrt(distance + w))

    def integrand(s: float) -> float:
        x = end + direction * q * s * (2.0 * a + q * s)
        return profile(min(max(x, lo), hi)) * 2.0 * q * (a + q * s)

    return integrand


def probability_general(problem: ChordProblem, tolerance: float = 1e-10) -> QuadratureResult:
    """Exceedance probability for any configuration, by quadrature.

    Solves the problem scaled to base 1 (``unit_base``) at tolerance / base,
    so any scale works, and scales the integral back.  Integrates the
    direction-set measure over [0, 1/2], one adaptive Simpson run per
    analytic piece with its nearest cusp absorbed, doubles it by mirror
    symmetry and normalizes by pi (uniform base point, uniform angle).  Each
    piece gets tolerance / (2 * pieces), so the error bound of the integral
    across the whole base stays ``tolerance``; ``evaluations`` sums the
    pieces and ``converged`` holds when every piece converged.
    """
    base = problem.triangle.base
    unit = unit_base(problem)
    edges, cusps = _breakpoints(unit)
    # A share below the smallest float is roundoff anyway; keep it positive.
    share = max(tolerance / base / (2.0 * (len(edges) - 1)), math.ulp(0.0))

    def measure(x: float) -> float:
        return direction_set(unit, x).measure

    pieces = [
        integrate_profile(_absorb_cusp(measure, lo, hi, cusps), 0.0, 1.0, share)
        for lo, hi in zip(edges, edges[1:])
    ]
    unit_integral = 2.0 * math.fsum(piece.integral for piece in pieces)
    return QuadratureResult(
        integral=unit_integral * base,
        probability=unit_integral / math.pi,
        evaluations=sum(piece.evaluations for piece in pieces),
        tolerance=tolerance,
        converged=all(piece.converged for piece in pieces),
    )
