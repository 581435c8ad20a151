"""Direction sets: ray angles whose chord beats a cutoff, for any configuration.

For a base point P and cutoff t, the admissible directions form a finite
union of open angular intervals.  Their endpoints are critical angles where
the chord length crosses t: directions toward intersections of the circle of
radius t about P with the side lines, computed in units of t so that no
length is squared.  Intersections on a side line beyond the apex are left
out, since a ray toward one strikes the other side first and the chord
beats t on neither side of it.  The direction toward the apex, where the
struck side changes, is not one either: from inside the base the chord
length is continuous there, and from a base endpoint, where it jumps, the
near side's crossing lies in that same direction.  Between consecutive
critical angles the indicator is constant, so classifying one interior
direction classifies the whole cell.

As a function of x the measure is analytic between closed-form breakpoints:
the tangencies, where the circle of radius t about (x, 0) touches a side line
and the measure has a square-root cusp, and the vertex distances, where the
circle passes through a vertex and the measure has a kink.  Near the middle
of the base the measure can also be constant: pi while both side lines lie
farther than t, and 0 while the circle holds all three vertices.  The
measure is even in x, so ``probability_general`` integrates [0, base/2]
piece by piece, closing the constant pieces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .geometry import (  # noqa: F401  (is_unit_configuration re-exported)
    ChordProblem, is_unit_configuration, require_on_base, side_hit, unit_abscissa, unit_base,
)
from .quadrature import QuadratureResult, integrate_profile

# Side crossings farther along the side line than this share beyond the apex
# are dropped; the slack keeps a crossing at the apex itself.
APEX_SLACK = 1e-9


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


def direction_set(problem: ChordProblem, x: float) -> AngularIntervalSet:
    """Directions from (x, 0) whose chord to the boundary exceeds the cutoff.

    Critical angles are 0, pi and the directions where the circle of radius
    t about (x, 0) crosses a side line, worked out in units of t: the line
    lies at depth u = offset / reach, where offset = half -+ x runs along
    the base to the side's base vertex and reach = t / (h/s), s the side
    length, is the offset below which the side line lies closer than t.  A
    crossing sits c = sqrt((1 - u)(1 + u)) along the line from the foot of
    the perpendicular, in the direction atan2(u*half + c*h, +-(u*h - c*half)),
    which does not depend on scale.  No length is squared and no two
    lengths are multiplied, so nothing overflows, and at base 1, where a
    flat shape's side is exactly 1/2, subnormal heights and cutoffs keep
    their bits.  An offset of 0 gives depth 0, and a depth that overflows
    means no crossing.
    A crossing on the line beyond the apex B is dropped (with a slack of
    APEX_SLACK, so one at B stays): a ray toward it meets the other side
    first, short of t, so it would only split a cell whose two halves
    agree.  The apex direction needs no critical angle: for |x| < base/2
    the chord length is continuous across it, so the indicator changes
    only where the chord equals t, at a side crossing.  At
    x = +-base/2 the chord jumps there from 0 to s, and the near side has
    depth 0, so its crossing lies in the apex direction and the cell edge
    stays; when t > s that crossing lies beyond B, and no chord near the
    jump beats t.  A cell is classified, by the chord length toward its
    float midpoint, when that midpoint lies strictly inside it, and one pass
    merges adjacent qualifying cells and keeps every nonempty run.  The
    measure is accurate to a few ulps of pi in absolute terms: where the
    true measure is below that, it may read 0 or a subnormal, and x and -x
    may differ by that much.  All this runs at base 1:
    another base solves ``unit_base(problem)`` at x / base, clamped onto
    [-1/2, 1/2].  Where both offsets are at least the reach, t = 0 too, every
    direction qualifies, as on ``full`` of ``_breakpoints``; the one cell
    there has a tangent midpoint on a flat shape, where the chord is t.

    Raises:
        OutOfBaseError: x lies outside the base.
    """
    require_on_base(problem.triangle, x)
    if problem.triangle.base != 1.0:
        x, problem = unit_abscissa(x, problem.triangle.base), unit_base(problem)
    triangle = problem.triangle

    half, height, t = triangle.base / 2.0, triangle.height, problem.threshold
    side = math.hypot(half, height)
    reach, cos_base = t / (height / side), half / side
    if half - abs(x) >= reach:
        return AngularIntervalSet(((0.0, math.pi),))
    apex = side * (1.0 + APEX_SLACK)
    # Duplicates only make zero-width cells, which the loop below skips.
    angles = [0.0, math.pi]
    # Side AB has outward normal (h, half)/s, side CB (-h, half)/s.  offset
    # runs along the base from (x, 0) to the side's base vertex, and foot
    # along the side from that vertex to the foot of the perpendicular.
    for offset, sign in ((half - x, 1.0), (half + x, -1.0)):
        depth = offset / reach
        if depth < 1.0:
            chord = math.sqrt((1.0 - depth) * (1.0 + depth))
            foot = offset * cos_base
            for along in (chord, -chord):
                if foot + along * t <= apex:
                    angle = math.atan2(
                        depth * half + along * height, sign * (depth * height - along * half)
                    )
                    if 0.0 < angle < math.pi:
                        angles.append(angle)

    angles.sort()
    # Runs of adjacent qualifying cells become one interval; a run ends at a
    # cell that fails or is left unclassified, and is kept if nonempty.  Both
    # ends start as nan, so the first qualifying cell starts a run and no
    # empty run is kept.
    intervals: list[tuple[float, float]] = []
    start = end = math.nan
    for low, high in zip(angles, angles[1:]):
        mid = 0.5 * (low + high)
        if low < mid < high and side_hit(triangle, x, mid).distance > t:
            if low != end:
                if start < end:
                    intervals.append((start, end))
                start = low
            end = high
    if start < end:
        intervals.append((start, end))
    return AngularIntervalSet(tuple(intervals))


def _breakpoints(problem: ChordProblem) -> tuple[list[float], float, float]:
    """Piece edges of the measure on [0, base/2], and where it is constant.

    On the half-base the breakpoints are the tangency |base/2 - reach|,
    with reach = t / (height/side) as in ``direction_set``, a square-root
    cusp, and two kinks: the vertex distance |base/2 - t| and, for
    t > height, the apex distance sqrt(t^2 - height^2).  The edges are 0,
    base/2 and every distinct breakpoint between them, so the measure is
    analytic on each piece.

    Also returned are ``full`` and ``empty``: the measure is pi on [0, full]
    and 0 on [0, empty].  A chord ends on a side line, so it is no shorter
    than that line's distance from (x, 0); for 0 <= x <= full = base/2 -
    reach both side offsets are at least the reach, so both lines lie at
    least t away and every direction but a tangent one qualifies.  The
    triangle is the convex hull of its vertices, so a disc that holds the
    three holds every chord; for 0 <= x <= empty = min(t - base/2,
    sqrt(t^2 - height^2)) the far base vertex and the apex lie within t, and
    no direction qualifies.  With t <= height no piece lies within t of the
    apex, and ``empty`` is -inf.  The ranges never overlap: full > 0 needs
    reach < base/2, that is t < height * (base/2) / side < height, so then
    base/2 - t >= full, no apex distance exists and [0, full] is one piece.
    """
    triangle, t = problem.triangle, problem.threshold
    half, height = triangle.base / 2.0, triangle.height
    reach = t / (height / math.hypot(half, height))
    full = half - reach
    breakpoints = [abs(full), abs(half - t)]
    empty = -math.inf
    if t > height:
        # Not t*t - height*height: that cancels for t near the height, and is
        # inf - inf once both squares overflow.
        apex = math.sqrt((t - height) * (t + height))
        breakpoints.append(apex)
        empty = min(t - half, apex)
    edges = sorted({0.0, half, *(b for b in breakpoints if 0.0 < b < half)})
    return edges, full, empty


def _absorb_cusp(
    unit: ChordProblem, lo: float, hi: float, anchor: float
) -> Callable[[float], float]:
    """Integrand on s in [0, 1] integrating the direction-set measure over [lo, hi].

    ``anchor`` is the square-root branch point nearest the piece, never
    inside (lo, hi).  With full = base/2 - reach as in ``_breakpoints``, the
    tangency |full| is the one cusp on the half-base, an edge wherever it
    lies inside (0, base/2).  Right of the tangency, when full < 0, no
    crossing of side CB remains and the measure's nearest branch point is
    the mirror -|full|, where side AB's c = sqrt((1 - u)(1 + u)) of
    ``direction_set`` vanishes; every other piece is anchored at |full|.
    The map is anchored at the piece's end on the anchor's side:
    x = lo + v^2 when the anchor is at or left of lo, else x = hi - v^2,
    shifted so that v = 0 falls on the anchor, with v linear in s.  The
    square-root cusp then becomes smooth in s whether it is the end or lies
    beyond it, and a far one makes the map nearly linear.  The map is
    written about the end, x = end +- q*s*(2a + q*s) with
    a = sqrt(|end - anchor|) and q = w / (a + sqrt(a^2 + w)), so nothing
    cancels when the anchor is far; one that overflowed to inf gets the
    limit x = lo + w*s.  x is clamped into [lo, hi] against roundoff.
    """
    w = hi - lo
    if anchor == math.inf:
        return lambda s: direction_set(unit, min(max(lo + w * s, lo), hi)).measure * w
    end, direction = (lo, 1.0) if anchor <= lo else (hi, -1.0)
    distance = abs(end - anchor)
    a = math.sqrt(distance)
    q = w / (a + math.sqrt(distance + w))

    def integrand(s: float) -> float:
        x = end + direction * q * s * (2.0 * a + q * s)
        return direction_set(unit, min(max(x, lo), hi)).measure * 2.0 * q * (a + q * s)

    return integrand


def probability_general(problem: ChordProblem, tolerance: float = 1e-10) -> QuadratureResult:
    """Exceedance probability for any configuration, by quadrature.

    Solves the problem scaled to base 1 (``unit_base``) at ``tolerance``, so
    every scale takes the same steps, and scales the integral back.
    Integrates the direction-set measure over [0, 1/2] piece by piece,
    doubles it by mirror symmetry and normalizes by pi (uniform base point,
    uniform angle).  When ``full`` of ``_breakpoints`` is positive, [0, full]
    is one piece where every direction qualifies, and adds exactly pi times
    its width; a piece that ends by ``empty``, where none does, adds 0.
    Every other piece is analytic once its nearest branch point is absorbed
    (``_absorb_cusp``: the tangency |full|, or its mirror -|full| for a piece
    right of the tangency when full < 0), and gets one adaptive
    Gauss–Kronrod–Patterson 7/15 run (``integrate_profile``) at tolerance /
    (2 * integrated pieces), so pi * p is within ``tolerance``.
    ``evaluations`` sums the integrated pieces, so it is 0 when t = 0 or t
    exceeds every chord, and ``converged`` holds when all of them converged.

    Raises:
        ValueError: tolerance is not positive and finite.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    unit = unit_base(problem)
    edges, full, empty = _breakpoints(unit)
    varying = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > max(full, empty)]
    # A tolerance below about 3e-323 shares out to 0; the smallest float is roundoff anyway.
    share = max(tolerance / (2.0 * max(len(varying), 1)), math.ulp(0.0))
    pieces = [
        integrate_profile(
            _absorb_cusp(unit, lo, hi, full if lo >= abs(full) else abs(full)), 0.0, 1.0, share
        )
        for lo, hi in varying
    ]
    unit_integral = 2.0 * math.fsum(
        [math.pi * max(full, 0.0), *(piece.integral for piece in pieces)]
    )
    return QuadratureResult(
        integral=unit_integral * problem.triangle.base,
        probability=unit_integral / math.pi,
        evaluations=sum(piece.evaluations for piece in pieces),
        tolerance=tolerance,
        converged=all(piece.converged for piece in pieces),
    )
