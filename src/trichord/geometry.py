"""Triangle frame, chord problem, upward ray-side intersection, and the closed-form limit angle.

The frame places the origin at the midpoint of the base, the x axis along the
base toward vertex A, and the apex B on the positive y axis.  A point on the
base is identified by its abscissa x in [-base/2, base/2]; a ray from it is
identified by its angle theta in (0, pi) measured counterclockwise from the
positive x axis, so every admissible ray points into the upper half plane.

``ChordProblem`` pairs a triangle with a chord-length cutoff, and
``unit_base`` scales it to base 1, where both the quadrature and Monte Carlo
engines work; both take them from here, so neither loads the other.

``limit_angle`` is specific to the unit configuration (base = height = 1 with
a unit chord cutoff): it gives the total angular measure of ray directions
whose chord to the boundary is longer than 1.  General configurations go
through :mod:`trichord.directions` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateDirectionError, OutOfBaseError

SQRT5 = math.sqrt(5.0)

# Share of the height within which a hit is labeled APEX, and by which a hit
# may overshoot the apex, so that hits on a vertex survive roundoff.
APEX_TOLERANCE = 1e-12

Point = tuple[float, float]


class Side(Enum):
    """Part of the upper boundary an upward ray strikes."""

    AB = "AB"
    CB = "CB"
    APEX = "APEX"


@dataclass(frozen=True)
class IsoscelesTriangle:
    """Isosceles triangle with horizontal base and apex above its midpoint.

    Vertices sit at A = (base/2, 0), B = (0, height), C = (-base/2, 0).
    The unit configuration (base = height = 1) is the default of the command
    line tools and the only configuration with a closed-form limit angle.
    """

    base: float = 1.0
    height: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base) and self.base > 0.0):
            raise ValueError(f"base must be a positive finite length, got {self.base}")
        if not (math.isfinite(self.height) and self.height > 0.0):
            raise ValueError(f"height must be a positive finite length, got {self.height}")

    def vertices(self) -> tuple[Point, Point, Point]:
        """Vertices (A, B, C): base endpoints A, C and apex B."""
        half = self.base / 2.0
        return (half, 0.0), (0.0, self.height), (-half, 0.0)

    def base_angle(self) -> float:
        """Interior angle at each base vertex, in radians."""
        return math.atan2(2.0 * self.height, self.base)


# Built once: the unit-configuration closed forms check every abscissa against it.
UNIT_TRIANGLE = IsoscelesTriangle()


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

    Scaling keeps the bits of subnormal lengths, which direction sets at
    base 1 then work with in full precision; it lets Monte Carlo draw its
    points at base 1; and it makes the quadrature take the same decisions
    at every scale.
    """
    triangle = problem.triangle
    height = triangle.height / triangle.base
    return ChordProblem(IsoscelesTriangle(1.0, height), problem.threshold / triangle.base)


def unit_abscissa(x: float, base: float) -> float:
    """x / base, clamped onto [-1/2, 1/2]: at a subnormal base +-base/2 rounds."""
    return min(max(x / base, -0.5), 0.5)


def is_unit_configuration(problem: ChordProblem) -> bool:
    """True for base = height = threshold = 1, where the closed form applies."""
    return (
        problem.triangle.base == 1.0
        and problem.triangle.height == 1.0
        and problem.threshold == 1.0
    )


class RayHit(NamedTuple):
    """Where an upward ray first meets the upper boundary.

    ``distance`` is the chord length from the base point to ``point``; ``side``
    tells which side was struck, or APEX when the hit lands on the apex.  A
    NamedTuple, so it is immutable and unpacks, indexes and compares equal
    like the plain tuple (side, point, distance); it builds faster than a
    frozen dataclass, and ``direction_set`` builds one per cell.
    """

    side: Side
    point: Point
    distance: float


@dataclass(frozen=True)
class LimitAngleBreakdown:
    """Angles assembling the limit angle at one base abscissa (unit configuration).

    ``hit_angle_ab`` and ``hit_angle_cb`` are the angles subtended at the two
    unit-distance boundary points on sides AB and CB; ``base_angle_a`` and
    ``base_angle_c`` are the triangle's base angles.  They combine as
    ``alpha = hit_angle_ab + hit_angle_cb + base_angle_a + base_angle_c - pi``.
    """

    hit_angle_ab: float
    hit_angle_cb: float
    base_angle_a: float
    base_angle_c: float
    alpha: float


def require_on_base(triangle: IsoscelesTriangle, x: float) -> None:
    """Raise OutOfBaseError unless x lies on the closed base interval."""
    half = triangle.base / 2.0
    if not -half <= x <= half:
        raise OutOfBaseError(f"x={x} lies outside the base [{-half}, {half}]")


def side_hit(triangle: IsoscelesTriangle, x: float, theta: float) -> RayHit:
    """First intersection of the upward ray from (x, 0) with the upper sides.

    Args:
        triangle: the containing triangle.
        x: base abscissa of the ray origin, in [-base/2, base/2].
        theta: ray angle in (0, pi), from the positive x axis.

    Returns:
        RayHit naming the struck side (AB toward vertex A, CB toward vertex C,
        or APEX for a hit less than ``APEX_TOLERANCE`` times the height below
        the apex), the hit point, and the chord length.

    Raises:
        OutOfBaseError: x lies outside the base.
        DegenerateDirectionError: theta falls outside the open interval (0, pi).

    No two lengths are multiplied, so the hit scales with the triangle at any
    float scale.  From a base endpoint, rays that do not enter the triangle
    meet the boundary at the endpoint itself: the hit degenerates to the
    origin with distance 0 on the side containing that endpoint.  On a shape
    flatter than about height/base = 1e-307 a hit distance can underflow to
    0; the hit is then the origin too, on the side the ray points at.
    """
    half, height = triangle.base / 2.0, triangle.height
    # half is finite, so each chained comparison also rejects nan and +-inf.
    if not -half <= x <= half:
        raise OutOfBaseError(f"x={x} lies outside the base [{-half}, {half}]")
    if not 0.0 < theta < math.pi:
        raise DegenerateDirectionError(
            f"ray angle must lie strictly inside (0, pi), got {theta}"
        )

    dir_x, dir_y = math.cos(theta), math.sin(theta)

    # Relative to (x, 0), side AB runs from (half - x, 0) by (-half, height)
    # and side CB from (-half - x, 0) by (half, height); the ray meets a side
    # line at distance t and height t * dir_y, and strikes the side unless
    # that height is above the apex.  half - x >= 0 >= -half - x, so only a
    # positive denominator for AB, or a negative one for CB, gives t > 0;
    # otherwise, as for a parallel ray, the other side catches it.
    distance, side = math.inf, None
    top = height * (1.0 + APEX_TOLERANCE)
    denom = dir_x * height + dir_y * half
    if denom > 0.0:
        t = (half - x) * (height / denom)
        if t > 0.0 and t * dir_y <= top:
            distance, side = t, Side.AB
    denom = dir_x * height - dir_y * half
    if denom < 0.0:
        t = (-half - x) * (height / denom)
        if 0.0 < t < distance and t * dir_y <= top:
            distance, side = t, Side.CB

    if side is None:
        # A non-entering ray from a base endpoint, or an underflowed hit:
        # from A such a ray lies below side AB, from C above side CB.
        side = Side.AB if theta < math.atan2(height, -x) else Side.CB
        return RayHit(side, (x, 0.0), 0.0)

    point = (x + distance * dir_x, distance * dir_y)
    if point[1] >= height * (1.0 - APEX_TOLERANCE):
        side = Side.APEX
    # tuple.__new__ builds the same RayHit without the Python-level __new__.
    return tuple.__new__(RayHit, (side, point, distance))


def limit_angle_components(x: float) -> LimitAngleBreakdown:
    """Decompose the unit-configuration limit angle at abscissa x.

    The two unit-distance boundary points on sides AB and CB subtend angles
    asin((1 - 2x)/sqrt(5)) and asin((1 + 2x)/sqrt(5)) below the respective
    sides; together with the two base angles atan(2) they leave an angular
    gap of ``alpha`` radians in the half-turn at (x, 0).  Rays inside that gap
    reach the boundary at distance greater than 1.

    Raises:
        OutOfBaseError: x lies outside [-1/2, 1/2].
    """
    require_on_base(UNIT_TRIANGLE, x)
    hit_ab = math.asin((1.0 - 2.0 * x) / SQRT5)
    hit_cb = math.asin((1.0 + 2.0 * x) / SQRT5)
    base = math.atan(2.0)
    alpha = hit_ab + hit_cb + 2.0 * base - math.pi
    return LimitAngleBreakdown(
        hit_angle_ab=hit_ab,
        hit_angle_cb=hit_cb,
        base_angle_a=base,
        base_angle_c=base,
        alpha=alpha,
    )


def limit_angle(x: float) -> float:
    """Angular measure of directions whose chord exceeds 1 (unit configuration).

    Equals asin((1-2x)/sqrt(5)) + asin((1+2x)/sqrt(5)) + 2*atan(2) - pi, which
    is 0 at x = 0 and rises to 3*atan(2) - pi at the base endpoints.

    Raises:
        OutOfBaseError: x lies outside [-1/2, 1/2].
    """
    return limit_angle_components(x).alpha
