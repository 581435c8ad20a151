"""Tests for the triangle frame, ray-side intersection, and the limit angle."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trichord import (
    DegenerateDirectionError,
    IsoscelesTriangle,
    OutOfBaseError,
    RayHit,
    Side,
    limit_angle,
    limit_angle_components,
    side_hit,
)

# Frozen from 50-digit evaluations of the closed form.
ALPHA_HALF = 0.17985349979247827  # 3*atan(2) - pi
ALPHA_QUARTER = 0.033532640713187395

UNIT = IsoscelesTriangle(1.0, 1.0)


def test_vertices_unit():
    a, b, c = UNIT.vertices()
    assert a == (0.5, 0.0)
    assert b == (0.0, 1.0)
    assert c == (-0.5, 0.0)


def test_vertices_general():
    a, b, c = IsoscelesTriangle(2.0, 3.0).vertices()
    assert a == (1.0, 0.0)
    assert b == (0.0, 3.0)
    assert c == (-1.0, 0.0)


def test_base_angle_unit():
    assert UNIT.base_angle() == pytest.approx(math.atan(2.0), abs=1e-15)


def test_base_angle_right_isosceles():
    # height = base/2 puts the sides at 45 degrees
    assert IsoscelesTriangle(2.0, 1.0).base_angle() == pytest.approx(
        math.pi / 4, abs=1e-15
    )


def test_invalid_triangle_dimensions():
    with pytest.raises(ValueError):
        IsoscelesTriangle(0.0, 1.0)
    with pytest.raises(ValueError):
        IsoscelesTriangle(1.0, -2.0)
    with pytest.raises(ValueError):
        IsoscelesTriangle(math.inf, 1.0)


def test_side_hit_vertical_ray_hits_near_side():
    hit = side_hit(UNIT, 0.25, math.pi / 2)
    assert hit.side is Side.AB
    assert hit.point[0] == pytest.approx(0.25, abs=1e-12)
    assert hit.point[1] == pytest.approx(0.5, abs=1e-12)
    assert hit.distance == pytest.approx(0.5, abs=1e-12)


def test_side_hit_vertical_ray_from_center_hits_apex():
    hit = side_hit(UNIT, 0.0, math.pi / 2)
    assert hit.side is Side.APEX
    assert hit.point[0] == pytest.approx(0.0, abs=1e-12)
    assert hit.point[1] == pytest.approx(1.0, abs=1e-12)
    assert hit.distance == pytest.approx(1.0, abs=1e-12)


def test_side_hit_diagonal_ray():
    hit = side_hit(UNIT, -0.25, math.pi / 4)
    assert hit.side is Side.AB
    assert hit.point[0] == pytest.approx(0.25, abs=1e-12)
    assert hit.point[1] == pytest.approx(0.5, abs=1e-12)
    assert hit.distance == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 3.5, math.nan])
def test_side_hit_rejects_degenerate_directions(theta):
    with pytest.raises(DegenerateDirectionError):
        side_hit(UNIT, 0.0, theta)


def test_side_hit_rejects_off_base_points():
    with pytest.raises(OutOfBaseError):
        side_hit(UNIT, 0.51, math.pi / 2)
    with pytest.raises(OutOfBaseError):
        side_hit(UNIT, -5.0, 1.0)


def test_side_hit_from_endpoint_non_entering_ray():
    # Straight up from a base endpoint exits through the endpoint itself.
    hit = side_hit(UNIT, 0.5, math.pi / 2)
    assert hit.side is Side.AB
    assert hit.point == (0.5, 0.0)
    assert hit.distance == 0.0
    hit = side_hit(UNIT, -0.5, math.pi / 2)
    assert hit.side is Side.CB
    assert hit.distance == 0.0


def test_side_hit_from_endpoint_along_side():
    # From A toward the apex the chord is the full side AB.
    hit = side_hit(UNIT, 0.5, math.atan2(1.0, -0.5))
    assert hit.side is Side.APEX
    assert hit.distance == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_side_hit_from_endpoint_across_to_far_side():
    # From A at 135 degrees: meets CB (the line y = 1 + 2x) at (-1/6, 2/3).
    hit = side_hit(UNIT, 0.5, 3.0 * math.pi / 4.0)
    assert hit.side is Side.CB
    assert hit.point[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
    assert hit.point[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert hit.distance == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)


# A product of two lengths overflows from 1e155 and loses bits below 1e-154.
# The distance is compared in units of the scale, where approx's absolute
# tolerance cannot hide a tiny one.
@pytest.mark.parametrize("scale", [2.0, 1e155, 1e300, 1e-160, 1e-300])
def test_side_hit_scales_linearly(scale):
    hit_unit = side_hit(UNIT, 0.25, 1.1)
    hit_scaled = side_hit(IsoscelesTriangle(scale, scale), 0.25 * scale, 1.1)
    assert hit_scaled.side is hit_unit.side
    assert hit_scaled.distance / scale == pytest.approx(hit_unit.distance, rel=1e-12)


# Flat, tall and middling shapes besides the unit one, so that a side_hit
# which swaps half the base and the height fails.
SHAPES = [
    UNIT,
    IsoscelesTriangle(1.0, 0.01),
    IsoscelesTriangle(1.0, 100.0),
    IsoscelesTriangle(2.5, 0.75),
]


@given(
    triangle=st.sampled_from(SHAPES),
    share=st.floats(-1.0, 1.0),
    theta=st.floats(1e-9, math.pi - 1e-9),
)
def test_side_hit_point_lies_on_struck_side(triangle, share, theta):
    half, height = triangle.base / 2.0, triangle.height
    x = share * half
    hit = side_hit(triangle, x, theta)
    px, py = hit.point
    if hit.side is Side.APEX:
        assert math.dist((px, py), (0.0, height)) <= 1e-12
    elif hit.side is Side.AB:
        assert py == pytest.approx(height * (half - px) / half, abs=1e-9 * height)
        assert -1e-9 * height <= py <= (1.0 + 1e-9) * height
    else:
        assert py == pytest.approx(height * (half + px) / half, abs=1e-9 * height)
        assert -1e-9 * height <= py <= (1.0 + 1e-9) * height
    assert hit.distance >= 0.0
    assert hit.distance == pytest.approx(
        math.dist((x, 0.0), (px, py)), abs=1e-12 * max(1.0, height)
    )


@pytest.mark.parametrize("x, side", [(0.49999, Side.AB), (-0.49999, Side.CB)])
def test_side_hit_distance_that_underflows_is_zero(x, side):
    # 1e-5 * 1e-320 / 0.5 is below the smallest float, so the ray leaves at
    # its origin, on the side it points at.
    hit = side_hit(IsoscelesTriangle(1.0, 1e-320), x, math.pi / 2)
    assert hit == RayHit(side, (x, 0.0), 0.0)


def test_ray_hit_is_an_immutable_named_tuple():
    hit = side_hit(UNIT, 0.25, math.pi / 2)
    assert RayHit._fields == ("side", "point", "distance")
    with pytest.raises(AttributeError):
        hit.distance = 1.0


def test_limit_angle_components_assemble():
    comp = limit_angle_components(0.3)
    assert comp.base_angle_a == comp.base_angle_c == math.atan(2.0)
    total = (
        comp.hit_angle_ab + comp.hit_angle_cb + comp.base_angle_a + comp.base_angle_c
    )
    assert comp.alpha == pytest.approx(total - math.pi, abs=1e-15)
    assert limit_angle(0.3) == comp.alpha


def test_limit_angle_center_is_zero():
    assert limit_angle(0.0) == 0.0


def test_limit_angle_endpoints():
    assert limit_angle(0.5) == pytest.approx(ALPHA_HALF, abs=1e-14)
    assert limit_angle(-0.5) == pytest.approx(ALPHA_HALF, abs=1e-14)
    assert limit_angle(0.5) == pytest.approx(3.0 * math.atan(2.0) - math.pi, abs=1e-14)


def test_limit_angle_quarter_point():
    assert limit_angle(0.25) == pytest.approx(ALPHA_QUARTER, abs=5e-15)
    assert limit_angle(-0.25) == pytest.approx(ALPHA_QUARTER, abs=5e-15)


def test_limit_angle_mirror_symmetry_is_exact():
    xs = [i / 1000.0 for i in range(501)]
    for x in xs:
        assert limit_angle(x) == limit_angle(-x)


def test_limit_angle_nonnegative_and_bounded():
    top = 3.0 * math.atan(2.0) - math.pi
    xs = [(i - 500) / 1000.0 for i in range(1001)]
    for x in xs:
        value = limit_angle(x)
        assert -1e-15 <= value <= top + 1e-15
        if x != 0.0:
            assert value > 0.0


def test_limit_angle_decreases_then_increases():
    xs = [(i - 500) / 1000.0 for i in range(1001)]
    values = [limit_angle(x) for x in xs]
    for left, right in zip(values[:500], values[1:501]):
        assert right <= left + 1e-15
    for left, right in zip(values[500:-1], values[501:]):
        assert right >= left - 1e-15


@given(st.floats(-0.5, 0.5))
def test_limit_angle_stays_in_range(x):
    value = limit_angle(x)
    assert -1e-15 <= value <= 3.0 * math.atan(2.0) - math.pi + 1e-15


def test_limit_angle_rejects_off_base_points():
    with pytest.raises(OutOfBaseError):
        limit_angle(0.5000001)
    with pytest.raises(OutOfBaseError):
        limit_angle_components(-2.0)
    with pytest.raises(OutOfBaseError):
        limit_angle(math.nan)
