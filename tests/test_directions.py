"""Tests for direction sets and the general-configuration probability."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trichord import (
    AngularIntervalSet,
    ChordProblem,
    IsoscelesTriangle,
    OutOfBaseError,
    direction_set,
    is_unit_configuration,
    limit_angle,
    probability_general,
    side_hit,
)

# Frozen from 50-digit evaluations of the closed form.
P_EXACT = 0.016212872164880516
ALPHA_HALF = 0.17985349979247827

UNIT = ChordProblem(IsoscelesTriangle(1.0, 1.0), 1.0)


def test_interval_set_measure():
    assert AngularIntervalSet(()).measure == 0.0
    assert AngularIntervalSet(((0.0, math.pi),)).measure == math.pi
    two = AngularIntervalSet(((0.1, 0.2), (0.5, 0.9)))
    assert two.measure == pytest.approx(0.5, abs=1e-15)


def test_interval_set_contains():
    s = AngularIntervalSet(((0.1, 0.2), (0.5, 0.9)))
    assert s.contains(0.15)
    assert s.contains(0.7)
    assert not s.contains(0.3)
    assert not s.contains(0.1)  # boundaries excluded
    assert not s.contains(0.9)
    assert not s.contains(3.0)


def test_interval_set_validation():
    with pytest.raises(ValueError):
        AngularIntervalSet(((0.2, 0.1),))
    with pytest.raises(ValueError):
        AngularIntervalSet(((-0.1, 0.2),))
    with pytest.raises(ValueError):
        AngularIntervalSet(((0.0, math.pi + 0.1),))
    with pytest.raises(ValueError):
        AngularIntervalSet(((0.5, 0.9), (0.1, 0.2)))


def test_threshold_validation():
    with pytest.raises(ValueError):
        ChordProblem(IsoscelesTriangle(), -0.5)
    with pytest.raises(ValueError):
        ChordProblem(IsoscelesTriangle(), math.inf)


def test_shape_beyond_float_range_is_rejected():
    # height / base underflows to 0, so no base-1 problem represents it.
    with pytest.raises(ValueError) as excinfo:
        ChordProblem(IsoscelesTriangle(1e300, 1e-30), 1.0)
    assert str(excinfo.value) == (
        "base 1e+300, height 1e-30 and threshold 1.0 span more than the floating-point range"
    )
    with pytest.raises(ValueError, match="floating-point range"):
        ChordProblem(IsoscelesTriangle(1e-30, 1.0), 1e300)


def test_is_unit_configuration():
    assert is_unit_configuration(UNIT)
    assert not is_unit_configuration(ChordProblem(IsoscelesTriangle(2.0, 1.0), 1.0))
    assert not is_unit_configuration(ChordProblem(IsoscelesTriangle(), 0.5))


def test_center_point_has_empty_set():
    # every chord from the base midpoint is at most 1 long
    assert direction_set(UNIT, 0.0).intervals == ()


def test_quarter_point_is_single_interval():
    s = direction_set(UNIT, 0.25)
    assert len(s.intervals) == 1
    assert s.measure == pytest.approx(limit_angle(0.25), abs=1e-9)


def test_endpoint_measure_matches_closed_form():
    for x in (0.5, -0.5):
        assert direction_set(UNIT, x).measure == pytest.approx(ALPHA_HALF, abs=1e-9)


def test_zero_threshold_gives_half_turn():
    problem = ChordProblem(IsoscelesTriangle(), 0.0)
    for x in (0.0, 0.3, -0.5, 0.5):
        s = direction_set(problem, x)
        assert s.intervals == ((0.0, math.pi),)
        assert s.measure == math.pi


def test_unreachable_threshold_gives_empty_set():
    problem = ChordProblem(IsoscelesTriangle(), 3.0)
    for x in (-0.5, -0.2, 0.0, 0.4, 0.5):
        assert direction_set(problem, x).measure == 0.0


def test_matches_limit_angle_on_grid():
    xs = [(i - 50) / 100.0 for i in range(101)]
    worst = max(abs(direction_set(UNIT, x).measure - limit_angle(x)) for x in xs)
    assert worst < 1e-9


def test_membership_agrees_with_chord_length():
    rng = np.random.default_rng(7)
    problem = ChordProblem(IsoscelesTriangle(), 0.9)
    checked = 0
    for _ in range(1000):
        x = float(rng.uniform(-0.5, 0.5))
        theta = float(rng.uniform(1e-6, math.pi - 1e-6))
        s = direction_set(problem, x)
        near_boundary = any(
            abs(theta - edge) < 1e-9 for pair in s.intervals for edge in pair
        )
        if near_boundary:
            continue
        hit = side_hit(problem.triangle, x, theta)
        assert s.contains(theta) == (hit.distance > problem.threshold)
        checked += 1
    assert checked > 950


def test_monotone_in_threshold():
    x = 0.31
    triangle = IsoscelesTriangle(1.0, 1.0)
    measures = [
        direction_set(ChordProblem(triangle, t), x).measure
        for t in (0.0, 0.3, 0.6, 0.9, 1.0, 1.05, 1.11, 1.2)
    ]
    for bigger, smaller in zip(measures, measures[1:]):
        assert smaller <= bigger + 1e-12


def test_nested_in_threshold():
    triangle = IsoscelesTriangle(1.0, 1.0)
    x = -0.2
    inner = direction_set(ChordProblem(triangle, 1.05), x)
    outer = direction_set(ChordProblem(triangle, 0.95), x)
    for start, end in inner.intervals:
        assert outer.contains(0.5 * (start + end))


def test_measure_is_continuous_in_x():
    problem = ChordProblem(IsoscelesTriangle(), 0.8)
    x = 0.2
    here = direction_set(problem, x).measure
    steps = [
        abs(direction_set(problem, x + h).measure - here) for h in (1e-3, 1e-5, 1e-7)
    ]
    assert steps[0] < 1e-2
    assert steps[1] < 1e-4
    assert steps[2] < 1e-6


@pytest.mark.parametrize(
    "base, height, threshold",
    [
        (1.0, 1.0, 1.0),
        (1.0, 0.01, 0.5),
        (1.0, 100.0, 50.0),
        (2.5, 0.75, 1.1),
        (1.0, 0.5, 0.7),  # t > height: some crossings lie beyond the apex
    ],
)
def test_boundary_rays_hit_at_threshold_distance(base, height, threshold):
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(100):
        x = float(rng.uniform(-base / 2.0, base / 2.0))
        for start, end in direction_set(problem, x).intervals:
            for edge in (start, end):
                if 1e-9 < edge < math.pi - 1e-9:
                    hit = side_hit(problem.triangle, x, edge)
                    assert hit.distance == pytest.approx(threshold, rel=1e-9, abs=0.0)
                    checked += 1
    assert checked > 50


def _measure_50_digits(problem, x):
    """Direction-set measure at 50 digits: pi minus the arcs outside the sides.

    The point at distance t along a ray leaves the triangle exactly when it
    crosses a side line, which happens within acos(d/t) of that side's
    outward normal, d the distance from (x, 0) to the line.
    """
    import mpmath

    with mpmath.workdps(50):
        half = mpmath.mpf(problem.triangle.base) / 2
        height, t = mpmath.mpf(problem.triangle.height), mpmath.mpf(problem.threshold)
        side = mpmath.hypot(half, height)
        normal = mpmath.atan2(half, height)  # outward normal of AB
        arcs = []
        for depth, center in ((half - x, normal), (half + x, mpmath.pi - normal)):
            distance = depth * height / side
            if distance < t:
                width = mpmath.acos(distance / t)
                arcs.append((max(0, center - width), min(mpmath.pi, center + width)))
        covered = sum(end - start for start, end in arcs)
        if len(arcs) == 2:
            (a0, a1), (b0, b1) = arcs
            covered -= max(0, min(a1, b1) - max(a0, b0))
        return float(mpmath.pi - covered)


# Cutoffs whose tangency x = +-(base/2 - t*side/height) lies at a tenth, half
# and nine tenths of the way in from the base's ends, on flat, tall and
# middling shapes, plus one where a solver that snapped near-tangent circles
# to a single root was 2e-7 rad off.
TANGENCY_CASES = [
    (base, height, share * (base / 2.0) * height / math.hypot(base / 2.0, height))
    for base, height in ((1.0, 0.01), (1.0, 100.0), (2.0, 1.5), (2.5, 0.75))
    for share in (0.1, 0.5, 0.9)
] + [(2.0, 1.5, 0.04158171345953375)]


@pytest.mark.parametrize("base, height, threshold", TANGENCY_CASES)
def test_measure_is_accurate_at_tangencies(base, height, threshold):
    # At a tangency the measure has a square-root cusp, so an error of one
    # ulp in the distance to the side line costs about 1e-8 rad.
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    tangency = base / 2.0 - threshold * math.hypot(base / 2.0, height) / height
    for center in (tangency, -tangency):
        points = [center]
        for direction in (-math.inf, math.inf):
            x = center
            for _ in range(4):
                x = math.nextafter(x, direction)
                points.append(x)
        for x in points:
            error = abs(direction_set(problem, x).measure - _measure_50_digits(problem, x))
            assert error <= 1e-7, (x, error)


def test_direction_set_rejects_off_base_points():
    with pytest.raises(OutOfBaseError):
        direction_set(UNIT, 0.75)


def test_probability_general_unit_matches_exact():
    result = probability_general(UNIT, 1e-10)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-8)
    assert result.converged
    assert result.probability == pytest.approx(
        result.integral / math.pi, rel=1e-15
    )


def test_probability_general_zero_threshold():
    result = probability_general(ChordProblem(IsoscelesTriangle(), 0.0), 1e-10)
    assert result.probability == pytest.approx(1.0, abs=1e-12)


def test_probability_general_unreachable_threshold():
    result = probability_general(ChordProblem(IsoscelesTriangle(), 3.0), 1e-10)
    assert result.probability == 0.0


def test_probability_general_monotone_in_threshold():
    triangle = IsoscelesTriangle(1.0, 1.0)
    probabilities = [
        probability_general(ChordProblem(triangle, t), 1e-8).probability
        for t in (0.2, 0.6, 1.0, 1.2)
    ]
    for bigger, smaller in zip(probabilities, probabilities[1:]):
        assert smaller <= bigger + 1e-8


def test_probability_general_scale_invariance():
    small = probability_general(ChordProblem(IsoscelesTriangle(1.0, 1.0), 1.0), 1e-8)
    big = probability_general(ChordProblem(IsoscelesTriangle(3.0, 3.0), 3.0), 1e-8)
    assert big.probability == pytest.approx(small.probability, abs=1e-7)


def _reference_probability(problem, tolerance):
    """QUADPACK over the whole base, split at the tangencies and vertex distances.

    Returns the probability and the error bound QUADPACK claims for it.
    """
    from scipy.integrate import IntegrationWarning, quad

    base, height = problem.triangle.base, problem.triangle.height
    t = problem.threshold
    half = base / 2.0
    tangency = half - t * math.hypot(half, height) / height
    breaks = [tangency, half - t]
    if t > height:
        breaks.append(math.sqrt(t * t - height * height))
    points = sorted({s * b for b in breaks for s in (1.0, -1.0) if abs(b) < half})
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        integral, error = quad(
            lambda x: direction_set(problem, x).measure,
            -half,
            half,
            points=points or None,
            epsabs=tolerance / 20.0,
            epsrel=0.0,
            limit=500,
        )
    scale = math.pi * base
    return integral / scale, error / scale


def _assert_matches_reference(problem, tolerance):
    result = probability_general(problem, tolerance)
    assert result.converged
    reference, error = _reference_probability(problem, tolerance)
    bound = tolerance / (math.pi * problem.triangle.base)
    assert error * 10.0 <= bound
    assert abs(result.probability - reference) <= bound


@pytest.mark.parametrize("tolerance", [1e-10, 1e-12])
@pytest.mark.parametrize(
    "base, height, threshold",
    [
        (2.0, 1.5, 0.8),  # the README example
        (1.0, 1.0, 0.5),
        (3.0, 1.0, 1.0),
        (2.0, 1.0, 1.0 / math.sqrt(2.0)),  # both tangencies at the mirror axis
        (2.0, 1.0, math.nextafter(1.0 / math.sqrt(2.0), 0.0)),  # and within roundoff
        (2.0, 1.0, math.nextafter(1.0 / math.sqrt(2.0), 1.0)),
        (1.0, 100.0, 0.3),
        (1.0, 0.01, 0.9),
    ],
)
def test_probability_general_converges_and_matches_quadpack(base, height, threshold, tolerance):
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    _assert_matches_reference(problem, tolerance)


# Adaptive Simpson accepts a panel of this shape too early at tol 1e-10 and
# lands 3.5x outside its bound with converged=True (ROADMAP item 2).
EARLY_ACCEPTANCE = ChordProblem(
    IsoscelesTriangle(2.3409493128542507, 3.371844730074333), 1.624224626784513
)


@pytest.mark.parametrize(
    "tolerance",
    [
        1e-12,
        pytest.param(
            1e-10,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="early acceptance in adaptive Simpson (ROADMAP item 2 FOUND)",
            ),
        ),
    ],
)
def test_probability_general_early_acceptance_shape(tolerance):
    _assert_matches_reference(EARLY_ACCEPTANCE, tolerance)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    log_base=st.floats(-2.0, 2.0),
    log_height=st.floats(-2.0, 2.0),
    share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_probability_general_converges_across_configurations(log_base, log_height, share):
    base, height = 10.0**log_base, 10.0**log_height
    longest = max(base, math.hypot(base / 2.0, height))
    problem = ChordProblem(IsoscelesTriangle(base, height), share * longest)
    _assert_matches_reference(problem, 1e-10 * base)


def test_readme_example_converges_within_budget():
    result = probability_general(ChordProblem(IsoscelesTriangle(2.0, 1.5), 0.8), 1e-12)
    assert result.converged
    assert result.evaluations < 2000


@pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (2.0, 1.5, 0.8)])
def test_probability_is_scale_invariant_at_extreme_scales(shape):
    base, height, threshold = shape
    unit = probability_general(
        ChordProblem(IsoscelesTriangle(base, height), threshold), 1e-12
    ).probability
    for scale in (1e-300, 1e-100, 1e100, 1e300):
        problem = ChordProblem(
            IsoscelesTriangle(base * scale, height * scale), threshold * scale
        )
        result = probability_general(problem, 1e-12 * scale)
        assert result.converged
        assert result.probability == pytest.approx(unit, abs=1e-15)
        assert result.integral == pytest.approx(unit * math.pi * base * scale, rel=1e-14)


def test_tolerance_below_roundoff_at_large_scale_finishes():
    # The integral is about 5e4, so an absolute 1e-12 is below its roundoff.
    problem = ChordProblem(IsoscelesTriangle(1e6, 1e6), 1e6)
    result = probability_general(problem, 1e-12)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-10)
    assert result.evaluations < 10**4
    assert not result.converged


def test_tolerance_share_that_underflows_stays_positive():
    # 1e-30 / 1e300 underflows to 0, which integrate_profile would reject.
    problem = ChordProblem(IsoscelesTriangle(1e300, 1e300), 1e300)
    result = probability_general(problem, 1e-30)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-10)
    assert not result.converged


def _second_moment(triangle, x):
    """Integral over t of 2t * m(x, t), m the direction-set measure at cutoff t.

    QUADPACK splits at the distances from (x, 0) to the vertices and to both
    side lines, where the measure has kinks and cusps.
    """
    from scipy.integrate import IntegrationWarning, quad

    half, height = triangle.base / 2.0, triangle.height
    side = math.hypot(half, height)
    vertices = [half - x, math.hypot(x, height), half + x]
    lines = [(half - x) * height / side, (half + x) * height / side]
    longest = max(vertices)
    points = sorted({d for d in vertices + lines if 0.0 < d < longest})

    def integrand(t):
        return 2.0 * t * direction_set(ChordProblem(triangle, t), x).measure

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value, _ = quad(integrand, 0.0, longest, points=points, epsabs=0.0, epsrel=1e-13)
    return value


@pytest.mark.parametrize(
    "base, height", [(1.0, 1.0), (1.0, 0.01), (1.0, 100.0), (2.5, 0.75), (0.01, 1.0)]
)
def test_direction_set_second_moment_is_the_area(base, height):
    # The triangle is star-shaped from every base point, so half the integral
    # of L^2 over the angle is its area; by the layer-cake formula that is
    # the integral of 2t * m(x, t) over t, for every x.
    triangle = IsoscelesTriangle(base, height)
    half = base / 2.0
    for x in (half, -half, -0.3 * half, 0.0, 0.7 * half):
        assert _second_moment(triangle, x) == pytest.approx(base * height, rel=1e-12, abs=0.0), x
