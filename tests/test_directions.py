"""Tests for direction sets and the general-configuration probability."""

import math
import random
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
from trichord import directions, quadrature
from trichord.directions import _breakpoints, unit_base

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


def _arc_measure(half, height, t, x):
    """Direction-set measure in mpmath: pi minus the arcs outside the sides.

    The point at distance t along a ray leaves the triangle exactly when it
    crosses a side line, which happens within acos(d/t) of that side's
    outward normal, d the distance from (x, 0) to the line.
    """
    import mpmath

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
    return mpmath.pi - covered


def _measure_50_digits(problem, x):
    """The arc model's measure at 50 digits, rounded to a float."""
    import mpmath

    with mpmath.workdps(50):
        half = mpmath.mpf(problem.triangle.base) / 2
        height, t = mpmath.mpf(problem.triangle.height), mpmath.mpf(problem.threshold)
        return float(_arc_measure(half, height, t, x))


def _probability_50_digits(problem):
    """The arc model integrated over the base by mpmath, split at its breakpoints."""
    import mpmath

    with mpmath.workdps(50):
        half = mpmath.mpf(problem.triangle.base) / 2
        height, t = mpmath.mpf(problem.triangle.height), mpmath.mpf(problem.threshold)
        # The tangency and the vertex distance lie at +-(half - reach) and
        # +-(half - t); on [0, half] each shows at its absolute value.
        breaks = [abs(half - t * mpmath.hypot(half, height) / height), abs(half - t)]
        if t > height:
            breaks.append(mpmath.sqrt(t * t - height * height))
        edges = [0, *sorted(b for b in breaks if 0 < b < half), half]
        integral = mpmath.quad(lambda x: _arc_measure(half, height, t, x), edges)
        return float(integral / (mpmath.pi * half))


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
        for x in _within_ulps(center, 4):
            error = abs(direction_set(problem, x).measure - _measure_50_digits(problem, x))
            assert error <= 1e-7, (x, error)


def _within_ulps(center, count):
    """center and the count floats on either side of it."""
    points = [center]
    for direction in (-math.inf, math.inf):
        x = center
        for _ in range(count):
            x = math.nextafter(x, direction)
            points.append(x)
    return points


# Flat, tall and middling shapes, each with the cutoff below and above the
# height; above it the circle of radius t passes through the apex from
# x = +-sqrt(t^2 - h^2).
APEX_CASES = [
    (1.0, 0.01, 0.005),
    (1.0, 0.01, 0.3),
    (1.0, 100.0, 50.0),
    (1.0, 100.0, 100.001),
    (2.5, 0.75, 0.5),
    (2.5, 0.75, 1.1),
    (1.0, 1e300, 1e-10),
]


@pytest.mark.parametrize("base, height, threshold", APEX_CASES)
def test_measure_is_accurate_about_the_apex_direction(base, height, threshold):
    # The apex direction is no critical angle: the chord is continuous across
    # it inside the base, and at the base's ends a side crossing lies on it.
    # From x = 0 and +-base/4, where the cutoff of every shape with t above
    # the height exceeds the distance to the apex, a side line's crossing
    # toward the apex lies beyond it and is dropped.
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    half = base / 2.0
    centers = [half, -half, 0.0, half / 2.0, -half / 2.0]
    if threshold > height:
        through_apex = math.sqrt((threshold - height) * (threshold + height))
        assert through_apex < half
        centers += [through_apex, -through_apex]
    points = [x for center in centers for x in _within_ulps(center, 4) if abs(x) <= half]
    for x in points:
        error = abs(direction_set(problem, x).measure - _measure_50_digits(problem, x))
        assert error <= 1e-12, (x, error)


@pytest.mark.parametrize(
    "vertex, height, threshold",
    [
        ("A", 0.15236334916865257, 0.0011392185180045002),
        ("A", 19.843053450508368, 0.02780808499802837),
        ("A", 1.4141373028915076, 0.05782342330292364),
        ("C", 0.31100717013949897, 0.030353306263944203),
        ("C", 1.600223346661054, 0.22689924370838108),
        ("C", 3.094725763847554, 0.8456443579410309),
    ],
)
def test_measure_is_accurate_at_a_vertex_distance(vertex, height, threshold):
    # At x = 1/2 - t the circle of radius t passes through the base vertex
    # A, and at x = t - 1/2 through C.  Next to A, at the float x, the offset
    # to A exceeds t by about 2.5e-17, so the circle misses A and a gap
    # narrower than 1e-13 rad next to 0 is real and must count.  Next to C
    # a critical angle lies one ulp below pi, so the midpoint of the cell
    # between it and pi rounds onto an end, which is no direction inside the
    # cell, and the cell is left unclassified.
    problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
    x = 0.5 - threshold if vertex == "A" else threshold - 0.5
    error = abs(direction_set(problem, x).measure - _measure_50_digits(problem, x))
    assert error <= 1e-14, error


@pytest.mark.parametrize("base", [1e-310, 1e-315, 1e-318, 1e-320])
def test_measure_is_accurate_at_subnormal_bases(base):
    # Lengths this small have few bits, so the measure at the float inputs
    # is computed at base 1, where their ratios keep full precision.
    rng = np.random.default_rng(27)
    for _ in range(40):
        height = base * 10.0 ** rng.uniform(-1.0, 1.0)
        longest = max(base, math.hypot(base / 2.0, height))
        problem = ChordProblem(IsoscelesTriangle(base, height), rng.uniform(0.01, 1.0) * longest)
        x = rng.uniform(-0.5, 0.5) * base
        error = abs(direction_set(problem, x).measure - _measure_50_digits(problem, x))
        assert error <= 1e-14, (height, problem.threshold, x, error)


@pytest.mark.parametrize("base, threshold", [(2.0, 5e-324), (1e300, 1e-30)])
def test_cutoff_that_underflows_at_base_1_lets_every_direction_qualify(base, threshold):
    # threshold / base rounds to 0, so the problem at base 1 has no cutoff.
    problem = ChordProblem(IsoscelesTriangle(base, 1.0), threshold)
    for x in (0.0, base / 2.0, -base / 2.0):
        assert direction_set(problem, x).measure == math.pi


@pytest.mark.parametrize(
    "base, height, threshold", [(1.0, 1e-9, 1e-9), (1e308, 1.0, 1.0), (2.0, 1e-8, 1e-8)]
)
def test_flat_shape_admits_every_direction_from_the_middle(base, height, threshold):
    # At base 1 the depth half * h / (s * t) rounds to 1, so no crossing
    # splits [0, pi], and its midpoint pi/2 is the tangent direction, with a
    # chord of exactly t.  The arcs that the rounded depth hides are about
    # 8 * height / base wide.
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    measure = direction_set(problem, 0.0).measure
    assert measure == math.pi
    assert measure == pytest.approx(_measure_50_digits(problem, 0.0), abs=10.0 * height / base)


@pytest.mark.parametrize("threshold", [1e-100, 1e-200, 1e-300, 1e-310])
def test_tiny_cutoff_keeps_the_directions_from_the_base_ends(threshold):
    # Every ray that enters the triangle from a base end is longer than the
    # cutoff, so the measure is the base angle.  The square of the crossing
    # distance underflows here, and the crossing on the near side must stay.
    triangle = IsoscelesTriangle(2.5, 0.75)
    problem = ChordProblem(triangle, threshold)
    for x in (1.25, -1.25):
        assert direction_set(problem, x).measure == pytest.approx(
            triangle.base_angle(), rel=1e-15
        )


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
    assert result.probability == 1.0
    assert result.evaluations == 0


def test_probability_general_unreachable_threshold():
    result = probability_general(ChordProblem(IsoscelesTriangle(), 3.0), 1e-10)
    assert result.probability == 0.0
    assert result.evaluations == 0


@pytest.mark.parametrize("base, height", [(2.0, 1.5), (1.0, 0.3), (1.0, 100.0)])
def test_constant_probability_needs_no_quadrature(base, height):
    # With no cutoff every direction qualifies, and with one beyond the
    # longest chord none does, so both answers are exact.
    triangle = IsoscelesTriangle(base, height)
    longest = max(base, math.hypot(base / 2.0, height))
    for threshold, probability in ((0.0, 1.0), (1.01 * longest, 0.0)):
        result = probability_general(ChordProblem(triangle, threshold), 1e-10)
        assert (result.probability, result.evaluations) == (probability, 0)
        assert result.converged


def _constant_piece_cases():
    """A shape with a full piece, one with an empty piece, and cutoffs about breakpoints.

    Each shape also takes the cutoff at and one ulp about each place where
    ``full`` or ``empty`` meets a breakpoint.
    """
    cases = [(2.0, 1.5, 0.8), (1.0, 0.3, 0.9)]
    for base, height in ((2.0, 1.5), (1.0, 0.3)):
        half = base / 2.0
        side = math.hypot(half, height)
        places = (
            half * height / side,  # full = base/2 - reach meets 0
            half,  # empty's vertex part t - base/2 meets 0
            height,  # its apex part sqrt(t^2 - height^2) meets 0
            base / 4.0 + height * height / base,  # the two parts meet
            base,  # the vertex part meets base/2
            side,  # the apex part meets base/2
        )
        cases += [(base, height, t) for place in places for t in _within_ulps(place, 1)]
    return cases


@pytest.mark.parametrize("base, height, threshold", _constant_piece_cases())
def test_constant_pieces_are_exact(base, height, threshold):
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    tolerance = 1e-10
    result = probability_general(problem, tolerance)
    assert result.converged
    error = abs(result.probability - _probability_50_digits(problem))
    assert error <= tolerance / (math.pi * base), error
    # Ray casts, which do not use the bounds, find every direction
    # qualifying inside [0, full] and none on [0, empty].
    unit = unit_base(problem)
    _, full, empty = _breakpoints(unit)
    if full > 0.0:
        for k in range(1, 8):
            assert direction_set(unit, full * k / 8.0).measure == math.pi
    if empty >= 0.0:
        for k in range(9):
            assert direction_set(unit, min(empty, 0.5) * k / 8.0).measure == 0.0


def _coincidence_cases():
    """Base-1 shapes with cutoffs at and one ulp about five meetings of breakpoints.

    With s = hypot(1/2, h): a vertex distance meets 0 at t = 1/2 and a
    tangency at t = h/(2s); on a tall shape with a tiny cutoff the tangency
    and the vertex distance lie about t/(8h^2) apart, 1e-14 here; the apex
    distance meets a vertex distance at t = 1/4 + h^2, and touches a
    tangency at t = 2hs.
    """
    places = [
        (2.0, 0.5),
        (0.7, 0.7 / (2.0 * math.hypot(0.5, 0.7))),
        (100.0, 1e-9),
        (0.3, 0.25 + 0.3 * 0.3),
        (0.3, 2.0 * 0.3 * math.hypot(0.5, 0.3)),
    ]
    return [(height, t) for height, place in places for t in _within_ulps(place, 1)]


@pytest.mark.parametrize("height, threshold", _coincidence_cases())
def test_near_coincident_breakpoints_are_piece_edges(height, threshold):
    # The measure is analytic only between breakpoints, so each must be an
    # edge however close it lies to another one, to 0 or to 1/2.
    problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
    reach = threshold / (height / math.hypot(0.5, height))
    breakpoints = [0.5 - reach, reach - 0.5, 0.5 - threshold, threshold - 0.5]
    if threshold > height:
        breakpoints.append(math.sqrt((threshold - height) * (threshold + height)))
    edges, full, _ = _breakpoints(problem)
    assert [b for b in breakpoints if 0.0 < b < 0.5 and b not in edges] == []
    if 0.0 < full < 0.5:
        assert full in edges
    # Worst error measured: 1.1e-16, against a bound of 3.2e-13.
    tolerance = 1e-12
    result = probability_general(problem, tolerance)
    assert result.converged
    error = abs(result.probability - _probability_50_digits(problem))
    assert error <= tolerance / math.pi, error


def _breakpoint_meetings(height):
    """Cutoffs at which two breakpoints of the base-1 shape meet, or one meets 0 or 1/2.

    With s = hypot(1/2, h): the tangency meets 0 at t = h/(2s), 1/2 at h/s
    and the vertex distance at h/(h + s); the vertex distance meets 0 at
    t = 1/2 and 1/2 at 1; the apex distance appears at t = h, meets 1/2 at
    s, the vertex distance at 1/4 + h^2 and the tangency at 2hs.
    """
    side = math.hypot(0.5, height)
    return (
        height / (2.0 * side),
        height / side,
        height / (height + side),
        0.5,
        1.0,
        height,
        side,
        0.25 + height * height,
        2.0 * height * side,
    )


def _half_base_cases():
    """Base-1 shapes with cutoffs at and one ulp about each meeting of a breakpoint.

    At height 1e-320 and cutoff 1/2 the reach overflows.
    """
    cases = [(1e-320, 0.5)]
    for height in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
        places = _breakpoint_meetings(height)
        cases += [(height, t) for place in places for t in _within_ulps(place, 1)]
    return cases


@pytest.mark.parametrize("height, threshold", _half_base_cases())
def test_every_piece_is_anchored_at_the_one_tangency(height, threshold, monkeypatch):
    # On [0, 1/2] the only cusp is the tangency |1/2 - reach|, and it is never
    # strictly inside an integrated piece.  Each piece is anchored there,
    # except that right of the tangency, when full < 0, the nearest branch
    # point is its mirror -|full|.  When every direction qualifies near the
    # middle, [0, full] is the first piece.
    problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
    edges, full, _ = _breakpoints(problem)
    if full > 0.0:
        assert edges[:2] == [0.0, full]
    anchors = []
    absorb_cusp = directions._absorb_cusp

    def recording(unit, lo, hi, anchor):
        anchors.append((lo, hi, anchor))
        return absorb_cusp(unit, lo, hi, anchor)

    monkeypatch.setattr(directions, "_absorb_cusp", recording)
    result = probability_general(problem, 1e-10)
    assert result.converged
    tangency = abs(full)
    for lo, hi, anchor in anchors:
        assert anchor == (-tangency if full < 0.0 and lo >= tangency else tangency)
        assert not lo < tangency < hi, (lo, hi, tangency)


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


# A rule that accepts a panel too early lands outside the bound here with
# converged=True: at tol 1e-10 adaptive Simpson was 3.5x over on the first
# shape, and 1.57x and 1.80x on two general_sweep inputs (seeds 401 and 3002).
EARLY_ACCEPTANCE = ChordProblem(
    IsoscelesTriangle(2.3409493128542507, 3.371844730074333), 1.624224626784513
)
SWEEP_EARLY_ACCEPTANCE = [
    ChordProblem(IsoscelesTriangle(1.0, 1.2404193803786567), 0.9757309679305015),
    ChordProblem(IsoscelesTriangle(1.0, 1.5014742517545894), 0.9343076213151736),
]


@pytest.mark.parametrize(
    "problem, tolerance",
    [
        pytest.param(EARLY_ACCEPTANCE, 1e-12, id="1e-12"),
        pytest.param(EARLY_ACCEPTANCE, 1e-10, id="1e-10"),
        pytest.param(SWEEP_EARLY_ACCEPTANCE[0], 1e-10, id="sweep-seed-401-1e-10"),
        pytest.param(SWEEP_EARLY_ACCEPTANCE[1], 1e-10, id="sweep-seed-3002-1e-10"),
    ],
)
def test_probability_general_early_acceptance_shape(problem, tolerance):
    _assert_matches_reference(problem, tolerance)


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


def _seeded_sweep_cases():
    """200 seeded base-1 shapes, then each meeting of breakpoints on ten of them.

    The height is log-uniform in [1e-2, 1e2] and the cutoff a uniform share
    of the longest chord.  On the first ten heights the cutoff also sits at
    and one ulp about each of ``_breakpoint_meetings``.
    """
    rng = random.Random(33)
    cases = []
    for _ in range(200):
        height = 10.0 ** rng.uniform(-2.0, 2.0)
        cases.append((height, rng.random() * max(1.0, math.hypot(0.5, height))))
    for height, _ in cases[:10]:
        places = _breakpoint_meetings(height)
        cases += [(height, t) for place in places for t in _within_ulps(place, 1)]
    return cases


def test_probability_general_matches_quadpack_across_a_seeded_sweep():
    # A stage that accepts a panel too early lands outside the bound with
    # converged=True somewhere in this sweep.  Where two breakpoints lie an
    # ulp apart QUADPACK can fail to bound its own error; the 50-digit
    # integral of the arc model stands in for it there.
    from scipy.integrate import IntegrationWarning

    failures = []
    for height, threshold in _seeded_sweep_cases():
        problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
        try:
            reference, error = _reference_probability(problem, 1e-12)
            assert error * 10.0 <= 1e-12 / math.pi
        except IntegrationWarning:
            reference = _probability_50_digits(problem)
        for tolerance in (1e-10, 1e-12):
            result = probability_general(problem, tolerance)
            miss = abs(result.probability - reference)
            if not result.converged or miss > tolerance / math.pi:
                failures.append((height, threshold, tolerance, result.converged, miss))
    assert failures == []


def test_tall_shapes_with_the_cutoff_near_the_height_converge_within_the_bound():
    # With t within 1e-8 of h the whole measure is below about 3e-11 rad,
    # and gaps narrower than 1e-12 rad carry much of it: a direction set
    # that drops them biases p low while the solve still converges.
    rng = random.Random(36)
    shapes = [(973.6894712143505, 973.689470764853)]
    for _ in range(100):
        height = 10.0 ** rng.uniform(1.0, 3.0)
        sign = rng.choice((-1.0, 1.0))
        shapes.append((height, height * (1.0 + sign * 10.0 ** -rng.uniform(8.0, 14.0))))
    failures = []
    for height, threshold in shapes:
        problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
        reference = _probability_50_digits(problem)
        for tolerance in (1e-14, 1e-12):
            result = probability_general(problem, tolerance)
            miss = abs(result.probability - reference)
            if not result.converged or miss > tolerance / math.pi:
                failures.append((height, threshold, tolerance, result.converged, miss))
    assert failures == []


def test_readme_example_converges_within_budget():
    result = probability_general(ChordProblem(IsoscelesTriangle(2.0, 1.5), 0.8), 1e-12)
    assert result.converged
    assert result.evaluations < 2000


@pytest.mark.parametrize(
    "shape", [(1.0, 1.0, 1.0), (2.0, 1.5, 0.8), (1.0, 0.3, 0.9), (1.0, 20.0, 5.0)]
)
def test_probability_is_scale_invariant_at_extreme_scales(shape):
    base, height, threshold = shape
    unit_problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    unit = probability_general(unit_problem, 1e-12).probability
    # The ends, the centre and one interior point of the base.
    xs = (-base / 2.0, 0.0, 0.3 * base, base / 2.0)
    measures = [direction_set(unit_problem, x).measure for x in xs]
    for scale in (1e-300, 1e-200, 1e-155, 1e-100, 1e100, 1e155, 1e200, 1e300):
        problem = ChordProblem(
            IsoscelesTriangle(base * scale, height * scale), threshold * scale
        )
        # Every scale is solved at base 1 at the caller's tolerance: the same steps.
        result = probability_general(problem, 1e-12)
        at_base_1 = probability_general(unit_base(problem), 1e-12)
        assert result.converged
        assert result.probability == at_base_1.probability
        assert result.evaluations == at_base_1.evaluations
        assert result.integral == at_base_1.integral * base * scale
        assert result.probability == pytest.approx(unit, abs=1e-15)
        assert result.integral / scale == pytest.approx(unit * math.pi * base, rel=1e-14)
        # Direction sets of the scaled problem itself, at the scaled abscissae.
        for x, measure in zip(xs, measures):
            assert direction_set(problem, x * scale).measure == pytest.approx(
                measure, abs=1e-14
            )


def test_tolerance_below_roundoff_finishes():
    # pi * p is about 0.05, so an absolute 1e-18 is below its roundoff.
    problem = ChordProblem(IsoscelesTriangle(1.0, 1.0), 1.0)
    result = probability_general(problem, 1e-18)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-10)
    assert result.evaluations < 10**4
    assert not result.converged


@pytest.mark.parametrize(
    "base, height, threshold, tolerance",
    [(1.0, 1e-9, 0.9, 1e-20)],
)
def test_tolerance_below_the_integrand_noise_stops_at_the_evaluation_cap(
    base, height, threshold, tolerance, monkeypatch
):
    # At base 1 the one integrated piece is [0.4, 0.5], where the measure is
    # about 2e-10 rad, the width of intervals that end at pi.  Each sample then
    # carries rounding of about ulp(pi) times that width, far above the
    # roundoff stop's scale, so only the evaluation cap ends the run.  The
    # counter fails the test where nothing does, instead of hanging the suite.
    calls, inner = 0, directions.direction_set

    def counted(problem, x):
        nonlocal calls
        calls += 1
        if calls > 10**5:
            raise AssertionError("the quadrature does not stop")
        return inner(problem, x)

    monkeypatch.setattr(directions, "direction_set", counted)
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    result = probability_general(problem, tolerance)
    assert not result.converged
    assert result.evaluations <= 2 * quadrature.MAX_EVALUATIONS + 15
    # From a 40-digit mpmath integral of the arc model of direction sets.
    assert result.probability == pytest.approx(7.0735530263064565e-12, abs=1e-15)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_probability_general_rejects_a_tolerance_that_is_not_positive(tolerance):
    problem = ChordProblem(IsoscelesTriangle(2.0, 1.5), 0.8)
    with pytest.raises(ValueError, match=f"tolerance must be positive, got {tolerance}"):
        probability_general(problem, tolerance)


def test_tolerance_share_that_underflows_stays_positive():
    # 5e-324 shared out over pieces underflows to 0, which integrate_profile would reject.
    problem = ChordProblem(IsoscelesTriangle(1.0, 1.0), 1.0)
    result = probability_general(problem, 5e-324)
    assert result.probability == pytest.approx(P_EXACT, abs=1e-10)
    assert not result.converged


@pytest.mark.parametrize(
    "base, height, threshold",
    [(1.0, 1e-310, 0.3), (1.0, 1e-320, 1e-4), (1.0, 1e308, 1e300), (1.0, 1e-320, 0.5)],
)
def test_probability_general_when_the_tangency_overflows(base, height, threshold):
    # base/2 - t/(height/side) overflows to -+inf, so the cusp map turns linear.
    # The true probability is below 1e-299.
    tolerance = 1e-10
    result = probability_general(
        ChordProblem(IsoscelesTriangle(base, height), threshold), tolerance
    )
    assert result.converged
    assert 0.0 <= result.probability <= tolerance / (math.pi * base)


@pytest.mark.parametrize(
    "base, height, threshold",
    [
        (1.0, 8.67e305, 8.67e5),
        (1.0, 8.45e-301, 1e-300),
        (1.0, 1e-200, 3e-201),
        (1.0, 1e-310, 3e-311),
        (1.0, 1e-320, 2e-320),
        (1.0, 1e-320, 1.5e-320),
        (1.0, 1e-315, 1e-315),
    ],
)
def test_probability_general_at_extreme_ratios(base, height, threshold):
    # t times the side length overflows at the first shape, and the square of
    # the distance from a base point to a side line underflows at the others.
    # direction_set works in units of t and loses no side crossing; at the
    # fourth shape the distance along the base over t overflows, so it
    # divides the offset by reach = t/(height/side) and never by t alone.
    # At the last three the height and the cutoff are subnormal, and a
    # product with either of them would keep only a few bits.
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    tolerance = 1e-10
    result = probability_general(problem, tolerance)
    assert result.converged
    error = abs(result.probability - _probability_50_digits(problem))
    assert error <= tolerance / (math.pi * base), error


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
