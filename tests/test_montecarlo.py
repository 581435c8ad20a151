"""Tests for deterministic Monte Carlo estimation."""

import math

import pytest

import numpy as np

from trichord import (
    ChordProblem,
    IsoscelesTriangle,
    Method,
    ProbabilityEstimate,
    direction_set,
    empirical_limit_angle,
    estimate,
    limit_angle,
    side_hit,
)
from trichord.montecarlo import BLOCK_SIZE, _block_generator, _successes

P_EXACT = 0.016212872164880516  # frozen from a 50-digit evaluation

UNIT = ChordProblem(IsoscelesTriangle(1.0, 1.0), 1.0)


def test_same_seed_same_result():
    first = estimate(UNIT, 200_000, seed=123)
    second = estimate(UNIT, 200_000, seed=123)
    assert first == second


def test_worker_count_does_not_change_result():
    lone = estimate(UNIT, 300_000, seed=5, workers=1)
    multi = estimate(UNIT, 300_000, seed=5, workers=4)
    assert lone.p_hat == multi.p_hat
    assert lone.successes == multi.successes


def test_different_seeds_differ():
    a = estimate(UNIT, 100_000, seed=0)
    b = estimate(UNIT, 100_000, seed=1)
    assert a.successes != b.successes


def test_estimate_lands_near_exact_value():
    samples = 1_000_000
    est = estimate(UNIT, samples, seed=0)
    sigma = math.sqrt(P_EXACT * (1.0 - P_EXACT) / samples)
    assert abs(est.p_hat - P_EXACT) < 4.0 * sigma


def test_zero_threshold_always_succeeds():
    est = estimate(ChordProblem(IsoscelesTriangle(), 0.0), 1000, seed=42)
    assert est.p_hat == 1.0
    assert est.successes == 1000
    assert est.ci95 == (1.0, 1.0)


def test_unreachable_threshold_never_succeeds():
    est = estimate(ChordProblem(IsoscelesTriangle(), 3.0), 1000, seed=42)
    assert est.p_hat == 0.0
    assert est.std_error == 0.0
    assert est.ci95 == (0.0, 0.0)


def test_threshold_beyond_every_chord_never_succeeds():
    # The kernel is skipped, so (x - t)*s cannot overflow.
    problem = ChordProblem(IsoscelesTriangle(), 1e300)
    assert estimate(problem, 100_000, seed=42).successes == 0
    assert empirical_limit_angle(problem, 0.5, 100_000, seed=42) == 0.0


@pytest.mark.filterwarnings("error")
def test_extreme_shape_counts_without_overflow_warning():
    # At base 1 this is height 1e300 with t = 1e300, below the longest chord,
    # so the kernel runs and (x - t)*s overflows to -inf for steep rays.
    problem = ChordProblem(IsoscelesTriangle(1e-300, 1.0), 1.0)
    assert estimate(problem, 200_000, seed=0).successes == 0


def test_partial_and_multi_block_runs_agree():
    samples = 2 * BLOCK_SIZE + 17  # three blocks, partial tail
    multi = estimate(UNIT, samples, seed=9, workers=2)
    single = estimate(UNIT, samples, seed=9, workers=1)
    assert multi.samples == samples
    assert multi.successes == single.successes


def test_from_counts_statistics():
    est = ProbabilityEstimate.from_counts(5, 100, seed=0)
    assert est.p_hat == 0.05
    assert est.std_error == pytest.approx(math.sqrt(0.05 * 0.95 / 100.0), abs=1e-15)
    quadruple = ProbabilityEstimate.from_counts(20, 400, seed=0)
    assert est.std_error == pytest.approx(2.0 * quadruple.std_error, abs=1e-15)
    low, high = est.ci95
    assert low == pytest.approx(0.05 - 1.96 * est.std_error, abs=1e-15)
    assert high == pytest.approx(0.05 + 1.96 * est.std_error, abs=1e-15)


def test_confidence_interval_is_clipped():
    near_zero = ProbabilityEstimate.from_counts(1, 1000, seed=0)
    assert near_zero.ci95[0] == 0.0
    near_one = ProbabilityEstimate.from_counts(999, 1000, seed=0)
    assert near_one.ci95[1] == 1.0


def test_from_counts_validation():
    with pytest.raises(ValueError):
        ProbabilityEstimate.from_counts(-1, 100, seed=0)
    with pytest.raises(ValueError):
        ProbabilityEstimate.from_counts(101, 100, seed=0)
    with pytest.raises(ValueError):
        ProbabilityEstimate.from_counts(0, 0, seed=0)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate(UNIT, 0, seed=0)
    with pytest.raises(ValueError):
        estimate(UNIT, 100, seed=0, workers=0)
    with pytest.raises(ValueError):
        estimate(UNIT, 100, seed=-1)


def test_method_tags():
    assert estimate(UNIT, 10, seed=0).method is Method.MONTE_CARLO
    assert ProbabilityEstimate.from_value(0.5, Method.EXACT).method is Method.EXACT
    wrapped = ProbabilityEstimate.from_value(0.25, Method.QUADRATURE)
    assert wrapped.samples == 0
    assert wrapped.std_error == 0.0
    assert wrapped.ci95 == (0.25, 0.25)


def test_empirical_limit_angle_center_is_zero():
    # no chord from the base midpoint beats the cutoff
    assert empirical_limit_angle(UNIT, 0.0, 50_000, seed=1) == 0.0


def test_empirical_limit_angle_at_endpoint():
    samples = 1_000_000
    value = empirical_limit_angle(UNIT, 0.5, samples, seed=0)
    fraction = limit_angle(0.5) / math.pi
    sigma = math.pi * math.sqrt(fraction * (1.0 - fraction) / samples)
    assert abs(value - limit_angle(0.5)) < 4.0 * sigma


def test_empirical_limit_angle_at_quarter_point():
    value = empirical_limit_angle(UNIT, 0.25, 1_000_000, seed=0)
    assert abs(value - limit_angle(0.25)) < 0.002


def test_empirical_limit_angle_rejects_off_base_points():
    with pytest.raises(Exception):
        empirical_limit_angle(UNIT, 0.75, 100, seed=0)


def _assert_success_brackets_side_hit(triangle, x, theta):
    """The sample succeeds just below the side_hit chord length and fails just above."""
    length = side_hit(triangle, x, theta).distance
    below = length * (1.0 - 1e-10) - 1e-12
    above = length * (1.0 + 1e-10) + 1e-12
    xs, thetas = np.array([x]), np.array([theta])
    assert _successes(triangle, below, xs, thetas)[0], (x, theta, length)
    assert not _successes(triangle, above, xs, thetas)[0], (x, theta, length)


def test_vectorized_lengths_match_side_hit():
    rng = _block_generator(seed=11, block=0)
    xs = (rng.random(500) - 0.5) * 1.0
    thetas = rng.random(500) * math.pi
    for x, theta in zip(xs, thetas):
        _assert_success_brackets_side_hit(UNIT.triangle, float(x), float(theta))


def test_vectorized_lengths_match_side_hit_generic_triangle():
    triangle = IsoscelesTriangle(2.5, 0.75)
    rng = _block_generator(seed=13, block=0)
    xs = (rng.random(300) - 0.5) * triangle.base
    thetas = rng.random(300) * math.pi
    for x, theta in zip(xs, thetas):
        _assert_success_brackets_side_hit(triangle, float(x), float(theta))


def test_success_indicator_matches_direction_set_membership():
    # At a fixed base point the per-sample success flag is exactly interval
    # membership, except within 1e-9 of an interval boundary.
    x = 0.3
    s = direction_set(UNIT, x)
    rng = _block_generator(seed=21, block=0)
    thetas = rng.random(2000) * math.pi
    successes = _successes(UNIT.triangle, 1.0, np.full(2000, x), thetas)
    checked = 0
    for theta, success in zip(thetas, successes):
        near_boundary = any(
            abs(theta - edge) < 1e-9 for pair in s.intervals for edge in pair
        )
        if near_boundary or theta == 0.0:
            continue
        assert success == s.contains(float(theta))
        checked += 1
    assert checked > 1900


def test_confidence_interval_coverage():
    inside = 0
    for seed in range(200):
        low, high = estimate(UNIT, 100_000, seed=seed).ci95
        if low <= P_EXACT <= high:
            inside += 1
    assert inside >= 180  # 95% nominal, generous slack


def _edge_rays(triangle):
    """(x, theta) pairs at base endpoints, apex directions and extreme angles."""
    half = triangle.base / 2.0
    h = triangle.height
    interior = 0.3 * half
    rays = [(x, math.atan2(h, -x)) for x in (half, -half, interior, -interior, 0.0)]
    extreme = (1e-300, 1e-12, math.pi - 1e-12, math.nextafter(math.pi, 0.0))
    rays += [(x, theta) for x in (half, -half, interior, 0.0) for theta in extreme]
    return rays


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("triangle", [UNIT.triangle, IsoscelesTriangle(2.5, 0.75)])
def test_chord_lengths_match_side_hit_at_edge_rays(triangle):
    half = triangle.base / 2.0
    for x, theta in _edge_rays(triangle):
        # From a base endpoint toward the apex the ray runs along a side, so
        # the point at any cutoff lies on the boundary and rounding decides
        # it; a sample needs both the exact endpoint and this exact angle.
        if abs(x) == half and theta == math.atan2(triangle.height, -x):
            continue
        _assert_success_brackets_side_hit(triangle, x, theta)


def test_zero_threshold_agrees_with_direction_set_at_base_vertices():
    problem = ChordProblem(IsoscelesTriangle(), 0.0)
    for x in (-0.5, 0.2, 0.5):
        value = empirical_limit_angle(problem, x, 1000, seed=0)
        assert value == math.pi == direction_set(problem, x).measure


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (3.0, 1.0, 1.0), (2.0, 1.5, 0.8)])
def test_successes_are_scale_invariant(shape):
    base, height, threshold = shape
    counts = set()
    angles = set()
    for scale in (1.0, 2.0**10, 1e140, 1e300, 1e-300):
        problem = ChordProblem(
            IsoscelesTriangle(base * scale, height * scale), threshold * scale
        )
        counts.add(estimate(problem, 100_000, seed=2).successes)
        x = problem.triangle.base / 2.0
        angles.add(empirical_limit_angle(problem, x, 100_000, seed=2))
    assert len(counts) == 1
    assert len(angles) == 1


# Success counts of the first kernel at 10^6 samples, seeds 0-9.  A kernel
# change that moves any of them changes the estimates users already have.
PINNED_COUNTS = {
    (1.0, 1.0, 1.0): [
        16229, 16097, 16328, 16100, 16083, 16167, 16249, 16384, 16059, 16396,
    ],
    (2.0, 1.5, 0.8): [
        523665, 524173, 524451, 523725, 525076,
        524563, 523787, 523766, 524194, 524077,
    ],
    (3.0, 1.0, 1.0): [
        298890, 299258, 299676, 298586, 300020,
        298698, 298735, 298624, 298711, 298868,
    ],
}


@pytest.mark.parametrize("shape", sorted(PINNED_COUNTS))
def test_success_counts_are_pinned(shape):
    base, height, threshold = shape
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    for workers in (1, 2):
        counts = [
            estimate(problem, 1_000_000, seed=seed, workers=workers).successes
            for seed in range(10)
        ]
        assert counts == PINNED_COUNTS[shape], workers
