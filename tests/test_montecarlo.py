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
from trichord import montecarlo
from trichord.directions import unit_base
from trichord.montecarlo import (
    BLOCK_SIZE,
    SLICE_SIZE,
    _block_generator,
    _kernel_scratch,
    _successes,
)

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


@pytest.mark.parametrize(
    "engine",
    [estimate, lambda problem, **kwargs: empirical_limit_angle(problem, 0.25, **kwargs)],
    ids=["estimate", "empirical_limit_angle"],
)
@pytest.mark.parametrize(
    "name, value",
    [
        ("samples", 1e5),
        ("samples", True),
        ("seed", 0.0),
        ("seed", False),
        ("workers", 1.0),
        ("workers", True),
    ],
)
def test_non_integral_arguments_are_rejected_by_name(engine, name, value):
    arguments = {"samples": 1000, "seed": 0, "workers": 1, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        engine(UNIT, **arguments)


def test_numpy_integer_arguments_are_accepted():
    plain = estimate(UNIT, BLOCK_SIZE + 3, seed=3, workers=2)
    numpy = estimate(UNIT, np.int64(BLOCK_SIZE + 3), seed=np.uint32(3), workers=np.int8(2))
    assert numpy.successes == plain.successes
    # Unsigned and narrow counts: the block count and from_counts take Python ints.
    for samples in (np.uint8(200), np.uint64(BLOCK_SIZE + 4464)):
        numpy = estimate(UNIT, samples, seed=np.uint64(3), workers=np.int8(3))
        assert numpy == estimate(UNIT, int(samples), seed=3, workers=3)
        assert type(numpy.samples) is int and type(numpy.seed) is int


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


def test_empirical_limit_angle_at_a_subnormal_base_end_samples_the_base_end():
    # base/2 rounds to 1e-323 here, so x / base is 2/3 unless clamped onto
    # the base; the problem at base 1 is exactly the unit configuration.
    base = 1.5e-323
    problem = ChordProblem(IsoscelesTriangle(base, base), base)
    value = empirical_limit_angle(problem, base / 2.0, 100_000, seed=3)
    assert value == empirical_limit_angle(ChordProblem(), 0.5, 100_000, seed=3)


def test_empirical_limit_angle_rejects_off_base_points():
    with pytest.raises(Exception):
        empirical_limit_angle(UNIT, 0.75, 100, seed=0)


def _assert_success_brackets_side_hit(triangle, x, theta):
    """The sample succeeds just below the side_hit chord length and fails just above."""
    length = side_hit(triangle, x, theta).distance
    below = length * (1.0 - 1e-10) - 1e-12
    above = length * (1.0 + 1e-10) + 1e-12
    xs, thetas, scratch = np.array([x]), np.array([theta]), _kernel_scratch(1)
    assert _successes(triangle, below, xs, thetas * 0.5, scratch)[0], (x, theta, length)
    assert not _successes(triangle, above, xs, thetas * 0.5, scratch)[0], (x, theta, length)


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
    successes = _successes(
        UNIT.triangle, 1.0, np.full(2000, x), thetas * 0.5, _kernel_scratch(2000)
    )
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
    for workers in (1, 2, 3):
        counts = [
            estimate(problem, 1_000_000, seed=seed, workers=workers).successes
            for seed in range(10)
        ]
        assert counts == PINNED_COUNTS[shape], workers


# Success counts of the whole-block kernel, seeds 0-2, at sample counts on
# both sides of the slice and block boundaries.  A kernel slice that is
# dropped or counted twice moves them.
BOUNDARY_COUNTS = {
    (1.0, 1.0, 1.0): {
        1: [0, 0, 0],
        16_383: [285, 268, 239],
        16_384: [279, 257, 261],
        16_385: [257, 257, 245],
        65_537: [1062, 1027, 1016],
        2 * 65_536 + 16_385: [2381, 2350, 2358],
    },
    (2.0, 1.5, 0.8): {
        1: [0, 0, 0],
        16_383: [8631, 8648, 8685],
        16_384: [8650, 8568, 8536],
        16_385: [8527, 8588, 8519],
        65_537: [34202, 34394, 34596],
        2 * 65_536 + 16_385: [77041, 77580, 77554],
    },
}

# empirical_limit_angle success counts at 16 385 samples, seeds 0-2, at
# x = -base/2, 0.3*base/2 and base/2.
BOUNDARY_ANGLE_COUNTS = {
    (1.0, 1.0, 1.0): [[990, 911, 903], [60, 71, 53], [944, 984, 905]],
    (2.0, 1.5, 0.8): [[5124, 5093, 5129], [9323, 9444, 9379], [5058, 5156, 5127]],
}


@pytest.mark.parametrize("shape", sorted(BOUNDARY_COUNTS))
def test_success_counts_at_slice_and_block_boundaries_are_pinned(shape):
    assert list(BOUNDARY_COUNTS[shape]) == [
        1,
        SLICE_SIZE - 1,
        SLICE_SIZE,
        SLICE_SIZE + 1,
        BLOCK_SIZE + 1,
        2 * BLOCK_SIZE + SLICE_SIZE + 1,
    ]
    base, height, threshold = shape
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    for samples, pinned in BOUNDARY_COUNTS[shape].items():
        for workers in (1, 2, 3):
            counts = [
                estimate(problem, samples, seed=seed, workers=workers).successes
                for seed in range(3)
            ]
            assert counts == pinned, (samples, workers)


@pytest.mark.parametrize("shape", sorted(BOUNDARY_ANGLE_COUNTS))
def test_empirical_limit_angle_at_slice_boundary_is_pinned(shape):
    base, height, threshold = shape
    problem = ChordProblem(IsoscelesTriangle(base, height), threshold)
    half = base / 2.0
    samples = 16_385  # one full kernel slice and a one-sample tail
    for x, pinned in zip((-half, 0.3 * half, half), BOUNDARY_ANGLE_COUNTS[shape]):
        for workers in (1, 2):
            angles = [
                empirical_limit_angle(problem, x, samples, seed=seed, workers=workers)
                for seed in range(3)
            ]
            assert angles == [math.pi * count / samples for count in pinned], (x, workers)


def _patch_block_zero_angles(monkeypatch, positions, angle_draw, zeros):
    """Patch block 0's angle draw, the ``angle_draw``-th call to ``random``.

    With ``zeros`` it holds exact zeros at ``positions``; otherwise the
    stream's next draws are put there, in order, as a redraw would.  Returns
    the sizes of block 0's draws and the angle arrays the kernel receives.
    """
    block_generator = montecarlo._block_generator
    kernel = montecarlo._successes
    draws, angles = [], []

    class Generator:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size=None, out=None):
            values = self.rng.random(size, out=out)
            draws.append(len(values))
            if len(draws) == angle_draw:
                values[positions] = 0.0 if zeros else self.rng.random(len(positions))
            return values

    def patched_generator(seed, block):
        rng = block_generator(seed, block)
        return Generator(rng) if block == 0 else rng

    def recording_kernel(triangle, threshold, xs, thetas, *scratch):
        angles.append(thetas.copy())
        return kernel(triangle, threshold, xs, thetas, *scratch)

    monkeypatch.setattr(montecarlo, "_block_generator", patched_generator)
    monkeypatch.setattr(montecarlo, "_successes", recording_kernel)
    return draws, angles


@pytest.mark.parametrize("fixed_x", [None, 0.3])
def test_zero_angles_are_redrawn_from_the_stream_in_order(monkeypatch, fixed_x):
    problem = ChordProblem(IsoscelesTriangle(2.0, 1.5), 0.8)
    samples = BLOCK_SIZE + 5
    positions = [0, 7, SLICE_SIZE - 1, SLICE_SIZE + 1, BLOCK_SIZE - 1]
    angle_draw = 2 if fixed_x is None else 1  # the abscissas are drawn first

    def run(zeros):
        with monkeypatch.context() as patch:
            draws, angles = _patch_block_zero_angles(patch, positions, angle_draw, zeros)
            if fixed_x is None:
                successes = estimate(problem, samples, seed=4).successes
            else:
                successes = empirical_limit_angle(problem, fixed_x, samples, seed=4)
        return successes, draws, np.concatenate(angles)

    zeroed, zeroed_draws, zeroed_angles = run(zeros=True)
    replaced, replaced_draws, replaced_angles = run(zeros=False)
    assert replaced_draws == [BLOCK_SIZE] * angle_draw
    assert zeroed_draws == replaced_draws + [len(positions)]
    assert replaced_angles.all()
    assert np.array_equal(zeroed_angles, replaced_angles)
    assert zeroed == replaced


def _count_in_fresh_arrays(problem, samples, seed, fixed_x=None):
    """Successes drawn block by block into new arrays and decided in one kernel call."""
    unit = unit_base(problem)
    successes = 0
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        size = min(BLOCK_SIZE, samples - start)
        rng = _block_generator(seed, block)
        if fixed_x is None:
            xs = rng.random(size) - 0.5
        else:
            xs = np.full(size, fixed_x / problem.triangle.base)
        thetas = rng.random(size) * math.pi
        assert thetas.all()
        mask = _successes(unit.triangle, unit.threshold, xs, thetas * 0.5, _kernel_scratch(size))
        successes += int(np.count_nonzero(mask))
    return successes


def test_kept_buffers_give_the_counts_of_fresh_arrays():
    # Three calls in a row: a partial tail block, the fixed-x path that
    # leaves the abscissa buffer unused, then another shape.
    samples = 2 * BLOCK_SIZE + 17
    general = ChordProblem(IsoscelesTriangle(2.0, 1.5), 0.8)
    x = 0.3 * general.triangle.base / 2.0
    first = estimate(general, samples, seed=8, workers=2).successes
    angle = empirical_limit_angle(general, x, samples, seed=8, workers=2)
    last = estimate(UNIT, samples, seed=8, workers=2).successes
    assert first == _count_in_fresh_arrays(general, samples, seed=8)
    assert angle == math.pi * _count_in_fresh_arrays(general, samples, seed=8, fixed_x=x) / samples
    assert last == _count_in_fresh_arrays(UNIT, samples, seed=8)
