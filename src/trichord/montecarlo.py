"""Monte Carlo estimation with deterministic block-wise substreams.

Samples are laid out in fixed blocks of ``BLOCK_SIZE``; each block derives
its own Philox generator from the root seed and the block index, and inside a
block the abscissas are drawn before the angles.  Sample i is therefore a
pure function of (seed, i), and block success counts are integers reduced in
block order, so estimates are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .directions import ChordProblem
from .estimates import Method, ProbabilityEstimate  # noqa: F401  (Method re-exported)
from .geometry import IsoscelesTriangle, require_on_base

BLOCK_SIZE = 1 << 16


def _block_generator(seed: int, block: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(sequence))


def _chord_lengths(
    triangle: IsoscelesTriangle, xs: np.ndarray, thetas: np.ndarray
) -> np.ndarray:
    """Chord lengths from base points xs at angles thetas, vectorized.

    Rays steeper than the apex direction atan2(height, -x) strike the side
    toward the far base endpoint; the two line-intersection formulas are
    evaluated everywhere and selected per sample, so division warnings from
    the unselected branch are suppressed.
    """
    half = triangle.base / 2.0
    h = triangle.height
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    apex_angle = np.arctan2(h, -xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        toward_a = h * (half - xs) / (h * cos_t + half * sin_t)
        toward_c = h * (half + xs) / (half * sin_t - h * cos_t)
        lengths = np.where(thetas < apex_angle, toward_a, toward_c)
    apex_dist = np.hypot(xs, h)
    return np.where(thetas == apex_angle, apex_dist, lengths)


def _block_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def _count_block(
    problem: ChordProblem, seed: int, block: int, size: int, fixed_x: float | None
) -> int:
    rng = _block_generator(seed, block)
    if fixed_x is None:
        xs = (rng.random(size) - 0.5) * problem.triangle.base
    else:
        xs = np.full(size, fixed_x)
    thetas = rng.random(size) * math.pi
    degenerate = thetas == 0.0
    while degenerate.any():
        thetas[degenerate] = rng.random(int(degenerate.sum())) * math.pi
        degenerate = thetas == 0.0
    lengths = _chord_lengths(problem.triangle, xs, thetas)
    return int(np.count_nonzero(lengths > problem.threshold))


def _run_blocks(
    problem: ChordProblem,
    samples: int,
    seed: int,
    workers: int,
    fixed_x: float | None,
) -> int:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    sizes = _block_sizes(samples)

    def count(block: int) -> int:
        return _count_block(problem, seed, block, sizes[block], fixed_x)

    if workers == 1:
        counts = [count(block) for block in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(count, range(len(sizes))))
    return sum(counts)


def estimate(
    problem: ChordProblem, samples: int, seed: int, workers: int = 1
) -> ProbabilityEstimate:
    """Estimate the exceedance probability by uniform sampling.

    Args:
        problem: triangle and cutoff.
        samples: number of (x, theta) draws, at least 1.
        seed: root seed; fully determines the result.
        workers: thread count; the estimate is identical for any value.

    The abscissa is uniform on the base and the angle uniform on (0, pi);
    an angle drawn exactly 0 is redrawn.  Success means chord length strictly
    greater than the cutoff.
    """
    successes = _run_blocks(problem, samples, seed, workers, None)
    return ProbabilityEstimate.from_counts(successes, samples, seed)


def empirical_limit_angle(
    problem: ChordProblem, x: float, samples: int, seed: int, workers: int = 1
) -> float:
    """Estimate the angular measure of qualifying directions at a fixed x.

    Returns pi times the success fraction over ``samples`` uniform angles;
    converges to the direction-set measure (the limit angle in the unit
    configuration).
    """
    require_on_base(problem.triangle, x)
    successes = _run_blocks(problem, samples, seed, workers, x)
    return math.pi * successes / samples
