"""Monte Carlo estimation with deterministic block-wise substreams.

Samples are laid out in fixed blocks of ``BLOCK_SIZE``; each block derives
its own Philox generator from the root seed and the block index, and inside a
block the abscissas are drawn before the angles.  Sample i is therefore a
pure function of (seed, i), and block success counts are integers reduced in
block order, so estimates are bit-identical for any worker count.

Sampling runs on the problem scaled to base 1 (``directions.unit_base``), so
any scale gives the same counts without overflow or underflow.  By convexity a
chord beats the cutoff exactly when the point at that distance along its ray
lies strictly inside the triangle; that test costs one tan per sample.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .directions import ChordProblem, unit_base
from .estimates import Method, ProbabilityEstimate  # noqa: F401  (Method re-exported)
from .geometry import IsoscelesTriangle, require_on_base

BLOCK_SIZE = 1 << 16


def _block_generator(seed: int, block: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(sequence))


def _successes(
    triangle: IsoscelesTriangle, threshold: float, xs: np.ndarray | float, thetas: np.ndarray
) -> np.ndarray:
    """Which rays from base points xs at angles thetas have a chord longer than threshold.

    By convexity that is when q = (x + t*cos, t*sin) lies strictly inside:
    h*|x + t*cos| + half*t*sin < h*half.  With u = tan(theta/2), s = 1 + u^2,
    s*cos = 2 - s and s*sin = 2u, times s/h: |(x - t)*s + 2t| + (2*half*t/h)*u < half*s.
    """
    half = triangle.base / 2.0
    # At extreme shapes (x - t)*s or the u term can overflow to +-inf.  The
    # true left side then exceeds the right side, half*s <= 1.4e32, so the
    # test still fails as it should, and left is never inf - inf.
    with np.errstate(over="ignore"):
        u = np.multiply(thetas, 0.5)
        np.tan(u, out=u)
        s = np.multiply(u, u)
        s += 1.0
        left = np.subtract(xs, threshold)
        left *= s
        left += 2.0 * threshold
        np.abs(left, out=left)
        u *= 2.0 * half * threshold / triangle.height
        left += u
        s *= half
        return left < s


def _block_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def _count_block(
    problem: ChordProblem, seed: int, block: int, size: int, fixed_x: float | None
) -> int:
    """Successes in one block of a problem at base 1."""
    if problem.threshold == 0.0:
        return size
    if problem.threshold > 1.0 + problem.triangle.height:  # longer than every chord
        return 0
    rng = _block_generator(seed, block)
    if fixed_x is None:
        xs = rng.random(size)
        xs -= 0.5
    else:
        xs = fixed_x
    thetas = rng.random(size)
    thetas *= math.pi
    degenerate = thetas == 0.0
    while degenerate.any():
        thetas[degenerate] = rng.random(int(degenerate.sum())) * math.pi
        degenerate = thetas == 0.0
    return int(np.count_nonzero(_successes(problem.triangle, problem.threshold, xs, thetas)))


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
    unit = unit_base(problem)
    if fixed_x is not None:
        fixed_x /= problem.triangle.base

    def count(block: int) -> int:
        return _count_block(unit, seed, block, sizes[block], fixed_x)

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
