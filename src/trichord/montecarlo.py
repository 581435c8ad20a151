"""Monte Carlo estimation with deterministic block-wise substreams.

Samples are laid out in fixed blocks of ``BLOCK_SIZE``; each block derives
its own Philox generator from the root seed and the block index, and inside a
block the abscissas are drawn before the angles.  Sample i is therefore a
pure function of (seed, i), and block success counts are integers reduced in
block order, so estimates are bit-identical for any worker count.

Sampling runs on the problem scaled to base 1 (``directions.unit_base``), so
any scale gives the same counts without overflow or underflow.  Each sample
costs one tan: the chord length is a ratio of two terms built from
tan(theta/2), and success compares the numerator against the cutoff times
the denominator, with no division.
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


def _chord_terms(
    triangle: IsoscelesTriangle, xs: np.ndarray | float, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chord lengths from base points xs at angles thetas, as numerator / denominator.

    With u = tan(theta/2), sin = 2u/(1+u^2) and cos = 1 - u*sin: one tan and
    one division by 1+u^2 >= 1 replace cos, sin and the apex arctan2.  The ray
    strikes side AB (sigma = +1) when h*cos + x*sin >= 0, otherwise side CB
    (sigma = -1), and the line intersection gives the length as
    h*(half - sigma*x) / (sigma*h*cos + half*sin).  The denominator is positive
    whenever the numerator is, so a success test needs no division.

    The numerator is zero only at a base endpoint x = +-half for rays along
    or outside the side through it.  There the length is 0, except along the
    exact float direction of the apex, where it is the side length; those
    entries get that numerator over a denominator of 1.
    """
    half = triangle.base / 2.0
    h = triangle.height
    # Fresh arrays cost page faults, so three buffers are reused in place:
    # u becomes h*cos and then the denominator, sigma becomes the numerator.
    u = np.multiply(thetas, 0.5)
    np.tan(u, out=u)
    sin = np.multiply(u, u)
    sin += 1.0
    np.divide(u, sin, out=sin)
    sin *= 2.0
    h_cos = u
    h_cos *= sin
    np.subtract(1.0, h_cos, out=h_cos)
    h_cos *= h
    sigma = np.multiply(xs, sin)
    sigma += h_cos
    np.copysign(1.0, sigma, out=sigma)
    denominator = h_cos
    denominator *= sigma
    sin *= half
    denominator += sin
    numerator = sigma
    numerator *= xs
    np.subtract(half, numerator, out=numerator)
    numerator *= h
    endpoint = numerator == 0.0
    if endpoint.any():
        x_end = np.broadcast_to(xs, thetas.shape)[endpoint]
        toward_apex = thetas[endpoint] == np.arctan2(h, -x_end)
        numerator[endpoint] = np.where(toward_apex, math.hypot(half, h), 0.0)
        denominator[endpoint] = 1.0
    return numerator, denominator


def _chord_lengths(
    triangle: IsoscelesTriangle, xs: np.ndarray | float, thetas: np.ndarray
) -> np.ndarray:
    """Chord lengths from base points xs at angles thetas, vectorized."""
    numerator, denominator = _chord_terms(triangle, xs, thetas)
    numerator /= denominator
    return numerator


def _block_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, BLOCK_SIZE)
    return [BLOCK_SIZE] * full + ([rest] if rest else [])


def _count_block(
    problem: ChordProblem, seed: int, block: int, size: int, fixed_x: float | None
) -> int:
    """Successes in one block of a problem at base 1."""
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
    numerator, denominator = _chord_terms(problem.triangle, xs, thetas)
    denominator *= problem.threshold
    return int(np.count_nonzero(numerator > denominator))


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
