"""Monte Carlo estimation with deterministic block-wise substreams.

Samples are laid out in fixed blocks of ``BLOCK_SIZE``; each block derives
its own Philox generator from the root seed and the block index, and inside a
block the abscissas are drawn before the angles.  Sample i is therefore a
pure function of (seed, i), and block success counts are integers, so
estimates are bit-identical for any worker count.

A run starts one task per worker, at most one per block.  Task w of k counts
the stripe of blocks w, w + k, ... and draws each of them into two arrays
and a kernel scratch that it allocates once.  Philox is counter-based, so
drawing into a kept array with ``out=`` gives the same values as a fresh
draw.  The angle uniforms U become half-angles U*(pi/2) in one pass, which
equals (U*pi)*0.5 exactly because halving is exact.  The kernel runs on
consecutive ``SLICE_SIZE``-sample slices of a block's draws, so its scratch
takes 128 KB an array and one call works in about 0.5 MB, which fits a
2 MiB L2 cache.

Sampling runs on the problem scaled to base 1 (``geometry.unit_base``), so
any scale gives the same counts without overflow or underflow.  By convexity a
chord beats the cutoff exactly when the point at that distance along its ray
lies strictly inside the triangle; that test costs one tan per sample.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np
# NumPy 2 loads numpy.random on first use; naming it here keeps that load out
# of the first estimate.
from numpy.random import Generator, Philox, SeedSequence

from .estimates import Method, ProbabilityEstimate  # noqa: F401  (Method re-exported)
from .geometry import ChordProblem, IsoscelesTriangle, require_on_base, unit_abscissa, unit_base

BLOCK_SIZE = 1 << 16
# Samples per kernel call; a block is decided in BLOCK_SIZE / SLICE_SIZE calls.
SLICE_SIZE = 1 << 14

# The kernel's two float arrays and one bool array.
_Scratch = tuple[np.ndarray, np.ndarray, np.ndarray]


def _block_generator(seed: int, block: int) -> Generator:
    return Generator(Philox(SeedSequence(entropy=seed, spawn_key=(block,))))


def _kernel_scratch(size: int) -> _Scratch:
    return np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _successes(
    triangle: IsoscelesTriangle,
    threshold: float,
    xs: np.ndarray,
    half_thetas: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """Which rays from base points xs at angles 2*half_thetas have a chord longer than threshold.

    By convexity that is when q = (x + t*cos, t*sin) lies strictly inside:
    h*|x + t*cos| + half*t*sin < h*half.  With u = tan(theta/2), s = 1 + u^2,
    s*cos = 2 - s and s*sin = 2u, times s/h: |(x - t)*s + 2t| + (2*half*t/h)*u < half*s.

    half_thetas is overwritten.  The result is a view of ``scratch`` (two
    float arrays and one bool array at least as long as xs, as
    ``_kernel_scratch`` makes).
    """
    size = len(half_thetas)
    s, left, inside = (array[:size] for array in scratch)
    half = triangle.base / 2.0
    # At extreme shapes (x - t)*s or the u term can overflow to +-inf.  The
    # true left side then exceeds the right side, half*s <= 1.4e32, so the
    # test still fails as it should, and left is never inf - inf.
    with np.errstate(over="ignore"):
        u = np.tan(half_thetas, out=half_thetas)
        np.multiply(u, u, out=s)
        s += 1.0
        np.subtract(xs, threshold, out=left)
        left *= s
        left += 2.0 * threshold
        np.abs(left, out=left)
        u *= 2.0 * half * threshold / triangle.height
        left += u
        s *= half
        return np.less(left, s, out=inside)


def _count_stripe(
    problem: ChordProblem, samples: int, seed: int, fixed_x: float | None, stripe: range
) -> int:
    """Successes of a problem at base 1 in the blocks of ``stripe``."""
    x_buffer, u_buffer = np.empty(BLOCK_SIZE), np.empty(BLOCK_SIZE)
    scratch = _kernel_scratch(SLICE_SIZE)
    successes = 0
    for block in stripe:
        size = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
        rng = _block_generator(seed, block)
        if fixed_x is None:
            xs = rng.random(out=x_buffer[:size])
            xs -= 0.5
        else:
            xs = np.broadcast_to(fixed_x, size)
        u = rng.random(out=u_buffer[:size])
        while not u.all():  # an angle of exactly 0 is redrawn
            degenerate = u == 0.0
            u[degenerate] = rng.random(int(degenerate.sum()))
        u *= math.pi / 2
        for start in range(0, size, SLICE_SIZE):
            stop = start + SLICE_SIZE
            mask = _successes(
                problem.triangle, problem.threshold, xs[start:stop], u[start:stop], scratch
            )
            successes += int(np.count_nonzero(mask))
    return successes


def _integer_arguments(samples: int, seed: int, workers: int) -> tuple[int, int, int]:
    """samples, seed and workers as Python ints, after checking each."""
    values = []
    for name, value in (("samples", samples), ("seed", seed), ("workers", workers)):
        try:
            values.append(operator.index(value))
            integral = not isinstance(value, bool)
        except TypeError:
            integral = False
        if not integral:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    samples, seed, workers = values
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return samples, seed, workers


def _run_blocks(
    problem: ChordProblem, samples: int, seed: int, workers: int, fixed_x: float | None
) -> int:
    unit = unit_base(problem)
    if unit.threshold == 0.0:
        return samples
    if unit.threshold > 1.0 + unit.triangle.height:  # longer than every chord
        return 0
    if fixed_x is not None:
        fixed_x = unit_abscissa(fixed_x, problem.triangle.base)
    blocks = -(-samples // BLOCK_SIZE)
    tasks = min(workers, blocks)
    with ThreadPoolExecutor(max_workers=tasks) as pool:
        futures = [
            pool.submit(_count_stripe, unit, samples, seed, fixed_x, range(w, blocks, tasks))
            for w in range(tasks)
        ]
        return sum(future.result() for future in futures)


def estimate(
    problem: ChordProblem, samples: int, seed: int, workers: int = 1
) -> ProbabilityEstimate:
    """Estimate the exceedance probability by uniform sampling.

    Args:
        problem: triangle and cutoff.
        samples: number of (x, theta) draws, at least 1.
        seed: root seed; fully determines the result.
        workers: thread count, at most one per block of ``BLOCK_SIZE``
            samples; the estimate is identical for any value.

    The abscissa is uniform on the base and the angle uniform on (0, pi);
    an angle drawn exactly 0 is redrawn.  Success means chord length strictly
    greater than the cutoff.
    """
    samples, seed, workers = _integer_arguments(samples, seed, workers)
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
    samples, seed, workers = _integer_arguments(samples, seed, workers)
    successes = _run_blocks(problem, samples, seed, workers, x)
    return math.pi * successes / samples
