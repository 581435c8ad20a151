"""Seeded inputs of the three workloads.

Only this module draws random numbers for inputs; the program under test
receives the generated values and nothing else.
"""

from __future__ import annotations

import math
import random

from reference import longest_chord

# Quadrature tolerance of every general_sweep operation.
SWEEP_TOLERANCE = 1e-10

# Configurations every sweep includes: the unit configuration, the README's
# example, and two that stall adaptive Simpson on a square-root cusp.
SWEEP_FIXED = ((1.0, 1.0, 1.0), (2.0, 1.5, 0.8), (1.0, 1.0, 0.5), (3.0, 1.0, 1.0))

# Cells per axis of the seeded grid of configurations added to SWEEP_FIXED.
SWEEP_GRID = 16

MC_SAMPLES = 10**6

# Samples per Monte Carlo block, the unit of the per-block figures.
MC_BLOCK = 65_536

# Root seeds per mc_unit pass.
MC_SEEDS = 10

CLI_SAMPLES = 100_000

# Non-unit configurations of cli_mix: density reads the direction set at
# (2, 1.5, 0.8); general converges at the CLI default tolerance 1e-12 on (1, 2, 1).
CLI_DENSITY_CONFIG = (2.0, 1.5, 0.8)
CLI_GENERAL_CONFIG = (1.0, 2.0, 1.0)
CLI_TOLERANCE = 1e-12


def sweep_configs(seed: int) -> list[tuple[float, float, float]]:
    """(base, height, threshold) triples: SWEEP_FIXED plus a jittered grid.

    base/height is log-uniform in [1e-2, 1e2] with base 1, and the threshold
    is a share in [0.01, 0.99] of the longest chord.  The seed places one
    configuration at random in the central half of each cell of a SWEEP_GRID
    x SWEEP_GRID grid over those two ranges.  About a quarter of the solves
    are cusp-bound, and how many varies with the seed; whole-cell jitter moved
    the median latency by 10-15 % between seeds, the central half by 3 %.
    """
    rng = random.Random(seed)

    def jitter() -> float:
        return 0.25 + 0.5 * rng.random()

    n = SWEEP_GRID
    configs = list(SWEEP_FIXED)
    for i in range(n):
        for j in range(n):
            log_ratio = -2.0 + 4.0 * (i + jitter()) / n
            share = 0.01 + 0.98 * (j + jitter()) / n
            height = 10.0 ** -log_ratio
            configs.append((1.0, height, share * longest_chord(1.0, height)))
    return configs


def mc_seeds(seed: int, count: int) -> list[int]:
    """Monte Carlo root seeds s, s+1, ... of one run."""
    return [seed * 100_000 + i for i in range(count)]


def cli_commands(seed: int) -> list[list[str]]:
    """The fixed cli_mix cycle; ``seed`` sets the Monte Carlo seed."""
    mc = ["--samples", str(CLI_SAMPLES), "--seed", str(seed)]

    def flags(config: tuple[float, float, float]) -> list[str]:
        base, height, threshold = config
        return ["--base", repr(base), "--height", repr(height), "--threshold", repr(threshold)]

    return [
        ["exact"],
        ["integrate", "--tol", repr(CLI_TOLERANCE)],
        ["density"],
        ["density", *flags(CLI_DENSITY_CONFIG)],
        ["simulate", *mc],
        ["verify", *mc],
        ["general", "--method", "quadrature", *flags(CLI_GENERAL_CONFIG)],
    ]


def sigma(p: float, samples: int) -> float:
    """Binomial standard deviation of a success fraction."""
    return math.sqrt(p * (1.0 - p) / samples)
