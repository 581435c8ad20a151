"""Probability figures with their pedigree, shared by every engine.

``ProbabilityEstimate`` carries a closed-form, quadrature or Monte Carlo
figure in one shape; this module needs no NumPy, so commands that never
sample can report without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Method(Enum):
    """How a probability figure was produced."""

    EXACT = "exact"
    QUADRATURE = "quadrature"
    MONTE_CARLO = "montecarlo"


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability figure with its sampling pedigree.

    Monte Carlo entries carry the success count, the binomial standard error,
    and a normal 95% confidence interval clipped to [0, 1].  Deterministic
    entries (closed form, quadrature) reuse the shape with zero counts and a
    collapsed interval.
    """

    p_hat: float
    samples: int
    successes: int
    std_error: float
    ci95: tuple[float, float]
    seed: int
    method: Method

    @classmethod
    def from_counts(
        cls, successes: int, samples: int, seed: int
    ) -> "ProbabilityEstimate":
        """Build a Monte Carlo estimate from a success count."""
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        if not 0 <= successes <= samples:
            raise ValueError(f"successes {successes} outside [0, {samples}]")
        p = successes / samples
        std_error = math.sqrt(p * (1.0 - p) / samples)
        low = max(0.0, p - 1.96 * std_error)
        high = min(1.0, p + 1.96 * std_error)
        return cls(
            p_hat=p,
            samples=samples,
            successes=successes,
            std_error=std_error,
            ci95=(low, high),
            seed=seed,
            method=Method.MONTE_CARLO,
        )

    @classmethod
    def from_value(cls, probability: float, method: Method) -> "ProbabilityEstimate":
        """Wrap a deterministic probability in the estimate shape."""
        return cls(
            p_hat=probability,
            samples=0,
            successes=0,
            std_error=0.0,
            ci95=(probability, probability),
            seed=0,
            method=method,
        )
