"""Write proof_sweep.csv: base-1 shapes with their 50-digit exceedance probability.

Run from the repository root as

    PYTHONPATH=src python tests/make_proof_sweep.py

It takes a few minutes: each reference is the arc model integrated by mpmath
at 50 digits (``_probability_50_digits``), about 40 ms a shape.  Two seeded
sets are drawn, each with the height log-uniform in [1e-3, 1e3]:

- ``RANDOM_SHAPES`` with the cutoff uniform up to the longest chord
  (``random.Random(37)``);
- ``MEETING_SHAPES`` with the cutoff within 1e-15 to 1e-2, relative, of a
  cutoff where two breakpoints meet or one meets 0 or 1/2 (``_breakpoint_meetings``,
  ``random.Random(38)``), where pieces of the base shrink to slivers.
"""

import csv
import math
import random
from pathlib import Path

from test_directions import _breakpoint_meetings, _probability_50_digits

from trichord import ChordProblem, IsoscelesTriangle

RANDOM_SHAPES = 2000
MEETING_SHAPES = 1000
OUTPUT = Path(__file__).with_name("proof_sweep.csv")


def shapes():
    """(height, threshold) pairs of both sets, in order."""
    rng = random.Random(37)
    for _ in range(RANDOM_SHAPES):
        height = 10.0 ** rng.uniform(-3.0, 3.0)
        yield height, rng.random() * max(1.0, math.hypot(0.5, height))
    rng = random.Random(38)
    for _ in range(MEETING_SHAPES):
        height = 10.0 ** rng.uniform(-3.0, 3.0)
        place = rng.choice(_breakpoint_meetings(height))
        yield height, place * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(2.0, 15.0))


def main():
    with OUTPUT.open("w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["height", "threshold", "probability"])
        for height, threshold in shapes():
            problem = ChordProblem(IsoscelesTriangle(1.0, height), threshold)
            writer.writerow([repr(height), repr(threshold), repr(_probability_50_digits(problem))])


if __name__ == "__main__":
    main()
