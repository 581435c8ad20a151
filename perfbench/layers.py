"""Per-layer metrics from the spans a traced run wrote, and from import timing.

Self time of a span is its duration minus the time its direct children
cover; spans of one process run on one thread, so children never overlap.
Every metric is taken on its home workload, the one where its layer does the
work (see README.md); counts are per operation or per call over whole passes,
so they repeat exactly for a seed.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracer import HOOKS
from workloads import MC_BLOCK

IMPORT_REPEATS = 5


class TraceError(RuntimeError):
    """The trace cannot give a layer's figures."""


class SpanTotals:
    """Span counts, durations and self times summed per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.solves: list[dict] = []  # integrate_profile counts plus self time
        self.estimates: list[dict] = []  # estimate counts plus duration
        self.solve_set_seconds = 0.0  # direction_set time inside solves
        self.solve_seconds_with_sets = 0.0  # duration of those solves

    def add(self, stem: str) -> None:
        stem_path = Path(stem)
        header = json.loads(stem_path.with_suffix(".json").read_text())
        n = header["spans"]
        raw = stem_path.with_suffix(".bin")
        start = np.fromfile(raw, dtype="<f8", count=n)
        end = np.fromfile(raw, dtype="<f8", count=n, offset=8 * n)
        parent = np.fromfile(raw, dtype="<i8", count=n, offset=16 * n)
        name = np.fromfile(raw, dtype="<i8", count=n, offset=24 * n)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=n)
        own = duration - covered
        names = header["names"]
        for name_id, span in enumerate(names):
            mask = name == name_id
            self.calls[span] += int(mask.sum())
            self.seconds[span] += float(duration[mask].sum())
            self.self_seconds[span] += float(own[mask].sum())
        for index, counts in header["counts"].items():
            i = int(index)
            if names[name[i]] == "quadrature.integrate_profile":
                self.solves.append({**counts, "self_s": float(own[i])})
            else:
                self.estimates.append({**counts, "seconds": float(duration[i])})
        if "directions.direction_set" in names and "quadrature.integrate_profile" in names:
            in_solve = (name == names.index("directions.direction_set")) & nested
            in_solve[in_solve] = name[parent[in_solve]] == names.index(
                "quadrature.integrate_profile"
            )
            self.solve_set_seconds += float(duration[in_solve].sum())
            solves = np.unique(parent[in_solve])
            self.solve_seconds_with_sets += float(duration[solves].sum())

    def mean(self, span: str, scale: float, own: bool = False) -> float:
        total = self.self_seconds[span] if own else self.seconds[span]
        return scale * total / self.calls[span]


def load(stems: list[str]) -> SpanTotals:
    totals = SpanTotals()
    for stem in stems:
        totals.add(stem)
    return totals


def check_hooks_called(sources: list[SpanTotals]) -> None:
    """Raise naming any hooked span that no source recorded, so a refactor that
    routes around a hook cannot leave its layer silently at zero."""
    for span in sorted({hook[0] for hook in HOOKS}):
        if not any(source.calls[span] for source in sources):
            raise TraceError(f"trace hook {span} was installed but never called")


def cli_metrics(t: SpanTotals) -> dict:
    return {
        "cli.main_self_ms": t.mean("cli.main", 1e3, own=True),
        "reports.render_ms": t.mean("reports.render", 1e3),
        "reports.density_profile_ms": t.mean("reports.density_profile", 1e3),
        "exact.closed_form_us": t.mean("exact.closed_form", 1e6),
        "geometry.limit_angle_us": t.mean("geometry.limit_angle", 1e6),
    }


def sweep_metrics(t: SpanTotals, ops: int) -> dict:
    solves = len(t.solves)
    return {
        "quadrature.evaluations": sum(s["evaluations"] for s in t.solves) / solves,
        "quadrature.self_ms": 1e3 * sum(s["self_s"] for s in t.solves) / solves,
        "quadrature.converged_fraction": sum(s["converged"] for s in t.solves) / solves,
        "directions.direction_set_calls": t.calls["directions.direction_set"] / ops,
        "directions.direction_set_us": t.mean("directions.direction_set", 1e6),
        "directions.share_of_solve": t.solve_set_seconds / t.solve_seconds_with_sets,
        "geometry.side_hit_calls": t.calls["geometry.side_hit"] / ops,
        "geometry.side_hit_us": t.mean("geometry.side_hit", 1e6),
    }


def mc_metrics(t: SpanTotals, extras: dict, nproc: int) -> dict:
    one = [e for e in t.estimates if e["workers"] == 1]
    many = [e for e in t.estimates if e["workers"] == nproc][: len(one)]  # the same seeds
    ms_per_block = 1e3 * sum(e["seconds"] for e in one) / sum(e["samples"] / MC_BLOCK for e in one)
    floor = extras["rng_floor_ms_per_block"]
    return {
        "montecarlo.ms_per_block": ms_per_block,
        "montecarlo.rng_floor_ms_per_block": floor,
        "montecarlo.nonrng_ms_per_block": ms_per_block - floor,
        "montecarlo.parallel_efficiency": sum(e["seconds"] for e in one)
        / (nproc * sum(e["seconds"] for e in many)),
        "montecarlo.peak_alloc_mb": extras["peak_alloc_mb"],
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_metrics(root: Path, env: dict, timeout: float) -> dict:
    """Median `python -X importtime -c "import trichord"` figures.

    The modules trichord loads are the lines printed after the last
    top-level import that precedes the top-level trichord line.
    """
    command = [sys.executable, "-X", "importtime", "-c", "import trichord"]
    trichord_ms, numpy_ms, loaded = [], [], set()
    for repeat in range(IMPORT_REPEATS + 1):
        proc = subprocess.run(
            command, cwd=root, env=env, capture_output=True, text=True, check=True, timeout=timeout
        )
        if repeat == 0:
            continue  # warms .pyc
        rows = [m.groups() for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        top = [i for i, (_, _, pad, _) in enumerate(rows) if not pad]
        last = next(i for i in top if rows[i][3] == "trichord")
        first = max((i for i in top if i < last), default=-1) + 1
        tree = rows[first : last + 1]
        trichord_ms.append(int(rows[last][1]) / 1e3)
        numpy_ms.append(sum(int(c) for _, c, _, mod in tree if mod == "numpy") / 1e3)
        loaded.add(len(tree))
    if len(loaded) != 1:
        raise TraceError(f"import trichord loaded a varying number of modules: {loaded}")
    return {
        "import.trichord_ms": statistics.median(trichord_ms),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.modules_loaded": loaded.pop(),
    }
