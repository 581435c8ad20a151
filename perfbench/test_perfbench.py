"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest -q perfbench/test_perfbench.py
(about a minute; the repeat test makes two traced runs).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import (  # noqa: E402
    TIGHTNESS,
    UNIT_PROBABILITY,
    breakpoints,
    direction_measure,
    general_reference,
    unit_limit_angle,
)

# Count metrics that must repeat exactly for a seed.
COUNTS = (
    "quadrature.evaluations",
    "directions.direction_set_calls",
    "geometry.side_hit_calls",
    "import.modules_loaded",
)


def test_measure_matches_unit_limit_angle():
    for i in range(101):
        x = i / 100 - 0.5
        assert direction_measure(1.0, 1.0, 1.0, x) == pytest.approx(unit_limit_angle(x), abs=1e-15)


def test_reference_matches_unit_closed_form():
    p, err = general_reference(1.0, 1.0, 1.0, workloads.SWEEP_TOLERANCE)
    assert abs(p - UNIT_PROBABILITY) <= 1e-15
    assert err <= workloads.SWEEP_TOLERANCE / math.pi / TIGHTNESS


@pytest.mark.parametrize(
    "config, tol",
    [
        ((2.0, 1.5, 0.8), workloads.SWEEP_TOLERANCE),
        ((3.0, 1.0, 1.0), workloads.SWEEP_TOLERANCE),
        ((1.0, 0.01, 0.5), workloads.SWEEP_TOLERANCE),
        ((1.0, 100.0, 60.0), workloads.SWEEP_TOLERANCE),
        (workloads.CLI_GENERAL_CONFIG, workloads.CLI_TOLERANCE),
    ],
)
def test_reference_is_tighter_than_its_check(config, tol):
    """A 30-digit tanh-sinh integral of the same pieces lands inside the
    reference's stated error, itself TIGHTNESS times below the check."""
    base, height, t = config
    mpmath.mp.dps = 30
    edges = [0.0, *breakpoints(base, height, t), base / 2]
    integral = mpmath.quad(lambda x: direction_measure(base, height, t, x, lib=mpmath), edges)
    exact = float(2 * integral / (mpmath.pi * base))
    p, err = general_reference(base, height, t, tol)
    assert abs(p - exact) <= err <= tol / (math.pi * base) / TIGHTNESS


def test_inputs_depend_only_on_the_seed():
    assert workloads.sweep_configs(5) == workloads.sweep_configs(5)
    assert workloads.sweep_configs(5) != workloads.sweep_configs(6)
    configs = workloads.sweep_configs(5)
    assert configs[: len(workloads.SWEEP_FIXED)] == list(workloads.SWEEP_FIXED)
    assert len(configs) == len(workloads.SWEEP_FIXED) + workloads.SWEEP_GRID**2
    assert workloads.cli_commands(3) == workloads.cli_commands(3)


def test_missing_hook_is_named(monkeypatch):
    missing = ("geometry.chord_kernel", "trichord.geometry", "chord_kernel", None)
    monkeypatch.setattr(tracer, "HOOKS", (missing, *tracer.HOOKS))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    with pytest.raises(tracer.HookMissing, match=r"trichord\.geometry\.chord_kernel"):
        tracer.Tracer().install()


def test_hook_never_called_is_an_error():
    with pytest.raises(layers.TraceError, match="never called"):
        layers.check_hooks_called([layers.SpanTotals()])


def _copy_checkout(dest: Path, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_renamed_function_stops_the_traced_run(tmp_path):
    _copy_checkout(tmp_path, with_sources=True)
    source = tmp_path / "src" / "trichord" / "directions.py"
    text = source.read_text().replace("side_hit(", "hit_side(")
    source.write_text(text.replace("require_on_base, side_hit", "require_on_base, side_hit as hit_side"))
    proc = _bench(tmp_path, "--workload", "mc_unit", "--trace", "1")
    assert proc.returncode != 0
    assert "trichord.directions.side_hit" in proc.stderr
    assert "{" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = _bench(tmp_path, "--workload", "general_sweep", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_run_limit_kills_the_worker():
    job = {**run.make_job("mc_unit", 0), "mode": "timed", "seconds": 60.0, "min_passes": 1}
    with pytest.raises(run.BenchError, match="run limit"):
        run.spawn(job, time.monotonic() + 1.0)


def test_worker_count_mismatch_clears_correct():
    checker = run.Checker("mc_unit", run.make_job("mc_unit", 0))
    rec = {"ms": 1.0, "p": UNIT_PROBABILITY, "successes": 16000, "successes_one": 16001}
    assert checker.check(7, rec) is not None
    assert checker.correct is False


def test_unconverged_solve_fails_but_stays_correct():
    job = run.make_job("general_sweep", 0)
    checker = run.Checker("general_sweep", job)
    config = job["items"][1]
    ref, _ = checker.refs[tuple(config)]
    rec = {"ms": 1.0, "p": ref, "converged": False, "evaluations": 3265}
    assert "converged=False" in checker.check(config, rec)
    assert checker.correct is True


def test_counts_repeat_for_a_seed():
    first, first_results = run.traced_run("mc_unit", 3, 0.0, time.monotonic() + run.RUN_LIMIT_S)
    second, second_results = run.traced_run("mc_unit", 3, 0.0, time.monotonic() + run.RUN_LIMIT_S)
    for name in COUNTS:
        assert first[name] == second[name], name
    successes = [
        [rec["successes"] for rec in results["mc_unit"]["records"]]
        for results in (first_results, second_results)
    ]
    assert successes[0] == successes[1]
    assert set(first) == set(run.PER_LAYER_UNITS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(first)


def _sweep_records(checker: run.Checker, items: list, passes: int) -> list[dict]:
    """Records of ``passes`` passes in which only the second input fails."""
    records = []
    for _ in range(passes):
        for i, config in enumerate(items):
            ref, _ = checker.refs[tuple(config)]
            records.append({"ms": 1.0, "p": ref, "converged": i != 1, "evaluations": 3265})
    return records


def test_failures_count_inputs_not_passes():
    job = run.make_job("general_sweep", 0)
    items = job["items"]
    checker = run.Checker("general_sweep", job)
    for passes in (1, 3):
        failures = checker.judge(items, _sweep_records(checker, items, passes))
        assert list(failures) == [repr(items[1])]
        assert len(failures[repr(items[1])]) == passes
    assert checker.correct is True


def test_repeat_with_another_verdict_clears_correct():
    job = run.make_job("general_sweep", 0)
    items = job["items"]
    checker = run.Checker("general_sweep", job)
    records = _sweep_records(checker, items, 2)
    records[len(items) + 1]["converged"] = True
    failures = checker.judge(items, records)
    assert "differs from the first" in failures[repr(items[1])][1]
    assert checker.correct is False
