"""trichord benchmark: one closed-loop client per workload, outputs checked.

Usage:
    python3 perfbench/run.py --workload {cli_mix,general_sweep,mc_unit}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; trichord is imported from ./src.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones.  See perfbench/README.md for what each workload measures and
what counts as a failed operation; attempted and failed count inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import layers
from reference import (
    UNIT_PROBABILITY,
    direction_measure,
    general_reference,
    unit_limit_angle,
)
from tracer import HOOK_MISSING_EXIT
import workloads as inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# Fresh interpreters started for setup_s before the timed loop and again
# after it, so the median spans two states of a shared machine.
SETUP_REPEATS = 4

# Monte Carlo results must land within this many binomial deviations.
SIGMA_MULTIPLE = 4.0

# Largest accepted |alpha - reference| in density output.
DENSITY_TOLERANCE = 1e-12

# Largest accepted |p - closed form| of the exact command.
EXACT_TOLERANCE = 1e-15

# Wall-clock cap on a whole run; children still running then are killed.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    tail_percentile: int  # highest with >= 10 samples beyond it at min_passes
    min_passes: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cli_mix": Workload(tail_percentile=80, min_passes=8),
    "mc_unit": Workload(tail_percentile=95, min_passes=20),
    "general_sweep": Workload(tail_percentile=98, min_passes=2),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.trichord_ms": "ms",
    "import.numpy_ms": "ms",
    "import.modules_loaded": "count",
    "cli.main_self_ms": "ms",
    "reports.render_ms": "ms",
    "reports.density_profile_ms": "ms",
    "exact.closed_form_us": "us",
    "geometry.limit_angle_us": "us",
    "quadrature.evaluations": "count",
    "quadrature.self_ms": "ms",
    "quadrature.converged_fraction": "ratio",
    "directions.direction_set_calls": "count",
    "directions.direction_set_us": "us",
    "directions.share_of_solve": "ratio",
    "geometry.side_hit_calls": "count",
    "geometry.side_hit_us": "us",
    "montecarlo.ms_per_block": "ms",
    "montecarlo.rng_floor_ms_per_block": "ms",
    "montecarlo.nonrng_ms_per_block": "ms",
    "montecarlo.parallel_efficiency": "ratio",
    "montecarlo.peak_alloc_mb": "MB",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def make_job(workload: str, seed: int) -> dict:
    """One pass of generated inputs, plus what the worker needs to run them."""
    if workload == "cli_mix":
        return {"workload": workload, "items": inputs.cli_commands(seed)}
    if workload == "general_sweep":
        return {
            "workload": workload,
            "items": inputs.sweep_configs(seed),
            "tolerance": inputs.SWEEP_TOLERANCE,
        }
    return {
        "workload": workload,
        "items": inputs.mc_seeds(seed, inputs.MC_SEEDS),
        "samples": inputs.MC_SAMPLES,
        "nproc": nproc(),
    }


def remaining(deadline: float) -> float:
    """Seconds left before ``deadline``, a time.monotonic() value."""
    return max(0.0, deadline - time.monotonic())


def spawn(job: dict, deadline: float) -> tuple[float, dict | None]:
    """Run a worker; return seconds from launch to "ready" and its result.

    The worker leads its own process group, so at the deadline the watchdog
    kills it together with any CLI subprocess it started."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
    )

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(remaining(deadline), kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if code == -signal.SIGKILL:
        raise BenchError(f"{job['workload']} worker killed at the {RUN_LIMIT_S:.0f} s run limit")
    if code == HOOK_MISSING_EXIT:
        raise BenchError(f"{job['workload']} worker stopped: a trace hook is missing (see stderr)")
    if code != 0 or ready_line.strip() != "ready":
        raise BenchError(f"{job['workload']} worker exited with code {code}")
    return ready, (json.loads(rest) if rest.strip() else None)


def setup_samples(workload: str, job: dict, deadline: float) -> list[float]:
    """Launch-to-ready times of SETUP_REPEATS fresh interpreters."""
    if workload == "cli_mix":
        command = [sys.executable, "-c", "import trichord"]

        def launch() -> None:
            subprocess.run(command, cwd=ROOT, env=child_env(), check=True, timeout=remaining(deadline))

        launch()  # warm .pyc
        samples = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            launch()
            samples.append(time.perf_counter() - start)
        return samples
    probe = {**job, "mode": "setup"}
    spawn(probe, deadline)  # warm .pyc
    return [spawn(probe, deadline)[0] for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------- checks


class Checker:
    """Judges each operation against references computed before any timing.

    ``check`` returns None for a pass or a one-line reason for a failure.
    Failures whose output is unusable (a crash, an unexpected exit code, an
    unparseable report, Monte Carlo counts that depend on the worker count)
    also clear ``correct``.
    """

    def __init__(self, workload: str, job: dict) -> None:
        self.workload = workload
        self.correct = True
        self.refs: dict = {}
        try:
            if workload == "general_sweep":
                tol = job["tolerance"]
                self.refs = {tuple(c): general_reference(*c, tol) for c in job["items"]}
            elif workload == "cli_mix":
                base, height, t = inputs.CLI_GENERAL_CONFIG
                self.refs["general"] = general_reference(base, height, t, inputs.CLI_TOLERANCE)
        except ValueError as exc:
            raise BenchError(str(exc)) from exc

    def hard(self, reason: str) -> str:
        self.correct = False
        return reason

    def check(self, item, rec: dict) -> str | None:
        if "error" in rec:
            return self.hard(rec["error"])
        return getattr(self, f"_{self.workload}")(item, rec)

    def _general_sweep(self, config, rec: dict) -> str | None:
        ref, _ = self.refs[tuple(config)]
        bound = inputs.SWEEP_TOLERANCE / (math.pi * config[0])
        miss = abs(rec["p"] - ref)
        if not rec["converged"]:
            return f"converged=False after {rec['evaluations']} evaluations, |p-ref|={miss:.3g}"
        if miss > bound:
            return f"|p-ref|={miss:.3g} > {bound:.3g}"
        return None

    def _mc_unit(self, seed, rec: dict) -> str | None:
        if rec["successes"] != rec.get("successes_one", rec["successes"]):
            return self.hard(
                f"seed {seed}: {rec['successes']} successes with {nproc()} workers, "
                f"{rec['successes_one']} with 1"
            )
        allowance = SIGMA_MULTIPLE * inputs.sigma(UNIT_PROBABILITY, inputs.MC_SAMPLES)
        if abs(rec["p"] - UNIT_PROBABILITY) > allowance:
            return f"seed {seed}: p_hat={rec['p']} beyond 4 sigma of the closed form"
        return None

    def _cli_mix(self, argv, rec: dict) -> str | None:
        command = argv[0]
        if rec["rc"] not in (0, 3):
            return self.hard(f"exit code {rec['rc']}: {rec['stderr'].strip()}")
        try:
            if command == "density":
                return self._density(argv, rec["stdout"])
            report = json.loads(rec["stdout"])
            if rec["rc"] != 0:
                return f"exit code {rec['rc']}"
            return self._cli_report(command, report)
        except (ValueError, KeyError, TypeError) as exc:
            return self.hard(f"unparseable output: {type(exc).__name__}: {exc}")

    def _density(self, argv, text: str) -> str | None:
        lines = text.splitlines()
        if lines[0] != "x,alpha":
            raise ValueError("missing x,alpha header")
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if len(argv) == 1:
            expected = unit_limit_angle
        else:
            expected = partial(direction_measure, *inputs.CLI_DENSITY_CONFIG)
        worst = max(abs(alpha - expected(x)) for x, alpha in rows)
        if len(rows) != 201 or worst > DENSITY_TOLERANCE:
            return f"{len(rows)} rows, worst |alpha-ref|={worst:.3g}"
        return None

    def _cli_report(self, command: str, report: dict) -> str | None:
        estimates = report["estimates"]
        if command == "exact":
            miss = abs(estimates["exact"]["p_hat"] - UNIT_PROBABILITY)
            return None if miss <= EXACT_TOLERANCE else f"|p-closed form|={miss:.3g}"
        if command == "integrate":
            miss = abs(estimates["quadrature"]["p_hat"] - UNIT_PROBABILITY)
            bound = inputs.CLI_TOLERANCE / math.pi
            if not report["details"]["converged"] or miss > bound:
                return f"converged={report['details']['converged']}, |p-closed form|={miss:.3g}"
            return None
        if command == "general":
            ref, _ = self.refs["general"]
            base = inputs.CLI_GENERAL_CONFIG[0]
            miss = abs(estimates["quadrature"]["p_hat"] - ref)
            converged = report["details"]["quadrature_converged"]
            if not converged or miss > inputs.CLI_TOLERANCE / (math.pi * base):
                return f"converged={converged}, |p-ref|={miss:.3g}"
            return None
        mc = estimates["montecarlo"]
        allowance = SIGMA_MULTIPLE * inputs.sigma(UNIT_PROBABILITY, inputs.CLI_SAMPLES)
        if mc["samples"] != inputs.CLI_SAMPLES or abs(mc["p_hat"] - UNIT_PROBABILITY) > allowance:
            return f"p_hat={mc['p_hat']} over {mc['samples']} samples beyond 4 sigma"
        if command == "verify" and not report["agreement"]["within_tolerance"]:
            return "verify reports disagreement"
        return None

    def judge(self, items: list, records: list) -> dict[str, list[str]]:
        """Failure reasons grouped by input (configuration, seed or command),
        in input order; an input fails when any of its operations fails.

        Passes repeat the same inputs and the engines are deterministic, so
        every repeat of an input must get the verdict its first operation got.
        A repeat that does not clears ``correct``; it is listed under the
        input it belongs to."""
        failures: dict[str, list[str]] = {}
        first: dict[int, str | None] = {}
        for i, rec in enumerate(records):
            index = i % len(items)
            item = items[index]
            reason = self.check(item, rec)
            if index not in first:
                first[index] = reason
            elif reason != first[index]:
                reason = self.hard(f"repeat {i // len(items)} differs from the first: {reason}")
            if reason is not None:
                key = " ".join(item) if self.workload == "cli_mix" else repr(item)
                failures.setdefault(key, []).append(reason)
        return failures


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, result: dict, setup_s: float) -> dict:
    ms = [r["ms"] for r in result["records"] if r["ms"] is not None]
    return {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_tail": percentile(ms, WORKLOADS[workload].tail_percentile),
        "throughput_ops_per_s": len(ms) / (sum(ms) / 1e3),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def traced_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: the traced workload for ``seconds``, one traced pass
    of each other workload for the layers it is home to, and import timing.

    Returns the metrics and the worker result of each workload."""
    shutil.rmtree(OUT, ignore_errors=True)
    results = {}
    for name in WORKLOADS:
        spans_dir = OUT / name
        spans_dir.mkdir(parents=True)
        job = make_job(name, seed)
        own = name == workload
        job.update(
            mode="traced",
            spans_dir=str(spans_dir),
            overhead=own,
            seconds=seconds / 2 if own else 0,
            min_passes=1,
        )
        results[name] = spawn(job, deadline)[1]
    totals = {name: layers.load(result["stems"]) for name, result in results.items()}
    layers.check_hooks_called(list(totals.values()))
    metrics = layers.import_metrics(ROOT, child_env(), remaining(deadline))
    metrics.update(layers.cli_metrics(totals["cli_mix"]))
    metrics.update(
        layers.sweep_metrics(totals["general_sweep"], len(results["general_sweep"]["records"]))
    )
    metrics.update(layers.mc_metrics(totals["mc_unit"], results["mc_unit"]["extras"], nproc()))
    own = results[workload]
    traced_p50 = statistics.median(r["ms"] for r in own["records"] if r["ms"] is not None)
    untraced_p50 = statistics.median(r["ms"] for r in own["untraced"] if r["ms"] is not None)
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return metrics, results


# ---------------------------------------------------------------- main


def machine_facts() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"nproc={nproc()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def run(args: argparse.Namespace, deadline: float) -> int:
    if not (ROOT / "src" / "trichord" / "__init__.py").is_file():
        raise BenchError(f"no trichord sources under {ROOT / 'src'}; run from a source checkout")
    spec = WORKLOADS[args.workload]
    job = make_job(args.workload, args.seed)
    checker = Checker(args.workload, job)
    lines = [
        f"# workload {args.workload} seed={args.seed}",
        f"# closed loop, 1 client; tail = p{spec.tail_percentile}; {machine_facts()}",
    ]
    if args.trace:
        metrics, results = traced_run(args.workload, args.seed, args.seconds, deadline)
        own = results[args.workload]
        records = own["untraced"] + own["records"]
        for name, result in results.items():
            if name != args.workload:
                probe_job = make_job(name, args.seed)
                probe = Checker(name, probe_job)
                failures = probe.judge(probe_job["items"], result["records"])
                checker.correct &= probe.correct
                lines.append(f"# probe {name}: {len(failures)} of {len(probe_job['items'])} inputs failed")
        units = PER_LAYER_UNITS
    else:
        setup = setup_samples(args.workload, job, deadline)
        timed = {**job, "mode": "timed", "seconds": args.seconds, "min_passes": spec.min_passes}
        _, result = spawn(timed, deadline)
        setup_s = statistics.median(setup + setup_samples(args.workload, job, deadline))
        records = result["records"]
        metrics = end_to_end(args.workload, result, setup_s)
        if args.workload == "mc_unit":
            first = [r for r in records if "ms_one" in r]
            one, many = sum(r["ms_one"] for r in first), sum(r["ms"] for r in first)
            lines.append(f"# mc_parallel_efficiency = {one / (nproc() * many):.4f} ratio")
        units = END_TO_END_UNITS
    # attempted and failed count inputs, not operations: how many operations
    # fit in the run varies, but the inputs of a seed and their verdicts do not.
    failures = checker.judge(job["items"], records)
    attempted, failed = len(job["items"]), len(failures)
    failed_ops = sum(len(v) for v in failures.values())
    lines.append(
        f"# {len(records)} operations over {attempted} inputs; {failed_ops} operations failed; "
        f"failed_fraction = {failed / attempted:.4f} of inputs"
    )
    for name, value in metrics.items():
        lines.append(f"# {name} = {value:.6g} {units[name]}")
    for key, reasons in failures.items():
        lines.append(f"# failed x{len(reasons)}: {key}: {reasons[0]}")
    payload = {
        "correct": checker.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


def main() -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        return run(args, deadline)
    except (BenchError, layers.TraceError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
