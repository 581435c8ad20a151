"""Child process that runs one workload as a closed loop with one client.

Usage: python perfbench/worker.py < JOB_JSON

The job names the workload, one pass of its generated inputs, the mode
("setup", "timed" or "traced"), the run length and the minimum number of
passes.  The worker imports trichord (except for cli_mix, whose operations
are subprocesses), runs one untimed warm-up operation, prints "ready", then
repeats whole passes and prints one JSON line with a record per operation.
A traced job may first repeat the passes untraced, for the tracing overhead.
Correctness is judged by the parent, which keeps the reference answers.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

from tracer import HOOK_MISSING_EXIT, HookMissing, Tracer
from workloads import MC_BLOCK

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

# Blocks timed, and times each is repeated, for the RNG floor.
RNG_FLOOR_BLOCKS = 16
RNG_FLOOR_REPEATS = 5


def _import_trichord() -> None:
    import trichord

    where = Path(trichord.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: trichord imported from {where}, not {ROOT / 'src'}")


class CliMix:
    """Each operation is one `python -m trichord ...` subprocess."""

    def __init__(self, job: dict) -> None:
        self.items = job["items"]
        self.spans_dir = Path(job["spans_dir"]) if job.get("spans_dir") else None
        self.stems: list[str] = []
        self.traced = False

    def warm_up(self) -> None:
        pass

    def trace(self) -> None:
        self.traced = True

    def run(self, op_id: int, argv: list[str]) -> dict:
        if self.traced:
            stem = self.spans_dir / f"cli-{op_id}"
            command = [sys.executable, str(TRACED_CLI), str(stem), str(op_id), *argv]
        else:
            command = [sys.executable, "-m", "trichord", *argv]
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        ms = (time.perf_counter() - start) * 1e3
        if proc.returncode == HOOK_MISSING_EXIT and self.traced:
            raise HookMissing(proc.stderr.strip())
        if self.traced:
            self.stems.append(str(stem))
        return {"ms": ms, "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-500:]}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess:
    """Shared parts of the workloads that call trichord in this process."""

    def __init__(self, job: dict) -> None:
        _import_trichord()
        self.items = job["items"]
        self.tracer: Tracer | None = None

    def trace(self) -> None:
        self.tracer = Tracer()
        self.tracer.install()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GeneralSweep(InProcess):
    """Each operation is probability_general on one configuration."""

    def __init__(self, job: dict) -> None:
        super().__init__(job)
        from trichord import ChordProblem, IsoscelesTriangle

        self.problems = {
            tuple(c): ChordProblem(IsoscelesTriangle(c[0], c[1]), c[2]) for c in self.items
        }
        self.tolerance = job["tolerance"]

    def warm_up(self) -> None:
        self.run(-1, self.items[0])

    def run(self, op_id: int, config: list[float]) -> dict:
        from trichord import directions

        problem = self.problems[tuple(config)]
        start = time.perf_counter()
        result = directions.probability_general(problem, self.tolerance)
        ms = (time.perf_counter() - start) * 1e3
        return {
            "ms": ms,
            "p": result.probability,
            "converged": result.converged,
            "evaluations": result.evaluations,
        }


class McUnit(InProcess):
    """Each operation is estimate(ChordProblem(), samples, seed, workers=nproc).

    In the first pass of a loop each seed also runs with one worker, for the
    bit-identity check and the parallel efficiency; later passes repeat the
    same seeds, so they would only repeat that check."""

    def __init__(self, job: dict) -> None:
        super().__init__(job)
        from trichord import ChordProblem

        self.problem = ChordProblem()
        self.samples = job["samples"]
        self.nproc = job["nproc"]

    def warm_up(self) -> None:
        from trichord import montecarlo

        montecarlo.estimate(self.problem, self.samples, seed=self.items[0], workers=self.nproc)

    def run(self, op_id: int, seed: int) -> dict:
        from trichord import montecarlo

        start = time.perf_counter()
        many = montecarlo.estimate(self.problem, self.samples, seed=seed, workers=self.nproc)
        ms = (time.perf_counter() - start) * 1e3
        record = {"ms": ms, "p": many.p_hat, "successes": many.successes}
        if op_id < len(self.items):
            start = time.perf_counter()
            one = montecarlo.estimate(self.problem, self.samples, seed=seed, workers=1)
            record["ms_one"] = (time.perf_counter() - start) * 1e3
            record["successes_one"] = one.successes
        return record

    def layer_extras(self) -> dict:
        """RNG floor per block and tracemalloc peak of one estimate call."""
        import numpy as np
        from trichord import montecarlo

        seed = self.items[0]
        per_block = []
        for _ in range(RNG_FLOOR_REPEATS):
            start = time.perf_counter()
            for block in range(RNG_FLOOR_BLOCKS):
                sequence = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
                rng = np.random.Generator(np.random.Philox(sequence))
                rng.random(MC_BLOCK)
                rng.random(MC_BLOCK)
            per_block.append((time.perf_counter() - start) * 1e3 / RNG_FLOOR_BLOCKS)
        per_block.sort()
        tracemalloc.start()
        try:
            montecarlo.estimate(self.problem, self.samples, seed=seed, workers=self.nproc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "rng_floor_ms_per_block": per_block[len(per_block) // 2],
            "peak_alloc_mb": peak / 2**20,
        }


WORKLOADS: dict[str, Callable[[dict], Any]] = {
    "cli_mix": CliMix,
    "general_sweep": GeneralSweep,
    "mc_unit": McUnit,
}


def closed_loop(workload: Any, seconds: float, min_passes: int, tracer: Tracer | None) -> list[dict]:
    """Repeat whole passes until ``min_passes`` have run and another pass, as
    long as the last one, would end after ``seconds``."""
    records: list[dict] = []
    passes = 0
    start = time.perf_counter()
    last = 0.0
    while passes < min_passes or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        for item in workload.items:
            op_id = len(records)
            if tracer is not None:
                tracer.op = op_id
            try:
                records.append(workload.run(op_id, item))
            except HookMissing:
                raise
            except Exception as exc:  # one failed operation must not stop the loop
                records.append({"ms": None, "error": f"{type(exc).__name__}: {exc}"})
        last = time.perf_counter() - pass_start
        passes += 1
    return records


def main() -> int:
    job = json.load(sys.stdin)
    try:
        workload = WORKLOADS[job["workload"]](job)
        workload.warm_up()
        print("ready", flush=True)
        if job["mode"] == "setup":
            return 0
        out: dict[str, Any] = {}
        if job["mode"] == "traced":
            if job["overhead"]:
                out["untraced"] = closed_loop(workload, job["seconds"], 1, None)
            if isinstance(workload, McUnit):
                out["extras"] = workload.layer_extras()
            workload.trace()
        tracer = getattr(workload, "tracer", None)
        out["records"] = closed_loop(workload, job["seconds"], job["min_passes"], tracer)
        out["peak_rss_mb"] = workload.peak_rss_mb()
        if job["mode"] == "traced":
            if tracer is not None:
                stem = Path(job["spans_dir"]) / job["workload"]
                tracer.dump(stem)
                out["stems"] = [str(stem)]
            else:
                out["stems"] = workload.stems
    except HookMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return HOOK_MISSING_EXIT
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
