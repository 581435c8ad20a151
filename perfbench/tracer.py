"""In-memory spans around calls into the trichord modules.

Each hook replaces a public function at the name its caller looks it up
under, so a span covers exactly one call across a layer boundary.  Spans
record name, start, end, parent span and operation id; a few hooks also keep
counts taken from the returned value.  ``Tracer.dump`` writes them out once,
when the traced process ends.  Standard library only, so tracing adds no
import to the process it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable


# Exit code of a traced child whose hooks could not be installed.
HOOK_MISSING_EXIT = 97


class HookMissing(RuntimeError):
    """A function the trace wraps is gone or renamed."""


def _quad_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"evaluations": result.evaluations, "converged": bool(result.converged)}


def _mc_counts(args: tuple, kwargs: dict, result: Any) -> dict:
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    return {"samples": result.samples, "successes": result.successes, "workers": workers}


# (span name, module, attribute path, counts taken from the return value).
# The cli.* targets are the names cli.py calls; the others are the names the
# engines call each other by, or the benchmark calls directly.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "trichord.cli", "main", None),
    ("exact.closed_form", "trichord.cli", "probability_golden_ratio_form", None),
    ("exact.closed_form", "trichord.cli", "probability_arctan_form", None),
    ("quadrature.unit", "trichord.cli", "probability_by_quadrature", None),
    ("directions.probability_general", "trichord.cli", "probability_general", None),
    ("montecarlo.estimate", "trichord.cli", "estimate", _mc_counts),
    ("reports.density_profile", "trichord.cli", "density_profile", None),
    ("reports.render", "trichord.reports", "ExperimentReport.to_json", None),
    ("reports.render", "trichord.reports", "ExperimentReport.to_csv", None),
    ("reports.render", "trichord.reports", "DensityProfile.to_csv", None),
    ("directions.direction_set", "trichord.reports", "direction_set", None),
    ("geometry.limit_angle", "trichord.reports", "limit_angle", None),
    ("directions.probability_general", "trichord.directions", "probability_general", None),
    ("directions.direction_set", "trichord.directions", "direction_set", None),
    ("geometry.side_hit", "trichord.directions", "side_hit", None),
    ("quadrature.integrate_profile", "trichord.directions", "integrate_profile", _quad_counts),
    ("quadrature.integrate_profile", "trichord.quadrature", "integrate_profile", _quad_counts),
    ("geometry.limit_angle", "trichord.quadrature", "limit_angle", None),
    ("montecarlo.estimate", "trichord.montecarlo", "estimate", _mc_counts),
)


class Tracer:
    """Span store for one process; spans of one operation share ``op``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op_ids = array("q")
        self.counts: dict[int, dict] = {}
        self.op = -1
        self._open: list[int] = []

    def wrap(self, span: str, fn: Callable, counts: Callable | None) -> Callable:
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.start)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.name.append(name_id)
            self.op_ids.append(self.op)
            self.end.append(0.0)
            open_spans.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                open_spans.pop()
            if counts is not None:
                self.counts[index] = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every hook; raise HookMissing naming the first one not found."""
        for span, module_name, attr_path, counts in HOOKS:
            target = f"{module_name}.{attr_path}"
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError as exc:
                raise HookMissing(f"trace hook {target}: module missing ({exc})") from exc
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                raise HookMissing(f"trace hook {target} is missing or renamed")
            setattr(owner, attr, self.wrap(span, fn, counts))

    def dump(self, stem: Path) -> None:
        """Write ``stem``.bin (five int64/float64 columns) and ``stem``.json."""
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in (self.start, self.end, self.parent, self.name, self.op_ids):
                column.tofile(out)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        stem.with_suffix(".json").write_text(json.dumps(header))
