"""Run configuration, result reports, density profiles, and serialization.

Every float is rendered with 17 significant digits, enough for a lossless
round trip through text, and reports use a fixed key order, so two runs with
the same configuration serialize byte-identically apart from timing fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from .directions import direction_set
from .estimates import ProbabilityEstimate
from .geometry import ChordProblem, IsoscelesTriangle, is_unit_configuration, limit_angle

METHODS = ("exact", "quadrature", "montecarlo", "all")
FORMATS = ("json", "csv")


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (lossless text round trip)."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite number {value!r}")
    return format(value, ".17g")


def _encode(value: Any, level: int) -> str:
    pad = "  " * level
    child = "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(child + _encode(item, level + 1) for item in value)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{child}{json.dumps(str(key))}: {_encode(item, level + 1)}"
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(payload: Any) -> str:
    """Serialize to two-space-indented JSON, 17-significant-digit floats, stable key order."""
    return _encode(payload, 0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full configuration of a run.

    The one schema for a run: its fields and defaults are the config file keys,
    the flag dests and the report echo.
    """

    triangle: IsoscelesTriangle = IsoscelesTriangle(1.0, 1.0)
    threshold: float = 1.0
    method: str = "all"
    samples: int = 1_000_000
    seed: int = 0
    tolerance: float = 1e-12
    density_points: int = 201
    output_format: str = "json"
    output_path: str | None = None

    def __post_init__(self) -> None:
        ChordProblem(self.triangle, self.threshold)  # validates the problem
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not _is_int(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not _is_int(self.density_points) or self.density_points < 2:
            raise ValueError(
                f"density_points must be an integer of at least 2, got {self.density_points!r}"
            )
        if self.output_format not in FORMATS:
            raise ValueError(
                f"output_format must be one of {FORMATS}, got {self.output_format!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped view with the documented field names."""
        return asdict(self)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int(name: str, value: Any) -> int:
    # JSON files may carry integers written as 1e6, flags carry text; accept exact ones.
    if _is_int(value):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_float(name: str, value: Any) -> float:
    # Bare float() would read JSON true as 1.0 and raise TypeError on a list.
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _as_str(name: str, value: Any) -> str:
    # str() would turn a JSON list into a file name such as "['a', 1]".
    if isinstance(value, str):
        return value
    raise ValueError(f"{name} must be a string, got {value!r}")


def config_from_sources(
    file_data: Mapping[str, Any] | None, overrides: Mapping[str, Any]
) -> ExperimentConfig:
    """Merge config file values and flag overrides over the defaults.

    ``overrides`` is keyed by ``ExperimentConfig`` field name, with ``base``
    and ``height`` in place of ``triangle``; entries set to None and other
    keys are ignored.  Flag values arrive as strings and are converted and
    checked like file values, to the type of each field's default; string
    fields take only strings.  Unknown file keys are rejected.
    """
    data = dict(file_data or {})
    names = [f.name for f in fields(ExperimentConfig)]
    unknown = set(data) - set(names)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    triangle_data = data.get("triangle", {})
    if not isinstance(triangle_data, Mapping):
        raise ValueError("triangle must be an object with base and height")
    tri_unknown = set(triangle_data) - {"base", "height"}
    if tri_unknown:
        raise ValueError(f"unknown triangle fields: {sorted(tri_unknown)}")

    def pick(name: str, file_value: Any, default: Any) -> Any:
        value = overrides.get(name)
        if value is None:
            value = file_value
        if value is None:
            return default
        if isinstance(default, float):
            return _as_float(name, value)
        if isinstance(default, int):
            return _as_int(name, value)
        return _as_str(name, value)

    defaults = ExperimentConfig()
    triangle = IsoscelesTriangle(
        pick("base", triangle_data.get("base"), defaults.triangle.base),
        pick("height", triangle_data.get("height"), defaults.triangle.height),
    )
    values = {
        name: pick(name, data.get(name), getattr(defaults, name))
        for name in names
        if name != "triangle"
    }
    return ExperimentConfig(triangle=triangle, **values)


@dataclass(frozen=True)
class Agreement:
    """Cross-method consistency summary."""

    max_abs_difference: float
    within_tolerance: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run produced: config echo, per-method estimates, agreement."""

    config: ExperimentConfig
    estimates: Mapping[str, ProbabilityEstimate]
    agreement: Agreement
    timing_ms: Mapping[str, float]
    tool_version: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped view: dicts, lists, and scalars only."""
        doc: dict[str, Any] = {
            "config": self.config.to_dict(),
            "estimates": {
                name: {
                    "method": est.method.value,
                    "p_hat": est.p_hat,
                    "samples": est.samples,
                    "successes": est.successes,
                    "std_error": est.std_error,
                    "ci95": [est.ci95[0], est.ci95[1]],
                    "seed": est.seed,
                }
                for name, est in self.estimates.items()
            },
            "agreement": {
                "max_abs_difference": self.agreement.max_abs_difference,
                "within_tolerance": self.agreement.within_tolerance,
            },
            "timing_ms": {name: float(ms) for name, ms in self.timing_ms.items()},
            "tool_version": self.tool_version,
        }
        if self.details:
            doc["details"] = dict(self.details)
        return doc

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        lines = ["method,p_hat,std_error,ci_low,ci_high,samples,successes,seed"]
        for name, est in self.estimates.items():
            lines.append(
                ",".join(
                    (
                        name,
                        format_float(est.p_hat),
                        format_float(est.std_error),
                        format_float(est.ci95[0]),
                        format_float(est.ci95[1]),
                        str(est.samples),
                        str(est.successes),
                        str(est.seed),
                    )
                )
            )
        return "\n".join(lines) + "\n"


def base_grid(base: float, points: int) -> list[float]:
    """Equally spaced abscissas across the base, exactly mirror-symmetric.

    The upper half is built by negating the lower half, so x[i] == -x[n-1-i]
    bit-for-bit and the midpoint of an odd grid is exactly 0.0.
    """
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    last = points - 1
    xs = [(i / last - 0.5) * base for i in range(points)]
    for i in range(points // 2):
        xs[last - i] = -xs[i]
    return xs


@dataclass(frozen=True)
class DensityProfile:
    """Sampled angular-measure profile across the base, as (x, alpha) rows."""

    rows: tuple[tuple[float, float], ...]

    def to_csv(self) -> str:
        lines = ["x,alpha"]
        for x, alpha in self.rows:
            lines.append(f"{format_float(x)},{format_float(alpha)}")
        return "\n".join(lines) + "\n"


def parse_density_csv(text: str) -> DensityProfile:
    """Inverse of DensityProfile.to_csv."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != "x,alpha":
        raise ValueError("density CSV must start with the header 'x,alpha'")
    rows = []
    for line in lines[1:]:
        x_text, alpha_text = line.split(",")
        rows.append((float(x_text), float(alpha_text)))
    return DensityProfile(tuple(rows))


def density_profile(problem: ChordProblem, points: int) -> DensityProfile:
    """Angular-measure profile of ``problem`` on a symmetric grid of ``points``.

    Uses the closed-form limit angle in the unit configuration and the
    direction-set construction otherwise.
    """
    xs = base_grid(problem.triangle.base, points)
    if is_unit_configuration(problem):
        rows = tuple((x, limit_angle(x)) for x in xs)
    else:
        rows = tuple((x, direction_set(problem, x).measure) for x in xs)
    return DensityProfile(rows)
