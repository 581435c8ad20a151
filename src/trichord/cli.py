"""Command line front end.

Subcommands: exact, density, integrate, simulate, general, verify.  All
accept a JSON config file plus flags that override it, both checked by
config_from_sources; results go to stdout or --out.  Exit codes: 0 success,
2 invalid input or usage (one stderr line), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Callable, NoReturn, TypeVar

from . import __version__
from .directions import probability_general
from .exact import (
    probability_arctan_form,
    probability_golden_ratio_form,
)
from .estimates import Method, ProbabilityEstimate
from .geometry import ChordProblem, is_unit_configuration
from .quadrature import QuadratureResult, probability_by_quadrature
from .reports import (
    FORMATS,
    METHODS,
    Agreement,
    ExperimentConfig,
    ExperimentReport,
    _as_float,
    config_from_sources,
    density_profile,
)

# verify passes only when its quadrature lies closer than this to the closed form.
QUADRATURE_AGREEMENT_TOLERANCE = 1e-8

# Monte Carlo agrees, in general and verify, within this many binomial sigmas of the reference p.
SIGMA_MULTIPLE = 4.0

T = TypeVar("T")


# Each config flag by the ExperimentConfig field (or base, height) it sets: its
# name and help.  No flag converts its value; config_from_sources converts and
# checks the strings exactly as it does config-file values.
_CONFIG_FLAGS = {
    "base": ("--base", "triangle base length"),
    "height": ("--height", "triangle height"),
    "threshold": ("--threshold", "chord length cutoff"),
    "method": ("--method", f"which estimators a combined command runs: {', '.join(METHODS)}"),
    "samples": ("--samples", "Monte Carlo sample count"),
    "seed": ("--seed", "Monte Carlo root seed"),
    "tolerance": (
        "--tol",
        "absolute error target on pi times the probability, so p is within tol/pi",
    ),
    "density_points": ("--points", "grid size for density output"),
    "output_format": ("--format", f"report format: {', '.join(FORMATS)}; density is always CSV"),
    "output_path": ("--out", "write output to this file instead of stdout"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, like any other invalid input."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"trichord: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    for name, (flag, help_text) in _CONFIG_FLAGS.items():
        default = getattr(defaults.triangle if name in ("base", "height") else defaults, name)
        if default is not None:
            help_text += f" (default {default})"
        common.add_argument(flag, dest=name, help=help_text)

    parser = _Parser(
        prog="trichord",
        description=(
            "Probability that a chord from a uniform base point of an isosceles "
            "triangle at a uniform angle exceeds a length cutoff."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if name == "verify":
            command.add_argument(
                "--perturb",
                default=0.0,
                help="test hook: bias added to the quadrature probability before the gate",
            )
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    file_data: dict[str, Any] | None = None
    if args.config is not None:
        with open(args.config) as config_file:
            file_data = json.load(config_file)
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
    return config_from_sources(file_data, vars(args))


def _require_unit_configuration(config: ExperimentConfig) -> None:
    if not is_unit_configuration(_problem(config)):
        raise ValueError(
            "this command needs the unit configuration "
            "(base=1, height=1, threshold=1); use 'general' otherwise"
        )


def _problem(config: ExperimentConfig) -> ChordProblem:
    return ChordProblem(config.triangle, config.threshold)


def _warn_unconverged(result: QuadratureResult) -> None:
    """One stderr line when quadrature accepted a subinterval short of its error
    share, at roundoff, at float resolution or at its evaluation cap; stdout
    is unchanged."""
    if not result.converged:
        print(
            f"trichord: warning: quadrature did not converge to tolerance "
            f"{result.tolerance:g} ({result.evaluations} evaluations); "
            "the reported probability may be less accurate",
            file=sys.stderr,
        )


def _montecarlo_within(p_ref: float, mc: ProbabilityEstimate) -> tuple[float, float, float, bool]:
    """(error, sigma, allowance, error <= allowance) of Monte Carlo against p_ref.

    sigma is taken at p_ref, as the estimate's own is 0 at 0 or n successes; with
    no floor, at p_ref = 0 or 1 only a count of exactly 0 or n agrees."""
    error = abs(mc.p_hat - p_ref)
    sigma = math.sqrt(p_ref * (1.0 - p_ref) / mc.samples)
    allowance = SIGMA_MULTIPLE * sigma
    return error, sigma, allowance, error <= allowance


def estimate(problem: ChordProblem, samples: int, seed: int) -> ProbabilityEstimate:
    """Monte Carlo estimate; NumPy loads on the first call, so commands that
    never sample do not pay for it."""
    from .montecarlo import estimate as sample

    return sample(problem, samples, seed)


def _timed(timing: dict[str, float], name: str, engine: Callable[..., T], *args: Any) -> T:
    """Call ``engine(*args)`` and record its wall time in ms under ``name``."""
    start = time.perf_counter()
    result = engine(*args)
    timing[name] = (time.perf_counter() - start) * 1000.0
    return result


def _sampled(
    timing: dict[str, float], problem: ChordProblem, config: ExperimentConfig
) -> ProbabilityEstimate:
    """Timed Monte Carlo estimate.  The module and NumPy load before the timer
    starts, so ``timing_ms.montecarlo`` covers the sampling alone."""
    from . import montecarlo  # noqa: F401

    return _timed(timing, "montecarlo", estimate, problem, config.samples, config.seed)


def _report(
    config: ExperimentConfig,
    estimates: dict[str, ProbabilityEstimate],
    agreement: Agreement,
    timing: dict[str, float],
    details: dict[str, Any] | None = None,
) -> str:
    """Render the run's report in the configured output format."""
    report = ExperimentReport(config, estimates, agreement, timing, __version__, details or {})
    if config.output_format == "csv":
        return report.to_csv()
    return report.to_json()


def cmd_exact(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    _require_unit_configuration(config)
    timing: dict[str, float] = {}
    arctan_form = probability_arctan_form()
    golden_form = _timed(timing, "exact", probability_golden_ratio_form)
    return 0, _report(
        config,
        {"exact": ProbabilityEstimate.from_value(golden_form, Method.EXACT)},
        Agreement(abs(arctan_form - golden_form), True),
        timing,
        {
            "arctan_form": arctan_form,
            "golden_ratio_form": golden_form,
            "difference": arctan_form - golden_form,
        },
    )


def cmd_density(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    profile = density_profile(_problem(config), config.density_points)
    return 0, profile.to_csv()


def cmd_integrate(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    problem = _problem(config)
    timing: dict[str, float] = {}
    if is_unit_configuration(problem):
        quad = _timed(timing, "quadrature", probability_by_quadrature, config.tolerance)
    else:
        quad = _timed(timing, "quadrature", probability_general, problem, config.tolerance)
    if not math.isfinite(quad.integral):
        message = "the integral over the base, pi * p * base, overflows at base"
        raise ValueError(f"{message} {problem.triangle.base!r}; general reports p")
    _warn_unconverged(quad)
    return 0, _report(
        config,
        {"quadrature": ProbabilityEstimate.from_value(quad.probability, Method.QUADRATURE)},
        Agreement(0.0, True),
        timing,
        {"integral": quad.integral, "evaluations": quad.evaluations, "converged": quad.converged},
    )


def cmd_simulate(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    timing: dict[str, float] = {}
    mc = _sampled(timing, _problem(config), config)
    return 0, _report(config, {"montecarlo": mc}, Agreement(0.0, True), timing)


def cmd_general(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    if config.method == "exact":
        raise ValueError(
            "general computes by quadrature and Monte Carlo; "
            "the exact command handles the closed form"
        )
    problem = _problem(config)
    timing: dict[str, float] = {}
    quad = _timed(timing, "quadrature", probability_general, problem, config.tolerance)
    _warn_unconverged(quad)
    estimates = {"quadrature": ProbabilityEstimate.from_value(quad.probability, Method.QUADRATURE)}
    agreement = Agreement(0.0, True)
    if config.method in ("montecarlo", "all"):
        mc = _sampled(timing, problem, config)
        estimates["montecarlo"] = mc
        error, _, _, within = _montecarlo_within(quad.probability, mc)
        agreement = Agreement(error, within)
    return 0, _report(
        config,
        estimates,
        agreement,
        timing,
        {"quadrature_evaluations": quad.evaluations, "quadrature_converged": quad.converged},
    )


def cmd_verify(config: ExperimentConfig, args: argparse.Namespace) -> tuple[int, str]:
    _require_unit_configuration(config)
    perturb = _as_float("perturb", args.perturb)
    if not math.isfinite(perturb):
        raise ValueError(f"perturb must be a finite number, got {perturb}")
    timing: dict[str, float] = {}
    exact_p = _timed(timing, "exact", probability_golden_ratio_form)
    quad = _timed(timing, "quadrature", probability_by_quadrature, config.tolerance)
    _warn_unconverged(quad)
    mc = _sampled(timing, _problem(config), config)
    quad_p = quad.probability + perturb
    quadrature_error = abs(quad_p - exact_p)
    montecarlo_error, sigma, allowance, within = _montecarlo_within(exact_p, mc)
    passed = quadrature_error < QUADRATURE_AGREEMENT_TOLERANCE and within
    return (0 if passed else 3), _report(
        config,
        {
            "exact": ProbabilityEstimate.from_value(exact_p, Method.EXACT),
            "quadrature": ProbabilityEstimate.from_value(quad_p, Method.QUADRATURE),
            "montecarlo": mc,
        },
        Agreement(max(quadrature_error, montecarlo_error, abs(mc.p_hat - quad_p)), passed),
        timing,
        {
            "quadrature_error": quadrature_error,
            "quadrature_tolerance": QUADRATURE_AGREEMENT_TOLERANCE,
            "montecarlo_error": montecarlo_error,
            "montecarlo_allowance": allowance,
            "montecarlo_sigma": sigma,
        },
    )


# Each subcommand's help text and handler; build_parser and main both read it.
_COMMANDS = {
    "exact": ("closed-form probability (unit configuration only)", cmd_exact),
    "density": ("CSV profile of the angular measure across the base", cmd_density),
    "integrate": ("probability by adaptive quadrature", cmd_integrate),
    "simulate": ("probability by Monte Carlo sampling", cmd_simulate),
    "general": ("probability for arbitrary base, height, and cutoff", cmd_general),
    "verify": (
        "cross-check closed form, quadrature, and Monte Carlo; exit 3 on mismatch",
        cmd_verify,
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        code, payload = _COMMANDS[args.command][1](config, args)
        if config.output_path is None:
            sys.stdout.write(payload)
        else:
            with open(config.output_path, "w") as out:
                out.write(payload)
    except (ValueError, OSError) as exc:
        print(f"trichord: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
