"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys

import pytest

from trichord import QuadratureResult, cli
from trichord.reports import dumps

P_EXACT = 0.016212872164880516  # frozen from a 50-digit evaluation


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "trichord", *argv],
        capture_output=True,
        text=True,
    )


def test_exact_defaults():
    proc = run_cli("exact")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert round(doc["estimates"]["exact"]["p_hat"], 4) == 0.0162
    details = doc["details"]
    assert abs(details["arctan_form"] - details["golden_ratio_form"]) < 1e-14
    assert doc["config"]["triangle"]["base"] == 1
    assert doc["config"]["samples"] == 1_000_000


def test_exact_rejects_non_unit_configuration():
    proc = run_cli("exact", "--base", "2")
    assert proc.returncode == 2
    assert "unit configuration" in proc.stderr


def test_density_three_points():
    proc = run_cli("density", "--points", "3")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,alpha"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["-0.5", "0", "0.5"]
    alpha_half = 3.0 * math.atan(2.0) - math.pi
    assert float(rows[0][1]) == pytest.approx(alpha_half, abs=1e-14)
    assert float(rows[1][1]) == 0.0
    assert rows[2][1] == rows[0][1]


def test_density_round_trips_at_17_digits():
    proc = run_cli("density", "--points", "41")
    assert proc.returncode == 0
    again = run_cli("density", "--points", "41")
    assert proc.stdout == again.stdout  # fully deterministic
    for line in proc.stdout.strip().split("\n")[1:]:
        x_text, alpha_text = line.split(",")
        assert format(float(x_text), ".17g") == x_text
        assert format(float(alpha_text), ".17g") == alpha_text


def test_density_general_configuration():
    proc = run_cli("density", "--points", "5", "--threshold", "0")
    assert proc.returncode == 0
    for line in proc.stdout.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) == pytest.approx(math.pi, abs=1e-15)


def test_integrate_unit_configuration():
    proc = run_cli("integrate", "--tol", "1e-12")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["estimates"]["quadrature"]["p_hat"] - P_EXACT) < 1e-10
    assert doc["details"]["converged"] is True
    assert doc["details"]["evaluations"] < 100_000


def test_integrate_general_configuration():
    proc = run_cli("integrate", "--base", "2", "--height", "1", "--threshold", "1.2", "--tol", "1e-8")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert 0.0 <= doc["estimates"]["quadrature"]["p_hat"] <= 1.0


def test_simulate_zero_threshold_csv():
    proc = run_cli(
        "simulate",
        "--samples",
        "1000",
        "--seed",
        "42",
        "--threshold",
        "0",
        "--format",
        "csv",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "method,p_hat,std_error,ci_low,ci_high,samples,successes,seed"
    fields = lines[1].split(",")
    assert fields[0] == "montecarlo"
    assert float(fields[1]) == 1.0
    assert fields[5] == "1000"
    assert fields[6] == "1000"
    assert fields[7] == "42"


def test_simulate_is_deterministic():
    first = run_cli("simulate", "--samples", "30000", "--seed", "11")
    second = run_cli("simulate", "--samples", "30000", "--seed", "11")
    da, db = json.loads(first.stdout), json.loads(second.stdout)
    assert da["estimates"] == db["estimates"]


def test_general_unit_configuration_matches_exact():
    proc = run_cli("general", "--method", "quadrature", "--tol", "1e-10")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["estimates"]["quadrature"]["p_hat"] - P_EXACT) < 1e-8
    assert "montecarlo" not in doc["estimates"]


def test_general_with_montecarlo_cross_check():
    proc = run_cli(
        "general",
        "--base",
        "2",
        "--height",
        "1",
        "--threshold",
        "0.9",
        "--samples",
        "50000",
        "--seed",
        "1",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc["estimates"]) == {"quadrature", "montecarlo"}
    assert doc["agreement"]["within_tolerance"] is True


def test_general_rejects_exact_method():
    proc = run_cli("general", "--method", "exact")
    assert proc.returncode == 2


def test_verify_passes_with_defaults():
    proc = run_cli("verify")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["agreement"]["within_tolerance"] is True
    assert set(doc["estimates"]) == {"exact", "quadrature", "montecarlo"}
    assert doc["details"]["quadrature_error"] < 1e-8


def test_verify_passes_with_tiny_sample_count():
    # The 4-sigma allowance widens to ~0.05 at 100 samples, so the gate
    # still passes even though the point estimate is crude.
    proc = run_cli("verify", "--samples", "100", "--seed", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["details"]["montecarlo_allowance"] == pytest.approx(0.05, abs=0.01)


def test_verify_fails_when_perturbed():
    proc = run_cli("verify", "--samples", "1000", "--perturb", "0.001")
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["agreement"]["within_tolerance"] is False


def test_verify_output_is_deterministic_apart_from_timing():
    first = run_cli("verify", "--samples", "20000")
    second = run_cli("verify", "--samples", "20000")
    assert first.returncode == second.returncode == 0
    da, db = json.loads(first.stdout), json.loads(second.stdout)
    da.pop("timing_ms")
    db.pop("timing_ms")
    assert dumps(da) == dumps(db)  # byte-identical apart from timing


def test_config_file_with_flag_overrides(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({"triangle": {"base": 2.0}, "samples": 500, "seed": 3})
    )
    proc = run_cli("simulate", "--config", str(config_path), "--samples", "750")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["config"]["triangle"]["base"] == 2
    assert doc["config"]["samples"] == 750
    assert doc["config"]["seed"] == 3


def test_unknown_config_field_rejected(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text('{"bogus": 1}')
    proc = run_cli("exact", "--config", str(config_path))
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


def test_missing_config_file():
    proc = run_cli("exact", "--config", "/nonexistent/place.json")
    assert proc.returncode == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("exact", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(target.read_text())
    assert round(doc["estimates"]["exact"]["p_hat"], 4) == 0.0162


def test_invalid_values_exit_2():
    assert run_cli("density", "--points", "1").returncode == 2
    assert run_cli("simulate", "--samples", "-5").returncode == 2
    assert run_cli("integrate", "--tol", "0").returncode == 2
    assert run_cli("simulate", "--method", "sorcery").returncode == 2
    assert run_cli("general", "--base", "-1").returncode == 2


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def _unconverged(problem, tolerance):
    return QuadratureResult(
        integral=1.0, probability=0.25, evaluations=7, tolerance=tolerance, converged=False
    )


@pytest.mark.parametrize("command", ["general", "integrate"])
def test_unconverged_quadrature_warns_on_stderr(command, monkeypatch, capsys):
    monkeypatch.setattr(cli, "probability_general", _unconverged)
    argv = [command, "--base", "2", "--method", "quadrature", "--tol", "1e-9"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["estimates"]["quadrature"]["p_hat"] == 0.25
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trichord: warning: quadrature did not converge")


def test_readme_general_example_converges_silently(capsys):
    argv = ["general", "--base", "2", "--height", "1.5", "--threshold", "0.8", "--method", "quadrature"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["details"]["quadrature_converged"] is True
    assert err == ""


@pytest.mark.parametrize("scale", ["1e-300", "1e-100", "1e100", "1e300"])
@pytest.mark.parametrize(
    "command", [("general", "--method", "quadrature"), ("integrate",), ("density",)]
)
def test_extreme_scales_run_without_traceback(command, scale):
    # The tolerance is absolute on the integral, so it scales with the base.
    tol = repr(1e-12 * float(scale))
    flags = ("--base", scale, "--height", scale, "--threshold", scale, "--tol", tol)
    proc = run_cli(*command, *flags)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    if command[0] == "density":
        alphas = [float(line.split(",")[1]) for line in proc.stdout.strip().split("\n")[1:]]
        assert alphas[0] == pytest.approx(3.0 * math.atan(2.0) - math.pi, abs=1e-14)
        assert alphas[100] == 0.0
    else:
        doc = json.loads(proc.stdout)
        assert doc["estimates"]["quadrature"]["p_hat"] == pytest.approx(P_EXACT, abs=1e-10)


def test_tolerance_below_roundoff_finishes_with_warning():
    # Before the roundoff stop, every piece split to the depth cap: a hang.
    flags = ("--method", "quadrature", "--base", "1e6", "--height", "1e6", "--threshold", "1e6")
    proc = subprocess.run(
        [sys.executable, "-m", "trichord", "general", *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "did not converge" in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["estimates"]["quadrature"]["p_hat"] == pytest.approx(P_EXACT, abs=1e-10)


def test_infinite_threshold_is_rejected_as_not_finite():
    proc = run_cli("integrate", "--threshold", "inf")
    assert proc.returncode == 2
    expected = "trichord: threshold must be a nonnegative finite length, got inf"
    assert proc.stderr.strip() == expected


@pytest.mark.parametrize(
    "command", [("simulate", "--samples", "1000"), ("general", "--method", "quadrature")]
)
def test_shape_beyond_float_range_is_one_line_error(command):
    # height / base underflows to 0, so no base-1 problem represents it.
    proc = run_cli(*command, "--base", "1e300", "--height", "1e-30")
    assert proc.returncode == 2
    expected = (
        "trichord: base 1e+300, height 1e-30 and threshold 1.0 "
        "span more than the floating-point range"
    )
    assert proc.stderr.strip() == expected
