"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys

import pytest

from trichord import ProbabilityEstimate, QuadratureResult, cli, probability_golden_ratio_form
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


def test_density_of_a_flat_shape_admits_every_direction_from_the_middle(capsys):
    # At base 1 the middle's depth rounds to 1, and the one cell [0, pi] has
    # the tangent direction, with a chord of exactly t, as its midpoint.
    argv = ["density", "--base", "1", "--height", "1e-9", "--threshold", "1e-9", "--points", "3"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    x, alpha = out.strip().split("\n")[2].split(",")
    assert (x, float(alpha)) == ("0", math.pi)


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


def _far_from_quadrature(problem, samples, seed):
    return ProbabilityEstimate.from_counts(samples // 2, samples, seed)


def test_general_reports_disagreement_and_still_exits_0(monkeypatch, capsys):
    monkeypatch.setattr(cli, "estimate", _far_from_quadrature)
    assert cli.main(["general", "--samples", "1000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    quadrature = doc["estimates"]["quadrature"]["p_hat"]
    montecarlo = doc["estimates"]["montecarlo"]["p_hat"]
    assert montecarlo == 0.5
    assert doc["agreement"] == {
        "max_abs_difference": abs(quadrature - montecarlo),
        "within_tolerance": False,
    }
    assert cli.main(["general", "--method", "quadrature"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] == {"max_abs_difference": 0.0, "within_tolerance": True}


@pytest.mark.parametrize(
    "threshold, successes",
    [("1.1", 0), ("0.0001", 1000), ("5", 0), ("0", 1000)],
    ids=["no-success", "all-successes", "p0", "p1"],
)
def test_general_judges_monte_carlo_at_the_quadrature_probability(threshold, successes, capsys):
    # p is 2.86e-4 at cutoff 1.1 and 0.9999 at 0.0001, so 1000 samples
    # count no success or all of them.  The estimate's own standard error
    # is then 0; the binomial sigma at the quadrature's p is not.  At cutoff
    # 5 and 0, p is 0 and 1, that sigma is 0 too, and the exact count agrees.
    argv = ["general", "--threshold", threshold, "--samples", "1000", "--seed", "1"]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimates"]["montecarlo"]["successes"] == successes
    assert doc["estimates"]["montecarlo"]["std_error"] == 0.0
    assert doc["agreement"]["within_tolerance"] is True


_BILLION = 10**9


def _counting(successes):
    """An ``estimate`` stand-in whose Monte Carlo run counts ``successes``."""

    def counted(problem, samples, seed):
        return ProbabilityEstimate.from_counts(successes, samples, seed)

    return counted


# At 10^9 samples the unit p's 4-sigma allowance is 1.6e-5; the first count
# past it errs by 8.5e-10 more, which a 1e-8 floor would forgive.
_P_UNIT = probability_golden_ratio_form()
_SIGMA_UNIT = math.sqrt(_P_UNIT * (1.0 - _P_UNIT) / _BILLION)
_PAST_4_SIGMA = math.floor((_P_UNIT + 4.0 * _SIGMA_UNIT) * _BILLION) + 1


@pytest.mark.parametrize(
    "successes, within",
    [(_PAST_4_SIGMA, False), (round(_P_UNIT * _BILLION), True)],
    ids=["past-4-sigma", "inside"],
)
def test_one_monte_carlo_count_gets_one_verdict_in_general_and_verify(
    successes, within, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "estimate", _counting(successes))
    assert cli.main(["general", "--samples", str(_BILLION)]) == 0
    general = json.loads(capsys.readouterr().out)["agreement"]["within_tolerance"]
    assert cli.main(["verify", "--samples", str(_BILLION)]) == (0 if within else 3)
    verify = json.loads(capsys.readouterr().out)["agreement"]["within_tolerance"]
    assert general is verify is within


@pytest.mark.parametrize(
    "threshold, successes, within",
    [("0", _BILLION, True), ("0", _BILLION - 1, False), ("5", 0, True), ("5", 1, False)],
    ids=["p1-all", "p1-one-failure", "p0-none", "p0-one-success"],
)
def test_monte_carlo_agrees_at_p_0_or_1_only_on_an_exact_count(
    threshold, successes, within, monkeypatch, capsys
):
    # Every chord exceeds cutoff 0 and none exceeds 5, so p is 1 or 0 and
    # sigma is 0: one stray count in 10^9 is 1e-9 off, and no floor forgives it.
    monkeypatch.setattr(cli, "estimate", _counting(successes))
    assert cli.main(["general", "--threshold", threshold, "--samples", str(_BILLION)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimates"]["quadrature"]["p_hat"] == (1.0 if threshold == "0" else 0.0)
    assert doc["agreement"]["within_tolerance"] is within


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


def test_out_into_missing_directory_is_one_line_error(tmp_path):
    proc = run_cli("exact", "--out", str(tmp_path / "missing" / "x.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trichord: ") and "x.json" in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "file_data, expected",
    [
        ({"triangle": {"base": "x"}}, "trichord: base must be a number, got 'x'"),
        ({"threshold": [1]}, "trichord: threshold must be a number, got [1]"),
        ({"threshold": True}, "trichord: threshold must be a number, got True"),
        ({"method": 5}, "trichord: method must be a string, got 5"),
    ],
    ids=["string", "list", "bool", "int-method"],
)
def test_config_value_of_wrong_type_names_its_field(tmp_path, file_data, expected):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(file_data))
    proc = run_cli("exact", "--config", str(config_path))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [expected]


def test_config_output_path_must_be_a_string(tmp_path, monkeypatch, capsys):
    # str() once turned this list into a file named "['a', 1]".
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"output_path": ["a", 1]}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["exact", "--config", str(config_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["trichord: output_path must be a string, got ['a', 1]"]
    assert list(tmp_path.iterdir()) == [config_path]


def test_invalid_values_exit_2():
    assert run_cli("density", "--points", "1").returncode == 2
    assert run_cli("simulate", "--samples", "-5").returncode == 2
    assert run_cli("integrate", "--tol", "0").returncode == 2
    assert run_cli("simulate", "--method", "sorcery").returncode == 2
    assert run_cli("general", "--base", "-1").returncode == 2


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate", "--samples", "abc"], "samples must be an integer, got 'abc'"),
        (["general", "--base", "x"], "base must be a number, got 'x'"),
        (["integrate", "--tol", "x"], "tolerance must be a number, got 'x'"),
        (["density", "--points", "2.5"], "density_points must be an integer, got '2.5'"),
        (
            ["general", "--method", "bogus"],
            "method must be one of ('exact', 'quadrature', 'montecarlo', 'all'), got 'bogus'",
        ),
        (["exact", "--format", "xml"], "output_format must be one of ('json', 'csv'), got 'xml'"),
        (["verify", "--perturb", "zz"], "perturb must be a number, got 'zz'"),
        (["exact", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate", "--samples"], "argument --samples: expected one argument"),
        ([], "the following arguments are required: command"),
        (
            ["bogus"],
            "argument command: invalid choice: 'bogus' (choose from 'exact', 'density', "
            "'integrate', 'simulate', 'general', 'verify')",
        ),
    ],
    ids=[
        "samples", "base", "tol", "points", "method", "format", "perturb",
        "unknown-flag", "missing-value", "no-command", "unknown-command",
    ],
)
def test_invalid_input_is_one_line_naming_the_problem(argv, expected):
    # Flag values go through the config-file checks, and argparse's own usage
    # errors print one line too, not a usage block.
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"trichord: {expected}"]


def test_help_exits_0():
    proc = run_cli("verify", "--help")
    assert proc.returncode == 0
    text = " ".join(proc.stdout.split())  # argparse wraps help lines
    assert "--perturb" in text and "exact, quadrature, montecarlo, all (default all)" in text


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def _unconverged(*args):
    # Stands in for either quadrature engine; the tolerance is the last argument.
    return QuadratureResult(
        integral=1.0, probability=0.25, evaluations=7, tolerance=args[-1], converged=False
    )


@pytest.mark.parametrize(
    "command, engine, shape",
    [
        ("general", "probability_general", ["--base", "2"]),
        ("integrate", "probability_general", ["--base", "2"]),
        ("integrate", "probability_by_quadrature", []),
    ],
    ids=["general", "integrate", "integrate-unit"],
)
def test_unconverged_quadrature_warns_on_stderr(command, engine, shape, monkeypatch, capsys):
    monkeypatch.setattr(cli, engine, _unconverged)
    argv = [command, *shape, "--method", "quadrature", "--tol", "1e-9"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["estimates"]["quadrature"]["p_hat"] == 0.25
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trichord: warning: quadrature did not converge")


def test_verify_warns_when_its_quadrature_does_not_converge():
    proc = run_cli("verify", "--tol", "1e-300", "--samples", "1000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agreement"]["within_tolerance"] is True
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trichord: warning: quadrature did not converge")


def test_readme_general_example_converges_silently(capsys):
    argv = ["general", "--base", "2", "--height", "1.5", "--threshold", "0.8", "--method", "quadrature"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["details"]["quadrature_converged"] is True
    assert err == ""


# At the subnormal base 1e-310, +-base/2 rounds in the density grid.
@pytest.mark.parametrize("scale", ["1e-300", "1e-100", "1e100", "1e300", "1e-310"])
@pytest.mark.parametrize(
    "command", [("general", "--method", "quadrature"), ("integrate",), ("density",)]
)
def test_extreme_scales_run_without_traceback(command, scale):
    # The default tolerance bounds pi * p at every scale, since the solve runs at base 1.
    proc = run_cli(*command, "--base", scale, "--height", scale, "--threshold", scale)
    assert proc.returncode == 0
    assert proc.stderr == ""
    if command[0] == "density":
        alphas = [float(line.split(",")[1]) for line in proc.stdout.strip().split("\n")[1:]]
        assert alphas[0] == pytest.approx(3.0 * math.atan(2.0) - math.pi, abs=1e-14)
        assert alphas[100] == 0.0
    else:
        doc = json.loads(proc.stdout)
        p_hat = doc["estimates"]["quadrature"]["p_hat"]
        assert p_hat == pytest.approx(P_EXACT, abs=1e-12 / math.pi)


@pytest.mark.parametrize(
    "command, height, threshold",
    [(("general", "--method", "quadrature"), "1e-320", "0.5"), (("density",), "1e-322", "1e-4")],
)
def test_extreme_shapes_run_without_error(command, height, threshold, capsys):
    # The tangency overflows, and hit distances near the base's ends
    # underflow.  The true density is up to about 2e-318 rad, mostly a gap
    # next to pi that pi's ulp cannot hold, so a row may read 0 or a
    # subnormal; it must lie between 0 and the arc model at 700 digits, up
    # to the model's own rounding there.  At x = -1/2 both read the base
    # angle, about 2h.
    argv = [*command, "--base", "1", "--height", height, "--threshold", threshold]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command[0] == "density":
        import mpmath
        from test_directions import _arc_measure

        with mpmath.workdps(700):
            for line in out.strip().split("\n")[1:]:
                x, alpha = (float(value) for value in line.split(","))
                shape = (0.5, float(height), float(threshold), x)
                bound = _arc_measure(*(mpmath.mpf(value) for value in shape))
                assert 0.0 <= alpha <= bound + mpmath.mpf("1e-690"), (x, alpha, bound)
    else:
        doc = json.loads(out)
        assert doc["estimates"]["quadrature"]["p_hat"] == 0.0
        assert doc["details"]["quadrature_converged"] is True


@pytest.mark.parametrize(
    "command, converged",
    [(("integrate",), "converged"), (("general", "--method", "quadrature"), "quadrature_converged")],
)
def test_default_tolerance_at_the_smallest_bases_converges(command, converged, capsys):
    # The solve runs at base 1 at the caller's tolerance, so the default
    # bounds p at a subnormal base as it does at base 1.
    flags = ("--base", "1e-322", "--height", "1e-322", "--threshold", "1e-322")
    assert cli.main([*command, *flags]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["estimates"]["quadrature"]["p_hat"] == pytest.approx(P_EXACT, abs=1e-12 / math.pi)
    assert doc["details"][converged] is True


def test_integrate_names_an_integral_that_overflows(capsys):
    # p is 1, so pi * p * base overflows; general reports p for the same shape.
    flags = ["--base", "1e308", "--height", "1", "--threshold", "0"]
    assert cli.main(["integrate", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "trichord: the integral over the base, pi * p * base, overflows at base 1e+308; "
        "general reports p\n"
    )
    assert cli.main(["general", "--method", "quadrature", *flags]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["estimates"]["quadrature"]["p_hat"] == 1.0


def test_density_with_a_cutoff_that_underflows_at_base_1(capsys):
    # 5e-324 / 2 rounds to 0: at base 1 there is no cutoff left.
    argv = ["density", "--base", "2", "--height", "1", "--threshold", "5e-324"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    alphas = {float(line.split(",")[1]) for line in out.strip().split("\n")[1:]}
    assert alphas == {math.pi}


def test_tolerance_below_roundoff_finishes_with_warning():
    # 1e-18 lies below the roundoff of pi * p, about 0.05.  Before the
    # roundoff stop, every piece split until floats no longer resolved its
    # panels: a hang.
    flags = ("--method", "quadrature", "--tol", "1e-18")
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


def test_tight_tolerance_converges_without_a_warning(capsys):
    # At 1e-14 each piece's share is a few ulps of the integral, so every
    # panel's estimate must get there.  An estimate floored at 50 ulps of the
    # rule applied to |f|, as QUADPACK's is, stays above the share, and 267 of
    # 1 300 benchmark sweep solves, this one among them, ended unconverged.
    argv = ["general", "--method", "quadrature", "--base", "2", "--height", "1.5"]
    assert cli.main([*argv, "--threshold", "0.8", "--tol", "1e-14"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["details"]["quadrature_converged"] is True


def test_tolerance_below_the_integrand_noise_finishes_with_one_warning():
    # 1e-20 lies below what direction sets resolve on this shape, where the
    # measure is about 2e-10 rad; before the evaluation cap this hung.
    flags = ("--method", "quadrature", "--height", "1e-9", "--threshold", "0.9", "--tol", "1e-20")
    proc = subprocess.run(
        [sys.executable, "-m", "trichord", "general", *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("trichord: warning: quadrature did not converge")
    doc = json.loads(proc.stdout)
    assert doc["estimates"]["quadrature"]["p_hat"] == pytest.approx(7.0735530263e-12, abs=1e-15)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_perturb_is_rejected_by_name(value):
    proc = run_cli("verify", "--samples", "1000", "--perturb", value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() == f"trichord: perturb must be a finite number, got {value}"


def test_infinite_threshold_is_rejected_as_not_finite():
    proc = run_cli("integrate", "--threshold", "inf")
    assert proc.returncode == 2
    expected = "trichord: threshold must be a nonnegative finite length, got inf"
    assert proc.stderr.strip() == expected


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--samples", "1000"),
        ("general", "--method", "quadrature"),
        ("exact",),
        ("density",),
    ],
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


_GENERAL = ["--base", "2", "--height", "1.5", "--threshold", "0.8"]
_QUADRATURE_DETAILS = ["integral", "evaluations", "converged"]
_GENERAL_DETAILS = ["quadrature_evaluations", "quadrature_converged"]


@pytest.mark.parametrize(
    "argv, estimates, details",
    [
        (["exact"], ["exact"], ["arctan_form", "golden_ratio_form", "difference"]),
        (["integrate"], ["quadrature"], _QUADRATURE_DETAILS),
        (["integrate", *_GENERAL], ["quadrature"], _QUADRATURE_DETAILS),
        (["simulate", "--samples", "1000"], ["montecarlo"], None),
        (["general", "--method", "quadrature"], ["quadrature"], _GENERAL_DETAILS),
        (
            ["general", "--method", "all", "--samples", "1000"],
            ["quadrature", "montecarlo"],
            _GENERAL_DETAILS,
        ),
        (
            ["verify", "--samples", "1000"],
            ["exact", "quadrature", "montecarlo"],
            [
                "quadrature_error",
                "quadrature_tolerance",
                "montecarlo_error",
                "montecarlo_allowance",
                "montecarlo_sigma",
            ],
        ),
    ],
    ids=[
        "exact", "integrate", "integrate-general", "simulate", "general", "general-all", "verify"
    ],
)
def test_report_layout_is_pinned(argv, estimates, details, capsys):
    # Reports are compared byte for byte apart from timing_ms values, so the
    # key order and the names each engine is timed under are part of the output.
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    top = ["config", "estimates", "agreement", "timing_ms", "tool_version"]
    assert list(doc) == (top if details is None else [*top, "details"])
    assert list(doc["estimates"]) == estimates
    assert list(doc["timing_ms"]) == estimates
    assert list(doc.get("details", {})) == (details or [])
