"""Tests for configuration handling, serialization, and density profiles."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from trichord import (
    Agreement,
    ChordProblem,
    ExperimentConfig,
    ExperimentReport,
    IsoscelesTriangle,
    Method,
    ProbabilityEstimate,
    base_grid,
    cli,
    density_profile,
    limit_angle,
    parse_density_csv,
)
from trichord.reports import config_from_sources, dumps, format_float


def test_format_float_round_trips():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.0**-1074, 0.016212872164880516]
    for value in values:
        assert float(format_float(value)) == value


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(math.inf)
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_dumps_round_trips_shapes():
    doc = {"a": 1, "b": [1.5, None, True, False], "c": {"nested": "text"}, "d": []}
    assert json.loads(dumps(doc)) == doc


def test_dumps_is_deterministic():
    doc = {"x": 0.1, "y": [1, 2, {"z": 1e-12}]}
    assert dumps(doc) == dumps(doc)


def test_config_defaults():
    config = ExperimentConfig()
    assert config.triangle == IsoscelesTriangle(1.0, 1.0)
    assert config.threshold == 1.0
    assert config.method == "all"
    assert config.samples == 1_000_000
    assert config.seed == 0
    assert config.tolerance == 1e-12
    assert config.density_points == 201
    assert config.output_format == "json"
    assert config.output_path is None


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(threshold=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(method="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(samples=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(density_points=1)
    with pytest.raises(ValueError):
        ExperimentConfig(output_format="yaml")
    # bool is an int subclass, but neither value is a count.
    with pytest.raises(ValueError, match="^samples must be a positive integer, got True$"):
        ExperimentConfig(samples=True)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got False$"):
        ExperimentConfig(seed=False)


def test_config_to_dict_shape():
    doc = ExperimentConfig().to_dict()
    assert doc["triangle"] == {"base": 1.0, "height": 1.0}
    assert list(doc) == [
        "triangle",
        "threshold",
        "method",
        "samples",
        "seed",
        "tolerance",
        "density_points",
        "output_format",
        "output_path",
    ]


def test_config_merge_precedence():
    file_data = {"triangle": {"base": 2.0, "height": 3.0}, "samples": 50, "seed": 7}
    config = config_from_sources(file_data, {"base": 4.0, "samples": 99})
    assert config.triangle.base == 4.0  # flag wins
    assert config.triangle.height == 3.0  # file value kept
    assert config.samples == 99
    assert config.seed == 7
    assert config.threshold == 1.0  # default


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError):
        config_from_sources({"bogus": 1}, {})
    with pytest.raises(ValueError):
        config_from_sources({"triangle": {"radius": 1.0}}, {})


def test_config_accepts_exact_float_integers():
    config = config_from_sources({"samples": 1e6}, {})
    assert config.samples == 1_000_000
    with pytest.raises(ValueError):
        config_from_sources({"samples": 10.5}, {})


def test_config_accepts_decimal_integer_strings():
    # Flag values reach config_from_sources as text, so file values may too.
    assert config_from_sources({"samples": "100"}, {}).samples == 100
    with pytest.raises(ValueError, match=r"^samples must be an integer, got '10\.5'$"):
        config_from_sources({"samples": "10.5"}, {})


@pytest.mark.parametrize(
    "file_data, field_name",
    [
        ({"triangle": {"base": "x"}}, "base"),
        ({"triangle": {"height": False}}, "height"),
        ({"threshold": [1]}, "threshold"),
        ({"threshold": True}, "threshold"),
        ({"tolerance": {"a": 1}}, "tolerance"),
    ],
    ids=["string", "false", "list", "true", "object"],
)
def test_config_float_field_of_wrong_type_is_named(file_data, field_name):
    with pytest.raises(ValueError, match=f"^{field_name} must be a number, got "):
        config_from_sources(file_data, {})


@pytest.mark.parametrize(
    "file_data, expected",
    [
        ({"output_path": ["a", 1]}, "output_path must be a string, got ['a', 1]"),
        ({"method": 5}, "method must be a string, got 5"),
        ({"output_format": True}, "output_format must be a string, got True"),
    ],
    ids=["list", "int", "bool"],
)
def test_config_string_field_of_wrong_type_is_named(file_data, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        config_from_sources(file_data, {})


def test_config_accepts_numeric_strings_for_floats():
    config = config_from_sources({"triangle": {"height": "2.5"}, "threshold": "0.5"}, {})
    assert config.triangle.height == 2.5
    assert config.threshold == 0.5


def test_config_round_trips_through_to_dict():
    defaults = ExperimentConfig()
    config = ExperimentConfig(
        triangle=IsoscelesTriangle(2.0, 1.5),
        threshold=0.8,
        method="quadrature",
        samples=5000,
        seed=3,
        tolerance=1e-10,
        density_points=7,
        output_format="csv",
        output_path="report.csv",
    )
    for f in fields(ExperimentConfig):
        assert getattr(config, f.name) != getattr(defaults, f.name), f.name
    assert config_from_sources(config.to_dict(), {}) == config


@pytest.mark.parametrize(
    "command", ["exact", "density", "integrate", "simulate", "general", "verify"]
)
def test_every_config_field_is_a_flag_dest(command):
    # config_from_sources reads the parsed flags by field name, so a renamed
    # dest would silently stop overriding its field.
    dests = set(vars(cli.build_parser().parse_args([command])))
    names = {f.name for f in fields(ExperimentConfig)} - {"triangle"}
    assert names | {"base", "height"} <= dests


def test_readme_example_config_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Example config file:\s*```json\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    assert config_from_sources(json.loads(block.group(1)), {}) == ExperimentConfig()


def test_base_grid_symmetric_and_ascending():
    xs = base_grid(1.0, 201)
    assert xs[0] == -0.5
    assert xs[-1] == 0.5
    assert xs[100] == 0.0
    for i in range(201):
        assert xs[i] == -xs[200 - i]  # bit-exact mirror
    assert all(left < right for left, right in zip(xs, xs[1:]))


def test_base_grid_even_count():
    xs = base_grid(2.0, 10)
    assert len(xs) == 10
    assert xs[0] == -1.0
    assert xs[-1] == 1.0
    for i in range(10):
        assert xs[i] == -xs[9 - i]


def test_base_grid_validation():
    with pytest.raises(ValueError):
        base_grid(1.0, 1)


def test_density_profile_unit_matches_closed_form():
    profile = density_profile(ChordProblem(), 5)
    assert [row[0] for row in profile.rows] == [-0.5, -0.25, 0.0, 0.25, 0.5]
    for x, alpha in profile.rows:
        assert alpha == limit_angle(x)


def test_density_profile_symmetry_is_exact():
    rows = density_profile(ChordProblem(), 41).rows
    for i in range(41):
        assert rows[i][1] == rows[40 - i][1]  # bit-exact


def test_density_profile_zero_threshold_is_flat():
    profile = density_profile(ChordProblem(IsoscelesTriangle(), 0.0), 5)
    for _, alpha in profile.rows:
        assert alpha == math.pi


def test_density_profile_general_configuration():
    problem = ChordProblem(IsoscelesTriangle(2.0, 1.0), 0.9)
    profile = density_profile(problem, 9)
    assert len(profile.rows) == 9
    for _, alpha in profile.rows:
        assert 0.0 <= alpha <= math.pi


def test_density_csv_round_trip():
    profile = density_profile(ChordProblem(), 33)
    text = profile.to_csv()
    assert text.startswith("x,alpha\n")
    assert text.endswith("\n")
    assert parse_density_csv(text) == profile  # float-exact round trip


def test_parse_density_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_density_csv("a,b\n1,2\n")


def _sample_report():
    return ExperimentReport(
        config=ExperimentConfig(),
        estimates={
            "exact": ProbabilityEstimate.from_value(0.0162, Method.EXACT),
            "montecarlo": ProbabilityEstimate.from_counts(162, 10_000, seed=3),
        },
        agreement=Agreement(1e-4, True),
        timing_ms={"exact": 0.012, "montecarlo": 4.5},
        tool_version="0.1.0",
        details={"note": 1.25},
    )


def test_report_round_trips_through_json():
    report = _sample_report()
    parsed = json.loads(report.to_json())
    assert parsed == report.to_dict()


def test_report_dict_shape():
    doc = _sample_report().to_dict()
    assert list(doc) == [
        "config",
        "estimates",
        "agreement",
        "timing_ms",
        "tool_version",
        "details",
    ]
    assert doc["estimates"]["montecarlo"]["successes"] == 162
    assert doc["estimates"]["exact"]["method"] == "exact"
    assert doc["agreement"]["within_tolerance"] is True


def test_report_csv_lists_estimates():
    lines = _sample_report().to_csv().strip().split("\n")
    assert lines[0] == "method,p_hat,std_error,ci_low,ci_high,samples,successes,seed"
    assert len(lines) == 3
    assert lines[1].startswith("exact,")
    assert lines[2].startswith("montecarlo,")
