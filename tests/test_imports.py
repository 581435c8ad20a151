"""NumPy and the Monte Carlo module load only when something samples."""

import subprocess
import sys

import pytest


def run_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def numpy_loaded_after(statement):
    return run_python(
        "import sys, io, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print('numpy' in sys.modules, 'trichord.montecarlo' in sys.modules)"
    )


def test_import_trichord_leaves_numpy_out():
    assert numpy_loaded_after("import trichord") == "False False"


@pytest.mark.parametrize(
    "argv",
    [
        ["exact"],
        ["integrate"],
        ["density", "--points", "5"],
        ["density", "--points", "5", "--base", "2", "--height", "1.5", "--threshold", "0.8"],
        ["general", "--method", "quadrature", "--height", "2"],
    ],
)
def test_commands_that_do_not_sample_leave_numpy_out(argv):
    statement = f"import trichord.cli; assert trichord.cli.main({argv!r}) == 0"
    assert numpy_loaded_after(statement) == "False False"


def test_simulate_loads_numpy():
    statement = "import trichord.cli; trichord.cli.main(['simulate', '--samples', '1000'])"
    assert numpy_loaded_after(statement) == "True True"


def test_lazy_names_are_the_montecarlo_ones():
    out = run_python(
        "import trichord, trichord.estimates\n"
        "assert trichord.montecarlo.BLOCK_SIZE == 65536\n"
        "print(trichord.estimate is trichord.montecarlo.estimate,\n"
        "      trichord.empirical_limit_angle is trichord.montecarlo.empirical_limit_angle,\n"
        "      trichord.montecarlo.Method is trichord.estimates.Method,\n"
        "      trichord.montecarlo.ProbabilityEstimate is trichord.ProbabilityEstimate)"
    )
    assert out == "True True True True"


def test_star_import_binds_every_public_name():
    out = run_python(
        "import trichord\n"
        "namespace = {}\n"
        "exec('from trichord import *', namespace)\n"
        "print(sorted(set(trichord.__all__) - set(namespace)))"
    )
    assert out == "[]"


def test_unknown_attribute_still_raises():
    import trichord

    with pytest.raises(AttributeError):
        trichord.no_such_name


def test_import_trichord_loads_no_submodule():
    out = run_python(
        "import sys, trichord\n"
        "print(sorted(name for name in sys.modules if name.startswith('trichord.')))"
    )
    assert out == "[]"


def test_montecarlo_loads_no_quadrature_code():
    out = run_python(
        "import sys, trichord.montecarlo\n"
        "print(sorted(name for name in sys.modules if name.startswith('trichord')))\n"
        "import trichord.directions, trichord.geometry\n"
        "print(trichord.directions.ChordProblem is trichord.geometry.ChordProblem)"
    )
    loaded = ["trichord", "trichord.errors", "trichord.estimates", "trichord.geometry"]
    assert out.split("\n") == [str([*loaded, "trichord.montecarlo"]), "True"]


def test_each_public_name_is_its_defining_modules_object():
    import importlib

    import trichord

    for name in trichord.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"trichord.{trichord._EXPORTS[name]}")
        assert getattr(trichord, name) is getattr(module, name), name
        assert getattr(module, name).__module__ == module.__name__, name


def test_submodules_resolve_as_attributes():
    out = run_python(
        "import sys, trichord\n"
        "print(trichord.directions is sys.modules['trichord.directions'],\n"
        "      trichord.montecarlo is sys.modules['trichord.montecarlo'])"
    )
    assert out == "True True"


def test_dir_covers_all():
    import trichord

    assert set(trichord.__all__) <= set(dir(trichord))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--samples", "1000"],
        ["verify", "--samples", "1000"],
        ["general", "--method", "montecarlo", "--samples", "1000"],
    ],
)
def test_montecarlo_timer_starts_after_numpy_loads(argv):
    out = run_python(
        "import sys, io, contextlib\n"
        "import trichord.cli as cli\n"
        "timed, started = cli._timed, []\n"
        "def spy(timing, name, *rest):\n"
        "    started.append((name, {'numpy', 'numpy.random'} <= set(sys.modules)))\n"
        "    return timed(timing, name, *rest)\n"
        "cli._timed = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({argv!r})\n"
        "print([loaded for name, loaded in started if name == 'montecarlo'])"
    )
    assert out == "[True]"
