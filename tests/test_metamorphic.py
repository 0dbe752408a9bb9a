"""Metamorphic checks of the whole ``run`` path: symmetries of the model that
every layer (config, bath, exact evolution, flows, fidelity, CSV) must keep,
with no second implementation to compare against."""

import cmath
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_config_cli import runnable_configs

from oscbath.bath import OhmicSpectrum, omega_range
from oscbath.cli import EXIT_OK, cli_main
from oscbath.config import ConfigError, ScenarioConfig, config_text, validate


def run_rows(text, out):
    """(sweep_param, sweep_value, t, quantity, value) rows of the one CSV ``run`` writes."""
    out.mkdir()
    path = out / "run.cfg"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # validity warnings at some default-grid points
        assert cli_main(["run", str(path), "--out", str(out)]) == EXIT_OK
    (csv,) = out.glob("*.csv")
    lines = [line for line in csv.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "sweep_param,sweep_value,t,quantity,value"
    return [tuple(line.split(",")) for line in lines[1:]]


def driven_config(s):
    """A driven_suite config on the default detuning and Rabi grids, frequencies times s."""
    return f"""
[scenario]
kind = driven

[system]
omega = {1.0 * s!r}
initial = thermal
initial_temperature = {0.5 * s!r}

[spectrum]
alpha = 0.01
omega_c = {3.0 * s!r}

[bath]
modes = 16
range_mode = floor
range_floor = {0.1 * s!r}
temperature = {0.2 * s!r}

[drive]
rabi = {0.3 * s!r}
omega_l = {1.1125 * s!r}

[time]
t_max = {20.0 / s!r}
samples = 4

[output]
experiments = driven_suite
"""


def test_driven_suite_is_invariant_under_unit_scaling(tmp_path):
    # every frequency times 2 and t times 1/2 is a change of units: the
    # default grids are in units of Omega, so each fidelity is bit-identical
    rows = run_rows(driven_config(1), tmp_path / "s1")
    scaled = run_rows(driven_config(2), tmp_path / "s2")
    assert len(rows) == len(scaled) == 3 * (4 + 12 + 6)
    for (param, _, t, quantity, value), row in zip(rows, scaled):
        assert (row[0], row[3], row[4]) == (param, quantity, value)
        assert float(row[2]) == float(t) / 2


def two_oscillator_config(initial, temperatures):
    return f"""
[scenario]
kind = two_coupled

[system]
omega = 1
omega2 = 1
beta = 0.05
initial = {initial}
initial_temperature = 2
initial_coherent_re = 0.6
initial_coherent_im = -0.3

[spectrum]
alpha = 0.005
omega_c = 3

[bath]
modes = 40
range_mode = floor
range_floor = 0.1
temperature = {temperatures[0]}
temperature2 = {temperatures[1]}

[time]
t_max = 30
samples = 4

[output]
experiments = two_oscillator_suite
"""


@pytest.mark.parametrize("initial", ["thermal", "vacuum", "coherent"])
def test_two_oscillator_suite_is_invariant_under_swapping_the_baths(initial, tmp_path):
    # the pair has equal frequencies and a symmetric start, so mirroring it
    # exchanges only the two bath temperatures
    rows = run_rows(two_oscillator_config(initial, (1.0, 0.1)), tmp_path / "a")
    swapped = run_rows(two_oscillator_config(initial, (0.1, 1.0)), tmp_path / "b")
    assert len(rows) == len(swapped) == 3 * 4 + 2 * 7
    for row, mirror in zip(rows, swapped):
        assert mirror[:4] == row[:4]
        assert abs(float(mirror[4]) - float(row[4])) <= 1e-12


def coherent_config(phase, experiment, parameter, values):
    """A single-oscillator run from the coherent start 0.8 e^{i phase}."""
    alpha = 0.8 * cmath.exp(1j * phase)
    return f"""
[scenario]
kind = single

[system]
omega = 1
initial = coherent
initial_coherent_re = {alpha.real!r}
initial_coherent_im = {alpha.imag!r}

[spectrum]
alpha = 0.01
omega_c = 3

[bath]
modes = 40
range_mode = floor
range_floor = 0.1
temperature = 0.5

[time]
t_max = 40
samples = 6

[sweep]
parameter = {parameter}
values = {values}

[output]
experiments = {experiment}
"""


@pytest.mark.parametrize("experiment, parameter, values", [
    ("fidelity_vs_time", "temperature", "0, 0.3, 2"),
    ("recurrence_map", "modes", "20, 40, 60"),
], ids=["fidelity_vs_time", "recurrence_map"])
def test_undriven_outputs_are_invariant_under_rotating_the_coherent_phase(
        experiment, parameter, values, tmp_path):
    # the bath couples by exchange of quanta and no drive sets a phase, so
    # turning the start by e^{i phi} turns the exact and the Markovian states
    # alike, and no distance between them moves
    rows = run_rows(coherent_config(0.0, experiment, parameter, values), tmp_path / "p0")
    for k, phase in enumerate((0.7, 2.0, -2.5)):
        turned = run_rows(coherent_config(phase, experiment, parameter, values),
                          tmp_path / f"p{k + 1}")
        assert len(turned) == len(rows) == 3 * 6
        for row, other in zip(rows, turned):
            assert other[:4] == row[:4]
            assert abs(float(other[4]) - float(row[4])) <= 1e-12


# the fields and swept parameters that carry a frequency (temperatures included,
# with hbar = k_B = 1); alpha, squeezing, amplitudes and bath sizes carry none
FREQUENCY_FIELDS = ("omega", "omega2", "beta", "initial_temperature", "omega_c", "range_floor",
                    "temperature", "rabi", "omega_l")
SWEPT_FREQUENCIES = ("temperature", "beta", "detuning", "rabi")


def in_units(config, s):
    """``config`` with every frequency times s and every time over s (s a power of 2)."""
    changes = {name: getattr(config, name) * s for name in FREQUENCY_FIELDS}
    if config.temperature2 >= 0:  # < 0 means "as temperature"
        changes["temperature2"] = config.temperature2 * s
    if config.sweep_parameter in SWEPT_FREQUENCIES:
        changes["sweep_values"] = tuple(v * s for v in config.sweep_values)
    return replace(config, t_max=config.t_max / s, **changes)


@st.composite
def small_runnable_configs(draw):
    """Runnable configs of at most 40 bath modes and 6 samples, whose frequencies stay
    finite when doubled; without correlation_study, whose kernels carry units."""
    config = draw(runnable_configs())
    modes = config.sweep_parameter == "modes"
    config = replace(
        config, bath_modes=min(config.bath_modes, 40), samples=min(config.samples, 6),
        omega2=max(min(config.omega2, 1e300), -1e300),
        temperature2=min(config.temperature2, 1e300),
        sweep_values=tuple(min(v, 40) for v in config.sweep_values) if modes
        else config.sweep_values,
        experiments=tuple(e for e in config.experiments if e != "correlation_study"))
    try:
        validate(config)
    except ConfigError:
        assume(False)
    return config


def bath_window(config, alpha):
    """(omega_1, omega_max) of the bath ``run`` discretizes at ``alpha``; None if it fails."""
    try:
        return omega_range(OhmicSpectrum(alpha, config.omega_c), config.range_mode,
                           floor=config.range_floor)
    except ArithmeticError:
        return None


def run_csvs(config, out):
    """The exit code of ``run`` on ``config`` and the rows of each CSV it writes."""
    out.mkdir()
    path = out / "run.cfg"
    path.write_text(config_text(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(["run", str(path), "--out", str(out)])
    return code, {csv.name: [tuple(line.split(",")) for line in csv.read_text().splitlines()
                             if not line.startswith("#")] for csv in out.glob("*.csv")}


@pytest.mark.xfail(strict=True, reason="omega_range stops its search for omega_max at an "
                   "absolute tolerance, so some windows miss the factor 2 by a few ulps")
def test_bath_window_doubles_with_the_units():
    config = replace(ScenarioConfig(), alpha=0.01, omega_c=1.0, range_mode="floor",
                     range_floor=0.01)
    w1, w_max = bath_window(config, config.alpha)
    assert bath_window(in_units(config, 2.0), config.alpha) == (2 * w1, 2 * w_max)


@settings(max_examples=20, deadline=None)
@given(small_runnable_configs())
def test_runnable_configs_are_invariant_under_unit_scaling(config):
    # doubling is exact in floating point, so every dimensionless number a run
    # forms is the same float: the values are bit-identical, the times halve.
    # Where the bath window itself misses the factor 2 (the xfail above, about
    # 2% of floor windows), every row moves with it, so those draws are left out
    alphas = config.sweep_values if config.sweep_parameter == "alpha" else (config.alpha,)
    if config.bath_modes or config.sweep_parameter == "modes":
        for alpha in alphas:
            window = bath_window(config, alpha)
            assume(bath_window(in_units(config, 2.0), alpha)
                   == (window and (2 * window[0], 2 * window[1])))
    with tempfile.TemporaryDirectory() as tmp:
        code, csvs = run_csvs(config, Path(tmp) / "s1")
        scaled_code, scaled = run_csvs(in_units(config, 2.0), Path(tmp) / "s2")
    assert scaled_code == code
    assert scaled.keys() == csvs.keys()
    for name, rows in csvs.items():
        assert len(scaled[name]) == len(rows)
        for (param, value, t, quantity, v), row in zip(rows[1:], scaled[name][1:]):
            assert (row[0], row[3], row[4]) == (param, quantity, v)
            assert float(row[2]) == float(t) / 2
            scale = 2.0 if param in SWEPT_FREQUENCIES else 1.0
            assert row[1] == value or float(row[1]) == scale * float(value)
