"""Metamorphic checks of the whole ``run`` path: symmetries of the model that
every layer (config, bath, exact evolution, flows, fidelity, CSV) must keep,
with no second implementation to compare against."""

import cmath
import warnings

import pytest

from oscbath.cli import EXIT_OK, cli_main


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
