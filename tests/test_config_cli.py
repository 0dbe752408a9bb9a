import ast
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from conftest import alarm_after
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oscbath
from oscbath import cli, experiments, fock
from oscbath import config as config_module
from oscbath.bath import bose_occupation
from oscbath.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli_main
from oscbath.config import (DEFAULT_DETUNING_GRID, DRIVE_VARIANTS, EXPERIMENTS,
                            INITIAL_STATES, SCENARIOS, ConfigError,
                            ScenarioConfig, config_text, evaluations, parse_config,
                            sweep_points, validate)
from oscbath.exact import ReducedPropagator
from oscbath.experiments import ExperimentResult, _compare, _times, config_from_csv
from oscbath.flows import markov_flows, steady_state
from oscbath.gaussian import GaussianState, make_squeezed_vacuum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RANGE_MODES = ("equal_tails", "floor")  # the modes bath.omega_range takes

SMALL_RUN = """
[scenario]
kind = single

[system]
omega = 1
initial = thermal
initial_temperature = 5

[spectrum]
alpha = 0.01
omega_c = 3

[bath]
modes = 12
range_mode = floor
range_floor = 0.1
temperature = 0.5

[time]
t_max = 8
samples = 12

[sweep]
parameter = temperature
values = 0.1, 1

[output]
experiments = fidelity_vs_time
"""

# a drive at exact resonance omega_l = Omega, with a bath
RESONANT_DRIVEN = """
[scenario]
kind = driven

[system]
omega = 1
initial = vacuum

[spectrum]
alpha = 0.01
omega_c = 3

[bath]
modes = 12
temperature = 0

[drive]
rabi = 0.1
omega_l = 1
variant = plain

[time]
t_max = 5
samples = 4

[output]
experiments = driven_suite
"""

NO_SWEEP = SMALL_RUN.replace("[sweep]\nparameter = temperature\nvalues = 0.1, 1\n", "")

# Omega/omega_c = 720: gamma = pi J(Omega) is about 4.6e-313, still positive, and
# Ei(720) overflows, but the shift alpha*Omega*exp(-x)*Ei(x) - alpha*omega_c does not
FAR_TAIL = """
[scenario]
kind = single

[system]
omega = 720

[spectrum]
alpha = 0.001
omega_c = 1

[bath]
modes = 20

[time]
t_max = 8
samples = 3

[output]
experiments = variance_trajectory
"""

RECURRENCE_RUN = (SMALL_RUN.replace("parameter = temperature", "parameter = modes")
                  .replace("values = 0.1, 1", "values = 12, 20")
                  .replace("= fidelity_vs_time", "= recurrence_map"))

BAD_RUNS = {
    "t_max_nan": SMALL_RUN.replace("t_max = 8", "t_max = nan"),
    "squeeze_nan": SMALL_RUN.replace("initial = thermal",
                                     "initial = squeezed\ninitial_squeeze = nan")
                            .replace("= fidelity_vs_time", "= variance_trajectory"),
    "alpha_inf": SMALL_RUN.replace("alpha = 0.01", "alpha = inf"),
    "temperature_nan": SMALL_RUN.replace("temperature = 0.5", "temperature = nan"),
    "sweep_value_nan": SMALL_RUN.replace("values = 0.1, 1", "values = 0.1, nan"),
    "one_bath_mode": SMALL_RUN.replace("modes = 12", "modes = 1"),
    # the equal_tails window starts at omega_c / 1000, a constant, not a key
    "range_omega_min_is_an_unknown_key": SMALL_RUN.replace(
        "range_mode = floor", "range_mode = equal_tails\nrange_omega_min = 0.003"),
    "resonant_driven_suite": RESONANT_DRIVEN,
    "resonant_fidelity_vs_time": RESONANT_DRIVEN.replace("= driven_suite",
                                                         "= fidelity_vs_time"),
    "resonant_swept_detuning": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2")
    + "\n[sweep]\nparameter = detuning\nvalues = -0.1, 0\n",
    # refused as with a bath: the off_resonant and no_secular expansions divide by
    # the detuning
    "resonant_driven_suite_without_bath": RESONANT_DRIVEN.replace("modes = 12", "modes = 0"),
    "unknown_swept_variant": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2")
    .replace("= driven_suite", "= fidelity_vs_time")
    + "\n[sweep]\nparameter = variant\nvalues = plain, bogus\n",
    # no experiment evaluates the config's own variant, but it must name one
    "unknown_config_variant": RESONANT_DRIVEN.replace("variant = plain", "variant = bogus"),
    "equation_sweep": SMALL_RUN.replace("parameter = temperature", "parameter = equation")
    .replace("values = 0.1, 1", "values = small_beta, large_beta"),
    "factorization_without_bath": SMALL_RUN.replace("modes = 12", "modes = 0")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    # sweep points are configs too: each must pass what the base config must
    "swept_beta_above_omega": SMALL_RUN.replace("kind = single", "kind = two_coupled")
    .replace("parameter = temperature", "parameter = beta")
    .replace("values = 0.1, 1", "values = 0.1, 1.5")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    "swept_beta_negative": SMALL_RUN.replace("kind = single", "kind = two_coupled")
    .replace("parameter = temperature", "parameter = beta")
    .replace("values = 0.1, 1", "values = 0.1, -0.2")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    "swept_alpha_zero": SMALL_RUN.replace("parameter = temperature", "parameter = alpha")
    .replace("values = 0.1, 1", "values = 0.002, 0")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    "swept_detuning_below_minus_omega": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2")
    + "\n[sweep]\nparameter = detuning\nvalues = -0.1, -1\n",
    # the default detuning grid, in units of Omega, never reaches -Omega, but its points
    # are validated too: here its +0.5 Omega point puts omega_l at 2700, where the
    # no_secular decay rate underflows, while Omega and the config's omega_l pass
    "default_detunings_below_minus_omega": RESONANT_DRIVEN
    .replace("omega = 1\n", "omega = 1800\n").replace("omega_l = 1", "omega_l = 1890"),
    # each experiment's own rules: scenario, required sweep, per-point limits
    "wrong_scenario": SMALL_RUN.replace("= fidelity_vs_time",
                                        "= fidelity_vs_time, two_oscillator_suite"),
    "correlation_at_zero_temperature": NO_SWEEP.replace("temperature = 0.5", "temperature = 0")
    .replace("= fidelity_vs_time", "= correlation_study"),
    "recurrence_without_modes_sweep": NO_SWEEP.replace("= fidelity_vs_time",
                                                       "= recurrence_map"),
    "empty_modes_sweep": SMALL_RUN.replace("parameter = temperature", "parameter = modes")
    .replace("values = 0.1, 1", "values =").replace("= fidelity_vs_time", "= recurrence_map"),
    "two_coupled_unequal_frequencies": NO_SWEEP.replace("kind = single", "kind = two_coupled")
    .replace("omega = 1\n", "omega = 1\nomega2 = 1.5\n")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    "factorization_70_modes": NO_SWEEP.replace("modes = 12", "modes = 70")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    # the sweep has no column in variance_trajectory's CSV
    "unread_sweep": SMALL_RUN.replace("parameter = temperature", "parameter = alpha")
    .replace("values = 0.1, 1", "values = 0.002, 0.01")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "no_experiments": SMALL_RUN.replace("[output]\nexperiments = fidelity_vs_time\n", ""),
    # a value is read as written: % starts no interpolation
    "percent_in_value": SMALL_RUN.replace("omega = 1\n", "omega = 1%\n"),
    # the Markov rates a scenario's flows take must not underflow to 0
    "decay_rate_underflow": FAR_TAIL.replace("omega = 720", "omega = 800"),
    # the default beta grid reaches Omega + beta = 840
    "default_betas_underflow_decay_rate": FAR_TAIL.replace("kind = single", "kind = two_coupled")
    .replace("omega = 720", "omega = 700\nomega2 = 700")
    .replace("= variance_trajectory", "= two_oscillator_suite"),
    "no_secular_decay_rate_underflow_at_omega_l": RESONANT_DRIVEN.replace("omega_l = 1",
                                                                          "omega_l = 2500"),
    # nor may the emission rates 2 gamma (nbar + 1) overflow: at T/Omega = 1e20, the
    # occupation's 1 - exp(-Omega/T) rounds to 0
    "hot_bath": NO_SWEEP.replace("temperature = 0.5", "temperature = 1e20")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "hot_second_bath": NO_SWEEP.replace("kind = single", "kind = two_coupled")
    .replace("temperature = 0.5", "temperature = 0.5\ntemperature2 = 1e20")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    # |C(0, T)| ~ alpha T^2 pi^2/6 underflows to 0, so its half height is undefined
    "correlation_kernel_underflow": NO_SWEEP.replace("temperature = 0.5", "temperature = 1e-200")
    .replace("= fidelity_vs_time", "= correlation_study"),
    # nor overflow: alpha T omega_c at T = 1e307, alpha = 100, the kernel's high-T limit
    "correlation_kernel_overflow": NO_SWEEP.replace("temperature = 0.5", "temperature = 1e307")
    .replace("alpha = 0.01", "alpha = 100").replace("= fidelity_vs_time", "= correlation_study"),
    # nor the zero-temperature kernel: alpha omega_c^2 at omega_c = 1e300
    "correlation_kernel_c0_overflow": NO_SWEEP.replace("omega_c = 3", "omega_c = 1e300")
    .replace("= fidelity_vs_time", "= correlation_study"),
    # C(s, T) takes psi' at 1 + T/omega_c + i s T, and s T overflows at s = t_max
    "correlation_kernel_delays_overflow": NO_SWEEP.replace("temperature = 0.5",
                                                           "temperature = 1.7e308")
    .replace("= fidelity_vs_time", "= correlation_study"),
    # sqrt 2 alpha, each mean's largest entry, overflows
    "coherent_amplitude_overflows": NO_SWEEP.replace(
        "initial = thermal", "initial = coherent\ninitial_coherent_re = 1.7e308"),
    # finite inputs whose derived values overflow or vanish: pi alpha Omega e^{-Omega/omega_c}
    # and equal_tails' tail mass below omega_c / 1000; and a squeezed variance e^{2|r|} whose
    # rounding eps e^{2|r|} is beyond the accuracy of every variance
    "decay_rate_overflow": NO_SWEEP.replace("alpha = 0.01", "alpha = 1e308")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "squeeze_overflow": NO_SWEEP.replace("initial = thermal",
                                         "initial = squeezed\ninitial_squeeze = 1e272")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "equal_tails_mass_rounds_to_zero": NO_SWEEP.replace("omega_c = 3", "omega_c = 1e-318")
    .replace("range_mode = floor", "range_mode = equal_tails")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    # t_max times a bound on the frequencies of W, the exact states' phases, overflows;
    # at 5e306 only the equal_tails window (omega_max = 52.3, against 15.2 for the
    # floor) takes it past DBL_MAX
    "t_max_overflows_the_exact_phases": NO_SWEEP.replace("t_max = 8", "t_max = 1.7e308")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "t_max_5e306_overflows_the_phases": NO_SWEEP.replace("t_max = 8", "t_max = 5e306")
    .replace("range_mode = floor", "range_mode = equal_tails")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    # a bath whose J overflows is refused where J is taken: in the floor window's
    # equation, or in a coupling sqrt(J dw) of the equal_tails window
    "alpha_1e308_floor_window": SMALL_RUN.replace("omega_c = 3", "omega_c = 10")
    .replace("parameter = temperature", "parameter = alpha")
    .replace("values = 0.1, 1", "values = 0.002, 1e308")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    "alpha_1e308_equal_tails_couplings": SMALL_RUN.replace("omega_c = 3", "omega_c = 10")
    .replace("range_mode = floor", "range_mode = equal_tails")
    .replace("parameter = temperature", "parameter = alpha")
    .replace("values = 0.1, 1", "values = 0.002, 1e308")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    # or where the window's frequencies themselves overflow
    "omega_c_1e308_equal_tails_window": RECURRENCE_RUN.replace("omega_c = 3", "omega_c = 1e308")
    .replace("range_mode = floor", "range_mode = equal_tails"),
    "omega_c_1e308_floor_window": RECURRENCE_RUN.replace("omega_c = 3", "omega_c = 1e308"),
    "omega_c_1e200_couplings": RECURRENCE_RUN.replace("omega_c = 3", "omega_c = 1e200")
    .replace("range_mode = floor", "range_mode = equal_tails"),
    # and a floor window whose J(floor) underflows has no omega_max
    "alpha_5e-324_floor_window": SMALL_RUN.replace("parameter = temperature", "parameter = alpha")
    .replace("values = 0.1, 1", "values = 0.002, 5e-324")
    .replace("= fidelity_vs_time", "= factorization_distance"),
    # the reach 20/omega_c of the delays is checked before the kernels, whose C(0, T)
    # would read a false 0 here (it tends to alpha T omega_c)
    "correlation_reach_before_kernels": NO_SWEEP.replace("omega_c = 3", "omega_c = 1e-150")
    .replace("temperature = 0.5", "temperature = 1e200")
    .replace("= fidelity_vs_time", "= correlation_study"),
    # fig2 squeezed to r = 20: the squeezed variance e^{-40} lies far below the rounding
    # eps e^{40} ~ 52 of its partner
    "fig2_squeezed_to_20": (CONFIG_DIR / "fig2_variance.cfg").read_text()
    .replace("initial_squeeze = 0.5", "initial_squeeze = 20"),
    # and at r = 6.5, where eps e^{13} ~ 1e-10 but the exact variance misses a 40-digit
    # referee by 2.4e-10 at t = 30: its rounding grows with the phases lambda t
    "fig2_squeezed_to_6.5": (CONFIG_DIR / "fig2_variance.cfg").read_text()
    .replace("initial_squeeze = 0.5", "initial_squeeze = 6.5"),
    # flows whose rounding bound out to t_max exceeds the accuracy: fig3's Lamb shift
    # grows like alpha omega_c, so omega_bar ~ -1e18 at omega_c = 1e20 ...
    **{f"fig3_omega_c_{omega_c}": (CONFIG_DIR / "fig3_recurrence.cfg").read_text()
       .replace("omega_c = 3", f"omega_c = {omega_c}") for omega_c in ("1e20", "1e50", "1e100")},
    # ... and fig2 from the vacuum at alpha = 4.4e-16 (gamma ~ 1e-15) to t_max = 1e300 would
    # compound eps omega_bar for 1/gamma ~ 1e15, far short of the steady state
    "fig2_weakly_damped_to_1e300": (CONFIG_DIR / "fig2_variance.cfg").read_text()
    .replace("alpha = 0.01", "alpha = 4.4e-16")
    .replace("initial = squeezed\ninitial_squeeze = 0.5", "initial = vacuum")
    .replace("modes = 150", "modes = 20").replace("t_max = 30", "t_max = 1e300")
    .replace("samples = 300", "samples = 3"),
}

# what the message of a BAD_RUNS case must name, where that is pinned
BAD_RUN_MESSAGES = {
    "hot_bath": "the Bose occupation at nu = 1.0, T = 1e+20 overflows",
    "hot_second_bath": "the Bose occupation at nu = 1.0, T = 1e+20 overflows",
    "decay_rate_overflow": "pi*J(nu) at nu = 1.0 is not finite (alpha = 1e+308",
    "correlation_kernel_overflow": "correlation_study at temperature = 9.9999999999999999e+306: "
    "the correlation kernel C(0, T) at T = 1e+307 is inf: it must be finite and nonzero",
    "correlation_kernel_c0_overflow": "the correlation kernel C0(0) is inf: it must be finite "
    "and nonzero",
    "correlation_kernel_delays_overflow": "T = 1.7e+308 times the reach 8 of the kernel's delays "
    "s overflows",
    "coherent_amplitude_overflows": "the coherent amplitude |initial_coherent_re + i "
    "initial_coherent_im| = 1.7e+308 exceeds 6.356e+307",
    "squeeze_overflow": "variance_trajectory: initial_squeeze = 1e+272 exceeds 4.096 at "
    "t_max = 8.0: the rounding eps e^(2|r|) (1 + t_max lambda_max) of the exact variances, "
    "lambda_max = 15.5, exceeds the accuracy 1e-10",
    "fig2_squeezed_to_20": "initial_squeeze = 20.0 exceeds 3.438 at t_max = 30.0",
    "fig2_squeezed_to_6.5": "initial_squeeze = 6.5 exceeds 3.438 at t_max = 30.0",
    **{f"fig3_omega_c_{omega_c}": "recurrence_map at modes = 50: the flow (label True) is not "
       "accurate to 1e-10 out to t_max = 45.0: its rounding bound is "
       f"{bound} (alpha = 0.01, omega_c = {omega_c})"
       for omega_c, bound in (("1e+20", "3.39e+06"), ("1e+50", "3.39e+36"),
                              ("1e+100", "3.39e+86"))},
    "fig2_weakly_damped_to_1e300": "variance_trajectory: the flow (label True) is not accurate "
    "to 1e-10 out to t_max = 1e+300: its rounding bound is 3.88 (alpha = 4.4e-16, "
    "omega_c = 3.0)",
    "range_omega_min_is_an_unknown_key": "unknown key 'range_omega_min' in section [bath]",
    "equal_tails_mass_rounds_to_zero": "factorization_distance at alpha = 0.01: the spectral "
    "weight below omega_1 = omega_c/1000 rounds to 0 at omega_c = 1e-318",
    "t_max_overflows_the_exact_phases": "t_max = 1.7e+308 is too long for the exact "
    "evolution: t_max times the bound 15.5 on the frequencies of W overflows",
    "t_max_5e306_overflows_the_phases": "t_max = 5e+306 is too long for the exact evolution: "
    "t_max times the bound 52.5 on the frequencies of W overflows",
    "unknown_config_variant": "[drive] variant must be one of ('plain', 'off_resonant', "
    "'no_secular')",
    "alpha_1e308_floor_window": "factorization_distance at alpha = 1e+308: the bath window's "
    "equation for omega_max is inf at omega = 10: alpha = 1e+308, omega_c = 10.0",
    "alpha_1e308_equal_tails_couplings": "factorization_distance at alpha = 1e+308: a bath "
    "coupling sqrt(J dw) overflows: alpha = 1e+308, omega_c = 10.0",
    "omega_c_1e308_equal_tails_window": "the bath window's equation for omega_max is inf at "
    "omega = 1e+308: alpha = 0.01, omega_c = 1e+308",
    "omega_c_1e308_floor_window": "the bath window's equation for omega_max is nan at "
    "omega = inf: alpha = 0.01, omega_c = 1e+308",
    "omega_c_1e200_couplings": "a bath coupling sqrt(J dw) overflows: alpha = 0.01, "
    "omega_c = 1e+200",
    "alpha_5e-324_floor_window": "J(floor) at floor = 0.1 rounds to 0: alpha = 5e-324, "
    "omega_c = 3.0",
    "correlation_reach_before_kernels": "correlation_study at temperature = "
    "9.9999999999999997e+199: T = 1e+200 times the reach 2e+151 of the kernel's delays s "
    "overflows",
}

# the plain drive at, and 1e-13 from, Omega without a bath, which the exact side
# takes as it takes any drive: the bath-less mean grows secularly
RESONANT_WITHOUT_BATH = {
    "resonant_plain_without_bath": RESONANT_DRIVEN.replace("modes = 12", "modes = 0")
    .replace("= driven_suite", "= fidelity_vs_time")
    + "\n[sweep]\nparameter = variant\nvalues = plain\n",
}
RESONANT_WITHOUT_BATH["near_resonant_plain_without_bath"] = RESONANT_WITHOUT_BATH[
    "resonant_plain_without_bath"].replace("omega_l = 1", "omega_l = 1.0000000000001")

ORACLE_SINGLE = ("[oracle]\nfamily = single\ncutoff = 10\nt = 2\n"
                 "gamma = 0.08\nnbar = 0.2\nomega_bar = 1.0\n")

# one [oracle] key changed per case, except where a case sizes the work
BAD_ORACLES = {
    "cutoff_3": ORACLE_SINGLE.replace("cutoff = 10", "cutoff = 3"),
    # (cutoff + 1)^4 entries of vec(rho): refused before the initial state is built
    "cutoff_1000_two_small": ORACLE_SINGLE.replace("single", "two_small")
    .replace("cutoff = 10", "cutoff = 1000"),
    "gamma_zero": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = 0"),
    "gamma_not_a_number": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = abc"),
    "driven_negative_nbar": ORACLE_SINGLE.replace("single", "driven")
    .replace("nbar = 0.2", "nbar = -1"),
    "two_large_beta_above_omega": ORACLE_SINGLE.replace("single", "two_large") + "beta = 2\n",
    "t_nan": ORACLE_SINGLE.replace("t = 2", "t = nan"),
    "t_negative": ORACLE_SINGLE.replace("t = 2", "t = -1"),
    "t_percent": ORACLE_SINGLE.replace("t = 2", "t = 1%"),
    "unknown_key": ORACLE_SINGLE + "gama = 0.1\n",
    "key_of_another_family": ORACLE_SINGLE + "beta = 0.3\n",
    "no_section_header": ORACLE_SINGLE.replace("[oracle]\n", ""),
    # finite inputs that the referee would integrate without end or for minutes:
    # beyond its planned substeps or substeps x entries, or rates 2 gamma (nbar + 1)
    # that overflow
    "t_1e300": ORACLE_SINGLE.replace("t = 2", "t = 1e300"),
    "gamma_1e308": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = 1e308"),
    "gamma_above_cap": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = 1e6"),
    # ~5 600 substeps on all 524 176 entries of vec(rho): over 20 min if taken
    "driven_work_above_cap": ORACLE_SINGLE.replace("single", "driven")
    .replace("cutoff = 10", "cutoff = 723").replace("t = 2", "t = 100") + "omega_l = 0.8\n",
    # ~3 200 substeps on the 35 051 entries the moments read: about 40 s if taken
    "two_small_work_above_cap": ORACLE_SINGLE.replace("single", "two_small")
    .replace("cutoff = 10", "cutoff = 25").replace("gamma = 0.08", "gamma = 5")
    .replace("t = 2", "t = 14"),
}

# one small run of each experiment that evolves a flow
FLOW_RUNS = {
    "variance_trajectory": NO_SWEEP.replace("= fidelity_vs_time", "= variance_trajectory"),
    "fidelity_vs_time": SMALL_RUN,
    "recurrence_map": RECURRENCE_RUN,
    "two_oscillator_suite": NO_SWEEP.replace("kind = single", "kind = two_coupled")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    "driven_suite": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2"),
}

# runs whose every point validate and run must agree on: each flow run, a driven
# variant sweep, the two experiments that compare no master equation, a bath-less
# variance trajectory and every bundled config
PLAN_RUNS = {
    **FLOW_RUNS,
    "driven_fidelity_vs_time": FLOW_RUNS["driven_suite"]
    .replace("= driven_suite", "= fidelity_vs_time")
    + "\n[sweep]\nparameter = variant\nvalues = plain, no_secular\n",
    "correlation_study": SMALL_RUN.replace("= fidelity_vs_time", "= correlation_study"),
    "factorization_distance": NO_SWEEP.replace("= fidelity_vs_time", "= factorization_distance"),
    "bathless_variance_trajectory": FLOW_RUNS["variance_trajectory"]
    .replace("modes = 12", "modes = 0"),
    **{path.stem: path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))},
}


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SWEEP_VALUES = {
    "temperature": st.floats(0.0, 50.0), "modes": st.integers(0, 70),
    "beta": st.floats(0.0, 0.99), "alpha": st.floats(1e-4, 0.1),
    "detuning": st.floats(-0.9, 2.0), "rabi": st.floats(0.0, 1.0),
    "variant": st.sampled_from(DRIVE_VARIANTS),
}


@st.composite
def runnable_configs(draw):
    """Configs that validate accepts: experiments of one scenario and a sweep they read."""
    scenario = draw(st.sampled_from(SCENARIOS))
    names = [name for name, needs in EXPERIMENTS.items() if scenario in needs]
    experiments = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                                      unique=True)))
    reads = {p for name in experiments for p in EXPERIMENTS[name][scenario]} - {"none"}
    parameter = draw(st.sampled_from(["none", *sorted(reads)]))
    values = () if parameter == "none" else tuple(
        draw(st.lists(SWEEP_VALUES[parameter], min_size=1, max_size=4)))
    omega = draw(st.floats(1.0, 3.0))
    config = ScenarioConfig(
        scenario=scenario, omega=omega,
        omega2=omega if scenario == "two_coupled" else draw(FINITE),
        beta=draw(st.floats(0.0, 0.99)), initial=draw(st.sampled_from(INITIAL_STATES)),
        initial_temperature=draw(st.floats(0.0, 50.0)), initial_squeeze=draw(FINITE),
        initial_coherent_re=draw(FINITE), initial_coherent_im=draw(FINITE),
        alpha=draw(st.floats(1e-4, 0.1)), omega_c=draw(st.floats(1.0, 10.0)),
        bath_modes=draw(st.sampled_from([0, 2, 3, 40, 60, 150])),
        range_mode=draw(st.sampled_from(RANGE_MODES)),
        range_floor=draw(st.floats(1e-6, 0.99)),
        temperature=draw(st.floats(0.0, 50.0)), temperature2=draw(FINITE),
        rabi=draw(st.floats(0.0, 1.0)), omega_l=draw(st.floats(0.1, 5.0)),
        drive_variant=draw(st.sampled_from(DRIVE_VARIANTS)),
        t_max=draw(st.floats(0.1, 100.0)), samples=draw(st.integers(2, 500)),
        sweep_parameter=parameter, sweep_values=values, experiments=experiments)
    try:
        validate(config)
    except ConfigError:
        assume(False)
    return config


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(SMALL_RUN)
        assert cfg.bath_modes == 12
        assert cfg.sweep_values == (0.1, 1.0)
        assert parse_config(config_text(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(runnable_configs())
    def test_echo_round_trips_every_runnable_config(self, config):
        assert parse_config(config_text(config)) == config
        csv = ExperimentResult(config.experiments[0], config, []).to_csv()
        assert config_from_csv(csv) == config

    def test_bundled_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            assert cfg.experiments

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(SMALL_RUN + "\n[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(SMALL_RUN.replace("omega = 1", "omega = 1\nwobble = 2"))

    def test_unstable_coupling_rejected(self):
        cfg = ScenarioConfig(scenario="two_coupled", omega=1.0, omega2=1.0, beta=1.5,
                             experiments=("two_oscillator_suite",))
        with pytest.raises(ConfigError, match="unstable"):
            validate(cfg)

    def test_driven_resonant_variant_rejected(self):
        cfg = ScenarioConfig(scenario="driven", omega=1.0, omega_l=1.0,
                             drive_variant="off_resonant", experiments=("fidelity_vs_time",),
                             sweep_parameter="variant", sweep_values=("off_resonant",))
        with pytest.raises(ConfigError, match="resonance"):
            validate(cfg)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate(ScenarioConfig(experiments=("does_not_exist",)))


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_instability(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[scenario]\nkind = two_coupled\n"
                     "[system]\nomega = 1\nomega2 = 1\nbeta = 2\n"
                     "[output]\nexperiments = fidelity_vs_time\n")
        assert cli_main(["validate", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unstable" in err

    @pytest.mark.parametrize("case", sorted(BAD_RUNS))
    def test_validate_checks_sweep_points(self, case, tmp_path, capsys):
        # validate rejects whatever run rejects: every sweep point is a config,
        # and each experiment's rules live in the same table

        p = tmp_path / "bad.cfg"
        p.write_text(BAD_RUNS[case])
        assert cli_main(["validate", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert BAD_RUN_MESSAGES.get(case, "") in err

    @staticmethod
    def _child_env(**settings: str) -> dict:
        """os.environ without BLAS thread settings, plus ``settings`` and this package's path."""
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARS + ("OPENBLAS_THREAD_TIMEOUT",)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(oscbath.__file__).resolve().parent.parent), env.get("PYTHONPATH")]))
        return {**env, **settings}

    def _python(self, code: str, *args: str, **settings: str) -> str:
        """Stdout of ``python -c code args`` in a fresh process that imports this package."""
        done = subprocess.run([sys.executable, "-c", code, *args],
                              env=self._child_env(**settings),
                              capture_output=True, text=True, check=True)
        return done.stdout

    def test_run_and_validate_load_no_scipy(self, tmp_path):
        # scipy's import is most of a cold start: bath's Brent port and Ei and
        # flows' expm replace what run and validate would take from it, and the
        # Fock referee behind oracle is NumPy-only for every family
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        oracles = []
        for family in ("single", "two_small", "two_large", "driven"):
            oracles.append(tmp_path / f"oracle_{family}.cfg")
            oracles[-1].write_text(ORACLE_SINGLE.replace("single", family))
        # nor do they load the referee
        code = ("import sys; from oscbath.cli import cli_main; "
                "assert cli_main(['validate', sys.argv[1]]) == 0; "
                "assert 'oscbath.fock' not in sys.modules; "
                "assert cli_main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0; "
                "assert 'oscbath.fock' not in sys.modules; "
                "assert all(cli_main(['oracle', f]) == 0 for f in sys.argv[3:]); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = self._python(code, str(p), str(tmp_path / "o"), *map(str, oracles))
        assert out.splitlines()[-1] == "[]"
        assert out.count("trace(rho_t)") == 4
        assert (tmp_path / "o" / "fidelity_vs_time.csv").exists()

    def test_validate_and_oracle_load_no_exact_dynamics(self, tmp_path):
        # only run needs experiments and the exact propagator behind it
        p = tmp_path / "oracle.cfg"
        p.write_text(ORACLE_SINGLE)
        code = ("import sys; from oscbath.cli import cli_main; "
                "assert cli_main(['validate', sys.argv[1]]) == 0; "
                "assert cli_main(['oracle', sys.argv[2]]) == 0; "
                "print(sorted(m for m in ('oscbath.exact', 'oscbath.experiments') "
                "if m in sys.modules))")
        out = self._python(code, str(CONFIG_DIR / "fig9_11_driven.cfg"), str(p))
        assert out.splitlines()[-1] == "[]"

    def test_validate_bundled_configs_writes_no_warning(self):
        # validate builds every point's flows, their validity warnings silenced
        code = ("import contextlib, io, sys; from oscbath.cli import cli_main\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stderr(err):\n"
                "    assert all(cli_main(['validate', f]) == 0 for f in sys.argv[1:])\n"
                "print(repr(err.getvalue()))")
        paths = sorted(map(str, CONFIG_DIR.glob("*.cfg")))
        out = self._python(code, *paths)
        assert out.count(": ok") == len(paths) == 7
        assert out.splitlines()[-1] == "''"

    @pytest.mark.parametrize("case", ["directory", "not_utf8", "missing"])
    @pytest.mark.parametrize("command", ["run", "validate", "oracle"])
    def test_unreadable_config_is_a_config_error(self, command, case, tmp_path, capsys):
        p = {"directory": tmp_path, "not_utf8": tmp_path / "bad.cfg",
             "missing": tmp_path / "missing.cfg"}[case]
        (tmp_path / "bad.cfg").write_bytes(b"\xff\xfe[scenario]\nkind = single\n")
        assert cli_main([command, str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot read config")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, out, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(config):
            raise AssertionError("an experiment ran before --out was checked")

        monkeypatch.setattr(cli, "run", refuse)
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        (tmp_path / "file").write_text("")
        assert cli_main(["run", str(p), "--out", str(tmp_path / out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --out")
        assert "Traceback" not in captured.err
        assert not list(tmp_path.rglob("*.csv"))

    def test_run_validates_once(self, tmp_path, monkeypatch):
        # parse_path validates the config, and run does not check it again
        calls = []

        def counted(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(config_module, "validate", counted)
        monkeypatch.setattr(experiments, "validate", counted)
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == 1

    def test_bad_config_is_refused_before_a_bad_out(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BAD_RUNS["resonant_driven_suite_without_bath"])
        (tmp_path / "file").write_text("")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "file")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_default_detunings_scale_with_omega(self, tmp_path):
        # the default detuning grid is in units of Omega, so at Omega = 0.4 its
        # most negative point, -0.5 Omega, puts omega_l at 0.2, not below 0
        p = tmp_path / "run.cfg"
        p.write_text(RESONANT_DRIVEN.replace("omega = 1\n", "omega = 0.4\n")
                     .replace("omega_l = 1", "omega_l = 0.45"))
        assert cli_main(["validate", str(p)]) == EXIT_OK
        points = sweep_points(parse_config(p.read_text()), "detuning")
        assert [d for d, _ in points] == [0.4 * d for d in DEFAULT_DETUNING_GRID]
        assert points[0][1].omega_l == pytest.approx(0.2, rel=1e-15)

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "invalid choice" in err and "frobnicate" in err

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == EXIT_USAGE

    def test_run_is_deterministic_and_thread_invariant(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        outs = []
        for sub, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            outdir = tmp_path / sub
            assert cli_main(["run", str(p), "--out", str(outdir),
                             "--threads", threads]) == EXIT_OK
            outs.append((outdir / "fidelity_vs_time.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def _csvs(self, config: Path, outdir: Path, **settings: str) -> dict:
        """{name: bytes} of the CSVs a fresh ``python -m oscbath.cli run`` writes."""
        subprocess.run([sys.executable, "-m", "oscbath.cli", "run", str(config),
                        "--out", str(outdir)],
                       env=self._child_env(**settings), capture_output=True, check=True)
        return {csv.name: csv.read_bytes() for csv in outdir.glob("*.csv")}

    # factorization_distance is left out: its one dense eigh moves with the BLAS
    # thread count (ROADMAP item 3), in all 360 rows of fig5p0
    @pytest.mark.parametrize("name", ["fig2_variance", "fig3_recurrence", "fig4_correlation",
                                      "fig5_fidelity_temperature", "fig6_8_two_oscillators",
                                      "fig9_11_driven"])
    def test_csv_bytes_do_not_depend_on_the_blas_thread_count(self, name, tmp_path):
        config = CONFIG_DIR / f"{name}.cfg"
        default = self._csvs(config, tmp_path / "default")
        assert default and default == self._csvs(config, tmp_path / "one",
                                                 OPENBLAS_NUM_THREADS="1")

    @pytest.mark.parametrize("preset", [None, "28"])
    def test_cli_sets_the_openblas_wait_before_numpy_loads(self, preset):
        # OpenBLAS reads how long its idle workers spin once, when NumPy loads
        # it; the CLI shortens the wait unless the user has set one, and the
        # package itself leaves the environment alone
        code = ("import os, sys\n"
                "wait = lambda: print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
                "class Spy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name == 'numpy':\n"
                "            wait()\n"
                "sys.meta_path.insert(0, Spy())\n"
                "import oscbath\n"
                "wait()\n"
                "import oscbath.cli\n")
        settings = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
        out = self._python(code, **settings)
        assert out.split() == [str(preset), preset or "24"]

    def test_factorization_bytes_do_not_depend_on_the_openblas_wait(self, tmp_path):
        # factorization_distance is the one CSV that moves with the BLAS thread
        # count; how long idle workers spin must not move it (28 is OpenBLAS's own)
        config = CONFIG_DIR / "fig5p0_factorization.cfg"
        cli_wait = self._csvs(config, tmp_path / "cli")
        assert cli_wait and cli_wait == self._csvs(config, tmp_path / "openblas",
                                                   OPENBLAS_THREAD_TIMEOUT="28")

    def test_run_emits_declared_columns_and_echo(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        outdir = tmp_path / "out"
        assert cli_main(["run", str(p), "--out", str(outdir)]) == EXIT_OK
        text = (outdir / "fidelity_vs_time.csv").read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "sweep_param,sweep_value,t,quantity,value"
        # the config echoed in the metadata reproduces the parsed config
        assert config_from_csv(text) == parse_config(SMALL_RUN)

    def test_run_fig2_bundled_example(self, tmp_path):
        outdir = tmp_path / "out"
        assert cli_main(["run", str(CONFIG_DIR / "fig2_variance.cfg"),
                         "--out", str(outdir)]) == EXIT_OK
        lines = (outdir / "variance_trajectory.csv").read_text().splitlines()
        quantities = {l.split(",")[3] for l in lines if l and not l.startswith("#")
                      and not l.startswith("sweep_param")}
        assert quantities == {"var2x_exact", "var2x_markov_shift",
                              "var2x_markov_noshift"}

    def test_numeric_failure_exit(self, tmp_path, capsys, monkeypatch):
        # fig2, which validate accepts, with exact states halved below the vacuum's
        states = ReducedPropagator.states

        def halved(self, *args):
            out = states(self, *args)
            return GaussianState(out.n_modes, out.mean, 0.5 * out.cov)

        monkeypatch.setattr(experiments.ReducedPropagator, "states", halved)
        p = tmp_path / "run.cfg"
        p.write_text((CONFIG_DIR / "fig2_variance.cfg").read_text())
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "numeric failure: unphysical exact state" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/*.csv"))

    @pytest.mark.parametrize("case", sorted(BAD_RUNS))
    def test_bad_input_is_a_config_error(self, case, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BAD_RUNS[case])
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert BAD_RUN_MESSAGES.get(case, "") in err
        assert not (tmp_path / "o").exists()

    def test_failed_run_writes_no_csv(self, tmp_path, capsys, monkeypatch):
        calls = []

        def second_fails(name, config):
            calls.append(name)
            if len(calls) == 2:
                raise ArithmeticError(f"{name} failed")
            return [("none", "", 0.0, "x", 1.0)]

        for name in ("fidelity_vs_time", "correlation_study"):
            monkeypatch.setitem(experiments._RUNNERS, name, partial(second_fails, name))
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN.replace("= fidelity_vs_time",
                                       "= fidelity_vs_time, correlation_study"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert calls == ["fidelity_vs_time", "correlation_study"]
        assert "correlation_study failed" in capsys.readouterr().err
        assert not list(tmp_path.glob("o/*.csv"))

    @pytest.mark.parametrize("text", [
        SMALL_RUN.replace("= fidelity_vs_time", "= fidelity_vs_time, variance_trajectory"),
        SMALL_RUN.replace("kind = single", "kind = two_coupled")
        .replace("parameter = temperature", "parameter = beta")
        .replace("values = 0.1, 1", "values = 0.1, 0.2")
        .replace("= fidelity_vs_time", "= fidelity_vs_time, two_oscillator_suite"),
    ], ids=["temperature", "beta"])
    def test_sweep_read_by_one_of_two_experiments_runs(self, text, tmp_path):
        # the unread-sweep rule looks at every requested experiment, in run as in validate
        p = tmp_path / "run.cfg"
        p.write_text(text)
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(list(tmp_path.glob("o/*.csv"))) == 2

    def test_far_tail_run_is_finite(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(FAR_TAIL)
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        text = (tmp_path / "o" / "variance_trajectory.csv").read_text()
        rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 9
        assert all(np.isfinite(float(row[-1])) for row in rows)

    def test_cold_correlation_study_runs(self, tmp_path):
        # the thermal half-height search spans [0, 10/T] = [0, 1e101], where the
        # kernel's values are so small that Brent's interpolation divides by 0
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("temperature = 0.5", "temperature = 1e-100")
                     .replace("= fidelity_vs_time", "= correlation_study"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        text = (tmp_path / "o" / "correlation_study.csv").read_text()
        assert "fwhh_ct" in text

    @pytest.mark.parametrize("temperature", ["1e20", "1e160"])
    def test_hot_correlation_study_reaches_the_classical_width(self, temperature, tmp_path):
        # C(s, T) -> alpha T omega_c / (1 + i s omega_c) as T -> inf, so its full width at
        # half height tends to 2 sqrt(3) / omega_c, with no power of q in psi' and no T^2
        # overflowing on the way
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("temperature = 0.5", f"temperature = {temperature}")
                     .replace("t_max = 8", "t_max = 5").replace("samples = 12", "samples = 4")
                     .replace("= fidelity_vs_time", "= correlation_study"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        text = (tmp_path / "o" / "correlation_study.csv").read_text()
        [width] = [float(line.split(",")[-1]) for line in text.splitlines() if ",fwhh_ct," in line]
        assert width == pytest.approx(2 * np.sqrt(3) / 3, rel=0, abs=1e-12)

    @pytest.mark.parametrize("amplitude", ["1e200", repr(config_module._COHERENT_MAX)])
    def test_far_coherent_start_scores_fidelity_zero(self, amplitude, tmp_path):
        # delta^T (C1 + C2)^{-1} delta overflows, so the fidelity is e^-inf = 0, with no
        # warning, up to the largest amplitude validate accepts
        text = (NO_SWEEP.replace("initial = thermal",
                                 f"initial = coherent\ninitial_coherent_re = {amplitude}")
                .replace("modes = 12", "modes = 20").replace("t_max = 8", "t_max = 5")
                .replace("samples = 12", "samples = 4")
                .replace("= fidelity_vs_time", "= variance_trajectory, fidelity_vs_time"))
        p = tmp_path / "run.cfg"
        p.write_text(text)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        csv = (tmp_path / "o" / "fidelity_vs_time.csv").read_text()
        rows = [line.split(",") for line in csv.splitlines() if ",fidelity," in line]
        assert [float(row[-1]) for row in rows if float(row[2]) > 0] == [0.0] * 3

    def test_coherent_amplitude_limit_is_sharp(self):
        limit = config_module._COHERENT_MAX
        config = replace(parse_config(NO_SWEEP), initial="coherent")
        validate(replace(config, initial_coherent_im=limit))
        with pytest.raises(ConfigError, match="coherent amplitude"):
            validate(replace(config, initial_coherent_im=math.nextafter(limit, math.inf)))

    @pytest.mark.parametrize("experiment", sorted(FLOW_RUNS))
    def test_subnormal_t_max_runs(self, experiment, tmp_path):
        # the flows' exponential at t = 5e-324 has a subnormal norm
        p = tmp_path / "run.cfg"
        p.write_text(FLOW_RUNS[experiment].replace("t_max = 8", "t_max = 5e-324")
                     .replace("t_max = 5\n", "t_max = 5e-324\n"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert (tmp_path / "o" / f"{experiment}.csv").is_file()

    def test_resonant_plain_fidelity_vs_time_runs(self, tmp_path):
        p = tmp_path / "res.cfg"
        p.write_text(BAD_RUNS["resonant_fidelity_vs_time"]
                     + "\n[sweep]\nparameter = variant\nvalues = plain\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK

    @pytest.mark.parametrize("case", sorted(RESONANT_WITHOUT_BATH))
    def test_validate_accepts_resonant_drive_without_bath(self, case, tmp_path, capsys):
        p = tmp_path / "res.cfg"
        p.write_text(RESONANT_WITHOUT_BATH[case])
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(RESONANT_WITHOUT_BATH))
    def test_resonant_drive_without_bath_runs(self, case, tmp_path):
        # in the frame of the drive, a(t) = rabi (e^{i delta t} - 1)/(-delta) with
        # delta = omega_l - Omega: -i rabi t (1 + i delta t/2) to within (delta t)^2
        p = tmp_path / "res.cfg"
        p.write_text(RESONANT_WITHOUT_BATH[case])
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert (tmp_path / "o" / "fidelity_vs_time.csv").is_file()
        config = parse_config(p.read_text())
        times = _times(config)
        exact, _ = _compare(config, (), times)
        a = -1j * config.rabi * times * (1 + 0.5j * (config.omega_l - config.omega) * times)
        np.testing.assert_allclose(exact.mean, np.sqrt(2) * np.column_stack([a.real, a.imag]),
                                   rtol=0, atol=1e-15)

    def test_non_finite_result_is_not_written(self, tmp_path, capsys, monkeypatch):
        def nan_result(config):
            return [("none", "", 0.0, "x", float("nan"))]

        monkeypatch.setitem(experiments._RUNNERS, "fidelity_vs_time", nan_result)
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_unphysical_state_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # C = I/2 breaks C + i sigma >= 0: scaled to a unit diagonal, it is I + 2 i sigma,
        # whose smallest eigenvalue is -1
        def below_vacuum(self, times, system0, temperatures):
            shape = (len(times), 2 * system0.n_modes)
            return GaussianState(system0.n_modes, np.zeros(shape),
                                 np.broadcast_to(0.5 * np.eye(shape[1]), shape + shape[1:]))

        monkeypatch.setattr(experiments.ReducedPropagator, "states", below_vacuum)
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: unphysical exact state at t = 0:")
        assert "min eig(C + i sigma) = -1.000e+00" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_unphysical_full_state_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # the factorization's full states pass the same gate as the exact reduced ones
        def below_vacuum(self, times, state0):
            shape = (len(times), 2 * state0.n_modes)
            return GaussianState(state0.n_modes, np.zeros(shape),
                                 np.broadcast_to(0.5 * np.eye(shape[1]), shape + shape[1:]))

        monkeypatch.setattr(experiments.FullPropagator, "states", below_vacuum)
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("= fidelity_vs_time", "= factorization_distance"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: unphysical full state at t = 0:")
        assert "min eig(C + i sigma) = -1.000e+00" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_unphysical_flow_state_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # the Markov side passes the same gate as the exact one
        def below_vacuum(flow, state, t):
            shape = np.shape(t) + (2 * state.n_modes,)
            return GaussianState(state.n_modes, np.zeros(shape),
                                 np.broadcast_to(0.5 * np.eye(shape[-1]), shape + shape[-1:]))

        monkeypatch.setattr(experiments, "evolve_flow", below_vacuum)
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("= fidelity_vs_time", "= variance_trajectory"))
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: unphysical flow state (label True) at t = 0:")
        assert "min eig(C + i sigma) = -1.000e+00" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_a_very_long_t_max_reaches_the_steady_state(self, tmp_path):
        # at t_max = 1e305 each flow takes about a thousand doublings, and its
        # rows at t_max are its fixed point's 2 (dx)^2
        text = (NO_SWEEP.replace("t_max = 8", "t_max = 1e305")
                .replace("= fidelity_vs_time", "= variance_trajectory"))
        p = tmp_path / "run.cfg"
        p.write_text(text)
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        csv = (tmp_path / "o" / "variance_trajectory.csv").read_text()
        rows = [l.split(",") for l in csv.splitlines() if not l.startswith("#")][1:]
        at_end = {row[3]: float(row[4]) for row in rows if float(row[2]) == 1e305}
        shifted, bare = markov_flows(parse_config(text), (True, False))
        for quantity, flow in (("var2x_markov_shift", shifted), ("var2x_markov_noshift", bare)):
            assert at_end[quantity] == pytest.approx(steady_state(flow).cov[0, 0], rel=0,
                                                     abs=1e-12)

    @pytest.mark.parametrize("case", sorted(PLAN_RUNS))
    def test_validate_checks_every_point_run_evaluates(self, case, monkeypatch):
        # validate builds the master equations of exactly the (point, labels) pairs
        # that run builds, each pair once, and the bath of exactly the points run
        # evolves, each once, and runs the base rules once per point
        config = parse_config(PLAN_RUNS[case])
        seen = {"validate": [], "run": [], "checked": [], "validate_bath": [], "run_bath": []}
        check, bath = config_module._check, config_module._bath

        def recorder(key, build):
            def recorded(point, labels):
                seen[key].append((point, tuple(labels)))
                return build(point, labels)
            return recorded

        monkeypatch.setattr(config_module, "markov_flows",
                            recorder("validate", config_module.markov_flows))
        monkeypatch.setattr(experiments, "markov_flows", recorder("run", experiments.markov_flows))
        monkeypatch.setattr(config_module, "_check",
                            lambda point: seen["checked"].append(point) or check(point))
        for module, key in ((config_module, "validate_bath"), (experiments, "run_bath")):
            monkeypatch.setattr(module, "_bath",
                                lambda point, key=key: seen[key].append(point) or bath(point))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            experiments.run(config)
        assert set(seen["run"]) == set(seen["validate"])
        assert len(seen["validate"]) == len(set(seen["validate"]))
        assert len(seen["checked"]) == len(set(seen["checked"]))
        assert set(seen["run_bath"]) == set(seen["validate_bath"])
        assert len(seen["validate_bath"]) == len(set(seen["validate_bath"]))
        assert bool(seen["run_bath"]) == (case not in ("correlation_study", "fig4_correlation"))
        assert bool(seen["run"]) == (case not in ("correlation_study", "factorization_distance",
                                                  "bathless_variance_trajectory",
                                                  "fig4_correlation", "fig5p0_factorization"))

    @pytest.mark.parametrize("case", sorted(PLAN_RUNS))
    def test_frequency_bound_holds_at_every_evolved_point(self, case):
        # validate refuses a t_max whose product with the bound overflows, so the bound
        # must hold for every eigenvalue whose phase lambda t the exact side takes
        config = parse_config(PLAN_RUNS[case])
        for name in set(config.experiments) - {"correlation_study"}:
            for _, _, point, _ in evaluations(config, name):
                pair = point.scenario == "two_coupled"
                drive = (point.rabi, point.omega_l) if point.scenario == "driven" else None
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    exact = ReducedPropagator.build(point.omega, config_module._bath(point),
                                                    beta=point.beta if pair else None,
                                                    drive=drive)
                lam = np.concatenate([sector.eigenvalues for sector in exact.sectors])
                assert np.abs(lam).max() <= config_module._frequency_bound(point)

    @pytest.mark.parametrize("experiment", ["correlation_study", "factorization_distance"])
    def test_experiment_without_markov_rates_runs_far_in_the_tail(self, experiment, tmp_path):
        # neither experiment takes a Markov rate, so the decay rate at Omega = 3000,
        # which underflows to 0, refuses neither
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("omega = 1\n", "omega = 3000\n")
                     .replace("= fidelity_vs_time", f"= {experiment}"))
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert (tmp_path / "o" / f"{experiment}.csv").is_file()

    def test_strongly_squeezed_variance_runs_or_is_refused(self, tmp_path):
        # at r = 20 the squeezed variance e^{-2r} lies below the rounding of its partner
        # e^{2r}, so an exact state would read unphysical
        p = tmp_path / "run.cfg"
        p.write_text((CONFIG_DIR / "fig2_variance.cfg").read_text()
                     .replace("initial_squeeze = 0.5", "initial_squeeze = 20"))
        assert (cli_main(["validate", str(p)]) == EXIT_CONFIG
                or cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK)

    @pytest.mark.parametrize("t", [3.0, 30.0])
    def test_squeeze_rule_bounds_the_exact_error(self, t):
        # the exact variance of a squeezed start, against a 40-digit referee, is within
        # the rounding eps e^(2|r|) (1 + t lambda_max) that validate holds to ACCURACY:
        # measured at 0.034 of it on fig2 with 20 modes (15.7 eps e^(2|r|) at t = 30)
        point = replace(parse_config((CONFIG_DIR / "fig2_variance.cfg").read_text()),
                        bath_modes=20)
        bath, bound = config_module._bath(point), config_module._frequency_bound(point)
        exact = ReducedPropagator.build(point.omega, bath)
        with mp.workdps(40):
            w = mp.diag([point.omega, *map(float, bath.frequencies)])
            for j, g in enumerate(bath.couplings):
                w[0, j + 1] = w[j + 1, 0] = float(g)
            lam, q = mp.eigsy(w)
            row = [mp.fsum(q[0, m] * q[k, m] * mp.expj(-lam[m] * t) for m in range(w.rows))
                   for k in range(w.rows)]
            noise = mp.fsum(abs(u) ** 2 / mp.tanh(float(f) / (2 * point.temperature))
                            for u, f in zip(row[1:], bath.frequencies))
            r_sys = mp.matrix([[mp.re(row[0]), -mp.im(row[0])], [mp.im(row[0]), mp.re(row[0])]])
            for r in (1.0, 4.0, 6.5):
                ref = (r_sys * mp.diag([mp.exp(-2 * mp.mpf(r)), mp.exp(2 * mp.mpf(r))])
                       * r_sys.T + noise * mp.eye(2))
                cov = exact.states([t], make_squeezed_vacuum(r), (point.temperature,)).cov[0]
                error = max(abs(float(cov[a, b] - ref[a, b])) for a in range(2) for b in range(2))
                assert error <= sys.float_info.epsilon * math.exp(2 * r) * (1 + t * bound), r

    def test_weakly_damped_flow_reaches_its_steady_state_or_is_refused(self, tmp_path):
        # at alpha = 4.4e-16 (gamma ~ 1e-15) evolve_flow's rounding grows with omega t up
        # to t ~ 1/gamma, so a run to t_max = 1e300 must reach 2 nbar + 1 or be refused
        p = tmp_path / "run.cfg"
        p.write_text((CONFIG_DIR / "fig2_variance.cfg").read_text()
                     .replace("alpha = 0.01", "alpha = 4.4e-16")
                     .replace("initial = squeezed\ninitial_squeeze = 0.5", "initial = vacuum")
                     .replace("modes = 150", "modes = 20").replace("t_max = 30", "t_max = 1e300")
                     .replace("samples = 300", "samples = 3"))
        if cli_main(["validate", str(p)]) == EXIT_CONFIG:
            return
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK
        config = parse_config(p.read_text())
        rows = [line.split(",") for line in
                (tmp_path / "o" / "variance_trajectory.csv").read_text().splitlines()
                if line.startswith("none,")]
        markov = [float(v) for _, _, t, quantity, v in rows
                  if float(t) == config.t_max and quantity.startswith("var2x_markov")]
        steady = 2.0 * bose_occupation(config.omega, config.temperature) + 1.0
        assert len(markov) == 2
        assert max(abs(v - steady) for v in markov) <= 1e-10

    def test_hot_second_bath_runs_or_is_refused(self, tmp_path):
        # the cold oscillator's state must not read the hot bath's noise as a
        # difference of two terms of order T2
        p = tmp_path / "run.cfg"
        p.write_text(config_text(ScenarioConfig(
            scenario="two_coupled", omega=1.2, omega2=1.2, beta=0.0, alpha=0.001, omega_c=1.8,
            bath_modes=2, range_mode="equal_tails", temperature=0.2, temperature2=2e16,
            t_max=0.1, samples=6, experiments=("fidelity_vs_time",))))
        assert (cli_main(["validate", str(p)]) == EXIT_CONFIG
                or cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK)

    def test_hot_bath_mode_runs_or_is_refused(self, tmp_path):
        # a floor window from 1e-5 at T = 1.75 puts a bath mode of variance 3.5e5
        # beside the system's: the factorization's full state at t = 0, exact by
        # construction, must not read unphysical from eigvalsh's rounding at eps
        # times that variance
        config = ScenarioConfig(
            alpha=0.015, omega_c=3.0, bath_modes=2, range_mode="floor", range_floor=1e-5,
            temperature=1.75, t_max=1.0, samples=2, experiments=("factorization_distance",))
        lowest = config_module._bath(config).frequencies[0]
        assert 2 * bose_occupation(lowest, config.temperature) + 1 == pytest.approx(3.5e5,
                                                                                 rel=1e-3)
        p = tmp_path / "run.cfg"
        p.write_text(config_text(config))
        assert (cli_main(["validate", str(p)]) == EXIT_CONFIG
                or cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK)

    @pytest.mark.parametrize("family", ["single", "two_small", "two_large", "driven"])
    def test_oracle_subcommand(self, family, tmp_path, capsys):
        p = tmp_path / "oracle.cfg"
        p.write_text(ORACLE_SINGLE.replace("single", family))
        assert cli_main(["oracle", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        mismatches = [float(line.split("=")[-1]) for line in out.splitlines()
                      if line.startswith("max |")]
        assert len(mismatches) == 2
        assert max(mismatches) <= 1e-5
        assert "trace" in out

    @pytest.mark.parametrize("family", ["single", "two_small", "two_large", "driven"])
    def test_oracle_never_integrates_the_full_density_matrix(self, family, tmp_path,
                                                            capsys, monkeypatch):
        # the oracle prints moments and the trace only, which fock.evolve_moments
        # gives without fock.integrate's full matrices; a refactor back to them fails here
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called fock.integrate")

        monkeypatch.setattr(fock, "integrate", refuse)
        p = tmp_path / "oracle.cfg"
        p.write_text(ORACLE_SINGLE.replace("single", family))
        assert cli_main(["oracle", str(p)]) == EXIT_OK
        assert "trace(rho_t) = 1.0000" in capsys.readouterr().out

    def test_oracle_with_a_large_coherent_amplitude_runs(self, tmp_path, capsys):
        # |alpha| = 30 underflowed e^{-|alpha|^2/2} into an all-NaN initial state;
        # now the state is finite and only the truncation edge is reported
        p = tmp_path / "oracle.cfg"
        p.write_text(ORACLE_SINGLE.replace("cutoff = 10", "cutoff = 20") + "coherent_re = 30\n")
        with pytest.warns(UserWarning, match="truncation edge"):
            assert cli_main(["oracle", str(p)]) == EXIT_OK
        assert "trace(rho_t) = 1.0000" in capsys.readouterr().out

    def test_non_finite_oracle_integration_is_a_numeric_failure(self, tmp_path, capsys,
                                                                monkeypatch):
        def nan_state(alpha, cutoff):
            rho = fock.vacuum_rho(cutoff)
            rho[0, 1] = np.nan
            return rho

        monkeypatch.setattr(fock, "coherent_rho", nan_state)
        p = tmp_path / "oracle.cfg"
        p.write_text(ORACLE_SINGLE)
        assert cli_main(["oracle", str(p)]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure:")
        assert "non-finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case", sorted(BAD_ORACLES))
    def test_bad_oracle_input_is_a_config_error(self, case, tmp_path, capsys):
        # refused at once: a bound that stops bounding fails here in seconds
        p = tmp_path / "oracle.cfg"
        p.write_text(BAD_ORACLES[case])
        with alarm_after(10):
            assert cli_main(["oracle", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_oracle_names_a_key_its_family_does_not_read(self, tmp_path, capsys):
        # beta is a pair's coupling: a single oscillator would silently ignore it
        p = tmp_path / "oracle.cfg"
        p.write_text(BAD_ORACLES["key_of_another_family"])
        assert cli_main(["oracle", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: unknown oracle key(s) for family "
                                           "single: beta\n")


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(oscbath.__path__)))
def test_star_import_and_all_entries_exist(module):
    # a name deleted from a module must leave its __all__ too
    mod = importlib.import_module(f"oscbath.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
    exec(f"from oscbath.{module} import *", {})


def _imported(module: str) -> set:
    """Dotted names of everything ``oscbath.<module>``'s source imports, lazily too."""
    names = set()
    source = (Path(oscbath.__file__).resolve().parent / f"{module}.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["oscbath" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["bath", "gaussian", "flows", "exact", "fock"])
def test_numerics_import_no_front_end(module):
    # config, experiments and cli are built on the numerics, never the reverse
    front = {"oscbath.config", "oscbath.experiments", "oscbath.cli"}
    assert _imported(module) & front == set()
