import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import alarm_after
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oscbath
from oscbath import cli, experiments, fock
from oscbath import config as config_module
from oscbath.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli_main
from oscbath.config import (DEFAULT_DETUNING_GRID, DRIVE_VARIANTS, EXPERIMENTS,
                            INITIAL_STATES, RANGE_MODES, SCENARIOS, ConfigError,
                            ScenarioConfig, config_text, parse_config, sweep_points,
                            validate)
from oscbath.experiments import ExperimentResult, config_from_csv
from oscbath.gaussian import GaussianState

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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

# exact resonance omega_l = Omega with a bath, where W - omega_L stays regular
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

BAD_RUNS = {
    "t_max_nan": SMALL_RUN.replace("t_max = 8", "t_max = nan"),
    "squeeze_nan": SMALL_RUN.replace("initial = thermal",
                                     "initial = squeezed\ninitial_squeeze = nan")
                            .replace("= fidelity_vs_time", "= variance_trajectory"),
    "alpha_inf": SMALL_RUN.replace("alpha = 0.01", "alpha = inf"),
    "temperature_nan": SMALL_RUN.replace("temperature = 0.5", "temperature = nan"),
    "sweep_value_nan": SMALL_RUN.replace("values = 0.1, 1", "values = 0.1, nan"),
    "one_bath_mode": SMALL_RUN.replace("modes = 12", "modes = 1"),
    "omega_min_above_cutoff": SMALL_RUN.replace(
        "range_mode = floor", "range_mode = equal_tails\nrange_omega_min = 5"),
    "resonant_driven_suite": RESONANT_DRIVEN,
    "resonant_fidelity_vs_time": RESONANT_DRIVEN.replace("= driven_suite",
                                                         "= fidelity_vs_time"),
    "resonant_swept_detuning": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2")
    + "\n[sweep]\nparameter = detuning\nvalues = -0.1, 0\n",
    # refused as with a bath, though W - omega_L is singular here too
    "resonant_driven_suite_without_bath": RESONANT_DRIVEN.replace("modes = 12", "modes = 0"),
    "unknown_swept_variant": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2")
    .replace("= driven_suite", "= fidelity_vs_time")
    + "\n[sweep]\nparameter = variant\nvalues = plain, bogus\n",
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
    # finite inputs whose derived values overflow or vanish: pi alpha Omega e^{-Omega/omega_c},
    # the squeezed variance e^{2|r|}, and equal_tails' tail mass below omega_min
    "decay_rate_overflow": NO_SWEEP.replace("alpha = 0.01", "alpha = 1e308")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "squeeze_overflow": NO_SWEEP.replace("initial = thermal",
                                         "initial = squeezed\ninitial_squeeze = 1e272")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
    "equal_tails_mass_rounds_to_zero": NO_SWEEP.replace(
        "range_mode = floor", "range_mode = equal_tails\nrange_omega_min = 1e-170"),
    # t_max times the 1-norm of a flow's moment generator overflows: the Pade
    # exponential could not count its squarings
    "t_max_overflows_the_flow_exponential": NO_SWEEP.replace("t_max = 8", "t_max = 1.7e308")
    .replace("= fidelity_vs_time", "= variance_trajectory"),
}

# what the message of a BAD_RUNS case must name, where that is pinned
BAD_RUN_MESSAGES = {
    "hot_bath": "the Bose occupation at nu = 1.0, T = 1e+20 overflows",
    "hot_second_bath": "the Bose occupation at nu = 1.0, T = 1e+20 overflows",
    "decay_rate_overflow": "pi*J(nu) at nu = 1.0 is not finite (alpha = 1e+308",
    "squeeze_overflow": "initial_squeeze = 1e+272 overflows",
    "equal_tails_mass_rounds_to_zero": "range_omega_min = 1e-170 is too small",
    "t_max_overflows_the_flow_exponential": "t_max = 1.7e+308 is too long for the master "
    "equations: the 1-norm of their moment generator times t_max overflows",
}

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
    "recurrence_map": SMALL_RUN.replace("parameter = temperature", "parameter = modes")
    .replace("values = 0.1, 1", "values = 12, 20")
    .replace("= fidelity_vs_time", "= recurrence_map"),
    "two_oscillator_suite": NO_SWEEP.replace("kind = single", "kind = two_coupled")
    .replace("= fidelity_vs_time", "= two_oscillator_suite"),
    "driven_suite": RESONANT_DRIVEN.replace("omega_l = 1", "omega_l = 1.2"),
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
        range_floor=draw(st.floats(0.01, 0.99)), range_omega_min=draw(st.floats(0.0, 0.99)),
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
        cfg = ScenarioConfig(scenario="two_coupled", omega=1.0, omega2=1.0, beta=1.5)
        with pytest.raises(ConfigError, match="unstable"):
            validate(cfg)

    def test_driven_resonant_variant_rejected(self):
        cfg = ScenarioConfig(scenario="driven", omega=1.0, omega_l=1.0,
                             drive_variant="off_resonant")
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
                     "[system]\nomega = 1\nomega2 = 1\nbeta = 2\n")
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
    def _python(code: str, *args: str) -> str:
        """Stdout of ``python -c code args`` in a fresh process that imports this package."""
        path = [str(Path(oscbath.__file__).resolve().parent.parent),
                os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
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
        assert "unknown subcommand" in capsys.readouterr().err

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

    def test_numeric_failure_exit(self, tmp_path, capsys):
        # bare resonant drive makes W - omega_L singular
        p = tmp_path / "res.cfg"
        p.write_text("[scenario]\nkind = driven\n"
                     "[system]\nomega = 1\ninitial = vacuum\n"
                     "[spectrum]\nalpha = 0.01\nomega_c = 3\n"
                     "[bath]\nmodes = 0\ntemperature = 0\n"
                     "[drive]\nrabi = 0.1\nomega_l = 1\nvariant = plain\n"
                     "[time]\nt_max = 5\nsamples = 10\n"
                     "[sweep]\nparameter = variant\nvalues = plain\n"
                     "[output]\nexperiments = fidelity_vs_time\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

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
        # C = I/2 breaks C + i sigma >= 0: its smallest eigenvalue is -1/2
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
        assert "min eig(C + i sigma) = -5.000e-01" in err
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
        assert "min eig(C + i sigma) = -5.000e-01" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_flow_state_gate_catches_a_very_long_t_max(self, tmp_path, capsys):
        # validate accepts t_max = 1e305; the flow's exponential stays finite (its
        # scaling comes before its first product), and its rounding, which grows
        # linearly in t, leaves C = 0 long before: the gate refuses that state
        p = tmp_path / "run.cfg"
        p.write_text(NO_SWEEP.replace("t_max = 8", "t_max = 1e305")
                     .replace("= fidelity_vs_time", "= variance_trajectory"))
        assert cli_main(["validate", str(p)]) == EXIT_OK
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: unphysical flow state (label True) at t = " in err
        assert not list((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("case", [*sorted(FLOW_RUNS), "driven_fidelity_vs_time"])
    def test_validate_checks_every_point_run_evaluates(self, case, monkeypatch):
        # every point whose flows a runner builds was built by validate too, and
        # validate runs the base rules once per distinct point; a point's drive
        # variant only picks the labels its flows are built for
        text = FLOW_RUNS.get(case) or (
            FLOW_RUNS["driven_suite"].replace("= driven_suite", "= fidelity_vs_time")
            + "\n[sweep]\nparameter = variant\nvalues = plain, no_secular\n")
        config = parse_config(text)
        seen = {"validate": [], "run": [], "checked": []}
        check = config_module._check

        def recorder(key, build):
            def recorded(point, labels):
                seen[key].append(replace(point, drive_variant="plain"))
                return build(point, labels)
            return recorded

        monkeypatch.setattr(config_module, "markov_flows",
                            recorder("validate", config_module.markov_flows))
        monkeypatch.setattr(experiments, "markov_flows", recorder("run", experiments.markov_flows))
        monkeypatch.setattr(config_module, "_check",
                            lambda point: seen["checked"].append(point) or check(point))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            experiments.run(config)
        assert seen["run"] and set(seen["run"]) <= set(seen["validate"])
        assert len(seen["checked"]) == len(set(seen["checked"]))

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
