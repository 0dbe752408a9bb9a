import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscbath
from oscbath import cli
from oscbath.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli_main
from oscbath.config import (ConfigError, ScenarioConfig, config_text,
                            parse_config, validate)
from oscbath.experiments import ExperimentResult, config_from_csv

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
    # the default detuning grid reaches -0.5, below -Omega here
    "default_detunings_below_minus_omega": RESONANT_DRIVEN
    .replace("omega = 1\n", "omega = 0.4\n").replace("omega_l = 1", "omega_l = 0.45"),
}

ORACLE_SINGLE = ("[oracle]\nfamily = single\ncutoff = 10\nt = 2\n"
                 "gamma = 0.08\nnbar = 0.2\nomega_bar = 1.0\n")

# one [oracle] key changed per case
BAD_ORACLES = {
    "cutoff_3": ORACLE_SINGLE.replace("cutoff = 10", "cutoff = 3"),
    "gamma_zero": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = 0"),
    "gamma_not_a_number": ORACLE_SINGLE.replace("gamma = 0.08", "gamma = abc"),
    "driven_negative_nbar": ORACLE_SINGLE.replace("single", "driven")
    .replace("nbar = 0.2", "nbar = -1"),
    "two_large_beta_above_omega": ORACLE_SINGLE.replace("single", "two_large") + "beta = 2\n",
    "t_nan": ORACLE_SINGLE.replace("t = 2", "t = nan"),
    "t_negative": ORACLE_SINGLE.replace("t = 2", "t = -1"),
    "unknown_key": ORACLE_SINGLE + "gama = 0.1\n",
}


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(SMALL_RUN)
        assert cfg.bath_modes == 12
        assert cfg.sweep_values == (0.1, 1.0)
        assert parse_config(config_text(cfg)) == cfg

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

    @pytest.mark.parametrize("case", ["swept_beta_above_omega", "swept_beta_negative",
                                      "swept_alpha_zero",
                                      "swept_detuning_below_minus_omega",
                                      "default_detunings_below_minus_omega"])
    def test_validate_checks_sweep_points(self, case, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BAD_RUNS[case])
        assert cli_main(["validate", str(p)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @staticmethod
    def _python(code: str, *args: str) -> str:
        """Stdout of ``python -c code args`` in a fresh process that imports this package."""
        path = [str(Path(oscbath.__file__).resolve().parent.parent),
                os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout

    def test_cli_import_leaves_out_scipy_integrate(self):
        # the quadrature and root-finding modules are most of a cold start:
        # only the oracle subcommand (through the Fock referee) needs the first,
        # and bath's Brent port replaces the second
        code = ("import sys, oscbath.cli; "
                "print('scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)")
        assert self._python(code).split() == ["False", "False"]

    def test_cli_main_runs_scipy_blas_on_one_thread(self, tmp_path):
        # scipy's OpenBLAS (expm only) drops to one thread; NumPy's keeps its default
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        code = """
import ctypes, sys
from pathlib import Path
import numpy, scipy
from oscbath.cli import cli_main

def threads(libs, pattern, getter):
    for path in sorted(Path(libs).glob(pattern)):
        fn = getattr(ctypes.CDLL(str(path)), getter, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return -1

site = Path(scipy.__file__).resolve().parent.parent
def both():
    return (threads(site / "scipy.libs", "libscipy_openblas*.so",
                    "scipy_openblas_get_num_threads"),
            threads(Path(numpy.__file__).resolve().parent.parent / "numpy.libs",
                    "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"))
before = both()
assert cli_main(["validate", sys.argv[1]]) == 0
print(*before, *both())
"""
        scipy_before, numpy_before, scipy_after, numpy_after = map(
            int, self._python(code, str(p)).split()[-4:])
        if scipy_before < 0:
            pytest.skip("scipy has no bundled OpenBLAS to pin")
        assert scipy_after == 1
        assert numpy_after == numpy_before

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
                     "[output]\nexperiments = driven_suite\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_RUNS))
    def test_bad_input_is_a_config_error(self, case, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(BAD_RUNS[case])
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_resonant_plain_fidelity_vs_time_runs(self, tmp_path):
        p = tmp_path / "res.cfg"
        p.write_text(BAD_RUNS["resonant_fidelity_vs_time"]
                     + "\n[sweep]\nparameter = variant\nvalues = plain\n")
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_non_finite_result_is_not_written(self, tmp_path, capsys, monkeypatch):
        def nan_result(name, config):
            return ExperimentResult(name, config, [("none", "", 0.0, "x", float("nan"))])

        monkeypatch.setattr(cli, "run_experiment", nan_result)
        p = tmp_path / "run.cfg"
        p.write_text(SMALL_RUN)
        assert cli_main(["run", str(p), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*.csv"))

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

    @pytest.mark.parametrize("case", sorted(BAD_ORACLES))
    def test_bad_oracle_input_is_a_config_error(self, case, tmp_path, capsys):
        p = tmp_path / "oracle.cfg"
        p.write_text(BAD_ORACLES[case])
        assert cli_main(["oracle", str(p)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""
