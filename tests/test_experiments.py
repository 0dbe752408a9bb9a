import warnings

import numpy as np
import pytest
from conftest import driven_variant_error, linear_fit, recurrence_onset, run_one

from oscbath import exact, experiments, flows
from oscbath.bath import OhmicSpectrum, bose_occupation, decay_rate, lamb_shift
from oscbath.config import DEFAULT_RABI_GRID, ConfigError, ScenarioConfig
from oscbath.experiments import config_from_csv
from oscbath.gaussian import make_squeezed_vacuum


def rows_by_quantity(result, quantity, sweep_value=None):
    out = []
    for sweep_param, sv, t, q, v in result.rows:
        if q == quantity and (sweep_value is None or sv == sweep_value):
            out.append((t, v))
    return out


BASE_SINGLE = dict(scenario="single", omega=1.0, alpha=0.01, omega_c=3.0,
                   bath_modes=40, range_mode="floor", range_floor=0.1,
                   temperature=0.5, t_max=10.0, samples=60)


class TestVarianceTrajectory:
    def test_free_squeezed_oscillation(self):
        # no bath: 2(dx)^2 swings between e^{-2r} and e^{+2r} at frequency 2*Omega
        cfg = ScenarioConfig(**{**BASE_SINGLE, "bath_modes": 0, "initial": "squeezed",
                                "initial_squeeze": 0.5, "t_max": 2 * np.pi,
                                "samples": 721})
        res = run_one("variance_trajectory", cfg)
        curve = rows_by_quantity(res, "var2x_exact")
        times = np.array([t for t, _ in curve])
        vals = np.array([v for _, v in curve])
        expect = (np.cos(times) ** 2 * np.exp(-1.0) + np.sin(times) ** 2 * np.exp(1.0))
        np.testing.assert_allclose(vals, expect, atol=1e-10)

    def test_matched_thermal_state_is_stationary(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "initial": "thermal",
                                "initial_temperature": 0.5, "bath_modes": 120,
                                "t_max": 20.0})
        res = run_one("variance_trajectory", cfg)
        nu = 1.0 / np.tanh(1.0 / (2 * 0.5))
        for quantity in ("var2x_exact", "var2x_markov_shift", "var2x_markov_noshift"):
            vals = np.array([v for _, v in rows_by_quantity(res, quantity)])
            assert np.abs(vals - nu).max() / nu < 0.02

    def test_markov_curves_match_damped_rotation_closed_form(self):
        # C(t) = e^{-2 g t} R(w t)(C0 - nu) R(w t)^T + nu, w with/without shift
        cfg = ScenarioConfig(**{**BASE_SINGLE, "initial": "squeezed",
                                "initial_squeeze": 0.4})
        res = run_one("variance_trajectory", cfg)
        spec = OhmicSpectrum(cfg.alpha, cfg.omega_c)
        gamma = decay_rate(spec, cfg.omega)
        nu = 2 * bose_occupation(cfg.omega, cfg.temperature) + 1
        c0 = make_squeezed_vacuum(0.4).cov

        def closed_form(t, w):
            rot = np.array([[np.cos(w * t), np.sin(w * t)],
                            [-np.sin(w * t), np.cos(w * t)]])
            c = np.exp(-2 * gamma * t) * rot @ (c0 - nu * np.eye(2)) @ rot.T
            return c[0, 0] + nu

        shift = lamb_shift(spec, cfg.omega)
        for quantity, w in (("var2x_markov_shift", cfg.omega + shift),
                            ("var2x_markov_noshift", cfg.omega)):
            for t, v in rows_by_quantity(res, quantity):
                assert v == pytest.approx(closed_form(t, w), abs=1e-10)

    def test_rejects_wrong_scenario(self):
        with pytest.raises(ConfigError):
            run_one("variance_trajectory",
                           ScenarioConfig(scenario="driven", omega_l=1.2))


class TestFidelityVsTime:
    def test_decoupled_bath_keeps_unit_fidelity(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "alpha": 1e-9, "initial": "squeezed",
                                "initial_squeeze": 0.3, "bath_modes": 20})
        res = run_one("fidelity_vs_time", cfg)
        vals = [v for _, v in rows_by_quantity(res, "fidelity")]
        assert min(vals) > 1.0 - 1e-5

    def test_starts_at_unit_fidelity(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "initial": "thermal",
                                "initial_temperature": 4.0})
        res = run_one("fidelity_vs_time", cfg)
        t0, f0 = rows_by_quantity(res, "fidelity")[0]
        assert t0 == 0.0
        assert f0 == pytest.approx(1.0, abs=1e-9)

    def test_high_fidelity_anchor_weak_coupling(self):
        # alpha = 0.002, M = 150 desk configuration stays above 0.99 to t = 50
        cfg = ScenarioConfig(scenario="single", omega=1.0, alpha=0.002, omega_c=3.0,
                             bath_modes=150, range_mode="equal_tails",
                             temperature=0.0, initial="thermal",
                             initial_temperature=30.0, t_max=50.0, samples=120)
        res = run_one("fidelity_vs_time", cfg)
        vals = [v for _, v in rows_by_quantity(res, "fidelity")]
        assert min(vals) > 0.99


class TestRecurrenceMap:
    def test_onset_scaling_and_early_time_m_independence(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "initial": "thermal",
                                "initial_temperature": 10.0, "temperature": 1.0,
                                "t_max": 40.0, "samples": 200,
                                "sweep_parameter": "modes",
                                "sweep_values": (30, 60)})
        res = run_one("recurrence_map", cfg)
        curves = {}
        for m in (30, 60):
            curve = rows_by_quantity(res, "bures_db", sweep_value=str(m))
            curves[m] = (np.array([t for t, _ in curve]), np.array([v for _, v in curve]))
        # spacing-based estimates: tau(30) ~ 12, tau(60) ~ 25 on this window
        onset30 = recurrence_onset(*curves[30], baseline_end=6.0)
        onset60 = recurrence_onset(*curves[60], baseline_end=12.0)
        assert 1.6 <= onset60 / onset30 <= 2.4
        # before any echo both maps coincide
        early = curves[30][0] < 0.4 * onset30
        assert np.abs(curves[30][1][early] - curves[60][1][early]).max() < 1e-3

    def test_requires_modes_sweep(self):
        with pytest.raises(ConfigError):
            run_one("recurrence_map", ScenarioConfig(**BASE_SINGLE))


class TestCorrelationStudy:
    def test_c0_width_closed_form(self):
        cfg = ScenarioConfig(scenario="single", alpha=0.01, omega_c=3.0,
                             t_max=6.0, samples=40,
                             sweep_parameter="temperature",
                             sweep_values=(1.0, 3.0, 10.0))
        res = run_one("correlation_study", cfg)
        width = rows_by_quantity(res, "fwhh_c0")[0][1]
        assert width == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_heights_shrink_and_widths_flatten(self):
        cfg = ScenarioConfig(scenario="single", alpha=0.01, omega_c=3.0,
                             t_max=6.0, samples=40,
                             sweep_parameter="temperature",
                             sweep_values=(0.3, 1.0, 3.0, 10.0))
        res = run_one("correlation_study", cfg)
        heights = []
        widths = []
        for temp in (0.3, 1.0, 3.0, 10.0):
            key = format(temp, ".17g")
            curve = rows_by_quantity(res, "abs_corr_ct", sweep_value=key)
            heights.append(curve[0][1])
            widths.append(rows_by_quantity(res, "fwhh_ct", sweep_value=key)[0][1])
        assert heights == sorted(heights)  # heights fall as T falls
        for w1, w2 in zip(widths, widths[1:]):
            assert w2 <= w1 + 1e-9  # FWHH non-increasing with T


class TestFactorization:
    def test_trends(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "bath_modes": 14, "temperature": 0.5,
                                "initial": "thermal", "initial_temperature": 10.0,
                                "t_max": 5.0, "samples": 30,
                                "sweep_parameter": "alpha",
                                "sweep_values": (0.002, 0.01)})
        res = run_one("factorization_distance", cfg)
        slopes = {}
        for alpha in (0.002, 0.01):
            key = format(alpha, ".17g")
            curve = rows_by_quantity(res, "bures_db", sweep_value=key)
            vals = np.array([v for _, v in curve])
            assert vals[0] == pytest.approx(0.0, abs=1e-7)
            assert np.all(np.diff(vals) >= -1e-6)
            slopes[alpha] = vals[-1] / curve[-1][0]
        assert slopes[0.002] < slopes[0.01]

    def test_large_bath_rejected(self):
        with pytest.raises(ConfigError, match="60"):
            run_one("factorization_distance",
                           ScenarioConfig(**{**BASE_SINGLE, "bath_modes": 61}))


TWO_BASE = dict(scenario="two_coupled", omega=1.0, omega2=1.0, beta=0.05,
                alpha=0.005, omega_c=3.0, bath_modes=60, range_mode="floor",
                range_floor=0.1, initial="thermal", initial_temperature=3.0,
                t_max=20.0, samples=40)


class TestTwoOscillatorSuite:
    def test_equal_baths_beta_zero_equations_agree(self):
        cfg = ScenarioConfig(**{**TWO_BASE, "beta": 0.0, "temperature": 1.0})
        res = run_one("two_oscillator_suite", cfg)
        small = rows_by_quantity(res, "fidelity", sweep_value="small_beta")
        large = rows_by_quantity(res, "fidelity", sweep_value="large_beta")
        for (_, f1), (_, f2) in zip(small, large):
            assert abs(f1 - f2) < 1e-6

    def test_crossover_exists_for_distinct_temperatures(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ScenarioConfig(**{**TWO_BASE, "bath_modes": 300,
                                    "temperature": 1.0, "temperature2": 0.1,
                                    "t_max": 100.0, "samples": 30,
                                    "sweep_parameter": "beta",
                                    "sweep_values": (0.002, 0.01, 0.05, 0.1, 0.2)})
            res = run_one("two_oscillator_suite", cfg)
        diffs = []
        for beta in cfg.sweep_values:
            key = format(beta, ".17g")
            f_small = rows_by_quantity(res, "fidelity_small_beta", sweep_value=key)[0][1]
            f_large = rows_by_quantity(res, "fidelity_large_beta", sweep_value=key)[0][1]
            diffs.append(f_small - f_large)
        assert diffs[0] > 0  # local-dissipator equation wins at weak coupling
        assert min(diffs) < 0  # strong-coupling equation wins somewhere in range
        signs = np.sign(diffs)
        assert np.any(signs[:-1] != signs[1:])

    def test_steady_state_agreement_low_temperature(self):
        # equal baths, T well below Omega: the two steady states nearly coincide
        from oscbath.flows import (flow_two_large_beta, flow_two_small_beta,
                                   steady_state)
        from oscbath.gaussian import fidelity_multi
        spec = OhmicSpectrum(0.005, 3.0)
        temp, omega, beta = 0.1, 1.0, 0.1
        gamma = decay_rate(spec, omega)
        nbar = bose_occupation(omega, temp)
        shift = lamb_shift(spec, omega)
        small = flow_two_small_beta((omega + shift,) * 2, beta, (gamma,) * 2,
                                    (nbar,) * 2)
        large = flow_two_large_beta((spec, spec), (temp, temp), omega, beta)
        f = fidelity_multi(steady_state(small), steady_state(large))
        assert f >= 0.9999


DRIVEN_BASE = dict(scenario="driven", omega=1.0, alpha=0.01, omega_c=3.0,
                   bath_modes=100, range_mode="floor", range_floor=0.1,
                   temperature=0.2, initial="vacuum", t_max=40.0, samples=100)


class TestDrivenSuite:
    def test_vanishing_rabi_variants_coincide(self):
        cfg = ScenarioConfig(**{**DRIVEN_BASE, "rabi": 1e-9, "omega_l": 1.3,
                                "samples": 30})
        res = run_one("driven_suite", cfg)
        curves = {v: rows_by_quantity(res, "fidelity", sweep_value=v)
                  for v in ("plain", "off_resonant", "no_secular")}
        for (_, f1), (_, f2), (_, f3) in zip(*curves.values()):
            assert abs(f1 - f2) < 1e-8 and abs(f1 - f3) < 1e-8

    def test_plain_worst_far_detuning_large_rabi(self):
        # drive far above the spectral mass, strong drive
        cfg = ScenarioConfig(**{**DRIVEN_BASE, "bath_modes": 150, "rabi": 0.8,
                                "omega_l": 6.0})
        errs = {v: driven_variant_error(cfg, v)
                for v in ("plain", "off_resonant", "no_secular")}
        assert errs["plain"] > errs["off_resonant"] > errs["no_secular"]

    def test_off_resonant_degrades_near_resonance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = ScenarioConfig(**{**DRIVEN_BASE, "rabi": 0.3,
                                    "omega_l": 1.002, "samples": 60})
            errs = {v: driven_variant_error(cfg, v)
                    for v in ("plain", "off_resonant", "no_secular")}
        assert errs["off_resonant"] > 5 * errs["plain"]


class TestCallCounts:
    """Each exact evolution is built once, and it and each flow are evaluated at all
    reported times in one call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"build": 0, "states": 0, "evolve": 0}
        build = experiments.ReducedPropagator.build.__func__
        states = experiments.ReducedPropagator.states
        evolve = experiments.evolve_flow

        def counted_build(cls, *args, **kwargs):
            counts["build"] += 1
            return build(cls, *args, **kwargs)

        def counted_states(*args):
            counts["states"] += 1
            return states(*args)

        def counted_evolve(*args):
            counts["evolve"] += 1
            return evolve(*args)

        monkeypatch.setattr(experiments.ReducedPropagator, "build",
                            classmethod(counted_build))
        monkeypatch.setattr(experiments.ReducedPropagator, "states", counted_states)
        monkeypatch.setattr(experiments, "evolve_flow", counted_evolve)
        return counts

    def test_driven_suite(self, counts):
        samples, detunings = 7, (-0.1, 0.05, 0.2)
        cfg = ScenarioConfig(**{**DRIVEN_BASE, "bath_modes": 20, "rabi": 0.3,
                                "omega_l": 1.2, "samples": samples,
                                "sweep_parameter": "detuning",
                                "sweep_values": detunings})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_one("driven_suite", cfg)
        points = len(detunings) + len(DEFAULT_RABI_GRID)
        assert len(DEFAULT_RABI_GRID) == 6
        assert counts == {"build": 1 + points, "states": 1 + points,
                          "evolve": 3 + 3 * points}

    def test_two_oscillator_suite(self, counts):
        samples, betas = 6, (0.01, 0.05, 0.1)
        cfg = ScenarioConfig(**{**TWO_BASE, "bath_modes": 20, "samples": samples,
                                "temperature": 1.0, "sweep_parameter": "beta",
                                "sweep_values": betas})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_one("two_oscillator_suite", cfg)
        assert counts == {"build": 1 + len(betas), "states": 1 + len(betas),
                          "evolve": 2 + 2 * len(betas)}


    @pytest.mark.parametrize("samples", [2, 9, 120])
    @pytest.mark.parametrize("base, labels", [
        (BASE_SINGLE, (True, False)),
        ({**DRIVEN_BASE, "rabi": 0.3, "omega_l": 1.2}, ("plain", "off_resonant", "no_secular")),
        (TWO_BASE, experiments.EQUATIONS),
    ], ids=["single", "driven", "two_coupled"])
    def test_compare_takes_one_exponential_call_per_flow(self, base, labels, samples,
                                                          monkeypatch):
        calls = []
        expm = flows._expm
        monkeypatch.setattr(flows, "_expm", lambda a: calls.append(a.shape) or expm(a))
        cfg = ScenarioConfig(**{**base, "bath_modes": 20, "samples": samples})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            experiments._compare(cfg, labels, np.linspace(0.0, 5.0, samples))
        assert len(calls) == len(labels)
        assert all(shape[0] == samples for shape in calls)


class TestEigensolverDispatch:
    """Reduced-state experiments skip the dense eigh; factorization calls it once per point."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = exact.np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(exact.np.linalg, "eigh", counted)
        return calls

    def run(self, name, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run_one(name, cfg)

    def test_recurrence_map(self, eigh_calls):
        self.run("recurrence_map", ScenarioConfig(**{
            **BASE_SINGLE, "samples": 4, "sweep_parameter": "modes",
            "sweep_values": (10, 20)}))
        assert eigh_calls == []

    def test_driven_suite(self, eigh_calls):
        self.run("driven_suite", ScenarioConfig(**{
            **DRIVEN_BASE, "bath_modes": 20, "rabi": 0.3, "omega_l": 1.2,
            "samples": 4, "sweep_parameter": "detuning", "sweep_values": (-0.1, 0.2)}))
        assert eigh_calls == []

    def test_factorization_distance(self, eigh_calls):
        alphas = (0.002, 0.01)
        self.run("factorization_distance", ScenarioConfig(**{
            **BASE_SINGLE, "bath_modes": 14, "samples": 4,
            "sweep_parameter": "alpha", "sweep_values": alphas}))
        assert eigh_calls == [(15, 15)] * len(alphas)

    def test_two_oscillator_suite(self, eigh_calls):
        betas = (0.01, 0.1)
        self.run("two_oscillator_suite", ScenarioConfig(**{
            **TWO_BASE, "bath_modes": 20, "samples": 4, "temperature": 1.0,
            "sweep_parameter": "beta", "sweep_values": betas}))
        assert eigh_calls == []


class TestNoDenseSolve:
    """No reduced-state scenario reaches a dense eigendecomposition, with or without a bath."""

    @pytest.fixture(autouse=True)
    def forbid_dense(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigendecomposition in a reduced-state scenario")

        monkeypatch.setattr(exact.np.linalg, "eigh", refuse)
        monkeypatch.setattr(experiments.FullPropagator, "build", refuse)

    @pytest.mark.parametrize("modes", [0, 20])
    @pytest.mark.parametrize("base, labels", [
        (BASE_SINGLE, (True, False)),
        ({**DRIVEN_BASE, "rabi": 0.3, "omega_l": 1.2}, ("plain", "off_resonant", "no_secular")),
        (TWO_BASE, experiments.EQUATIONS),
    ], ids=["single", "driven", "two_coupled"])
    def test_compare(self, base, labels, modes):
        cfg = ScenarioConfig(**{**base, "bath_modes": modes, "samples": 5})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            exact_states, flows = experiments._compare(cfg, labels, np.linspace(0.0, 5.0, 5))
        assert len(exact_states.mean) == 5 and len(flows) == len(labels)


class TestResultPlumbing:
    def test_csv_round_trip_and_determinism(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "samples": 10,
                                "sweep_parameter": "temperature",
                                "sweep_values": (0.2, 2.0),
                                "experiments": ("fidelity_vs_time",)})
        res1 = run_one("fidelity_vs_time", cfg)
        res2 = run_one("fidelity_vs_time", cfg)
        assert res1.to_csv() == res2.to_csv()
        assert config_from_csv(res1.to_csv()) == cfg

    def test_run_validates_first(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a runner ran on a config validate refuses")

        monkeypatch.setitem(experiments._RUNNERS, "factorization_distance", refuse)
        with pytest.raises(ConfigError, match="2 to 60 modes"):
            experiments.run(ScenarioConfig(**{**BASE_SINGLE, "bath_modes": 0,
                                              "experiments": ("factorization_distance",)}))

    def test_run_refuses_non_finite_rows(self, monkeypatch):
        monkeypatch.setitem(experiments._RUNNERS, "correlation_study",
                            lambda config: [("none", "", 0.0, "x", float("nan"))])
        cfg = ScenarioConfig(**{**BASE_SINGLE, "samples": 4,
                                "experiments": ("variance_trajectory", "correlation_study")})
        with pytest.raises(ArithmeticError, match="correlation_study produced a non-finite"):
            experiments.run(cfg)

    def test_every_fidelity_in_unit_interval(self):
        cfg = ScenarioConfig(**{**BASE_SINGLE, "samples": 25, "initial": "squeezed",
                                "initial_squeeze": 1.0, "temperature": 2.0})
        res = run_one("fidelity_vs_time", cfg)
        for _, _, _, q, v in res.rows:
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_linear_fit_helper(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        slope, intercept, r2 = linear_fit(x, 2.5 * x + 1.0)
        assert slope == pytest.approx(2.5)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)
