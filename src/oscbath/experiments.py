"""Experiment runners: each reproduces one figure-class of the study as a tidy table.

Every runner takes a ScenarioConfig and returns an ExperimentResult whose rows
are (sweep_param, sweep_value, t, quantity, value).  Runs are serial and
deterministic: identical configs produce byte-identical CSV.  Every comparison
of an exact evolution with Markovian flows goes through ``_compare``, which
evaluates the exact state once per reported time and each flow at those times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bath import (OhmicSpectrum, bose_occupation, corr_c0, corr_ct, decay_rate,
                   discretize, fwhh, lamb_shift, omega_range)
from .config import ConfigError, ScenarioConfig, config_text, validate
from .exact import (PropagatorCache, build_drive, build_single, build_two,
                    initial_variances, propagator, reduced_state)
from .flows import (RABI_VARIANTS, evolve_flow, flow_driven, flow_single,
                    flow_two_large_beta, flow_two_small_beta,
                    rabi_renormalizations)
from .gaussian import (GaussianState, db_distance, fidelity_multi, make_coherent,
                       make_squeezed_vacuum, make_thermal, make_vacuum,
                       partial_trace, tensor_product)

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "run_variance_trajectory",
    "run_fidelity_vs_time",
    "run_recurrence_map",
    "run_correlation_study",
    "run_factorization_distance",
    "run_two_oscillator_suite",
    "run_driven_suite",
    "recurrence_onset",
    "linear_fit",
    "driven_variant_error",
]

CSV_HEADER = "sweep_param,sweep_value,t,quantity,value"

_CONVENTION_NOTE = ("x=(a+a^dag)/sqrt(2), block (x...,p...) ordering, vacuum "
                    "covariance = identity; driven runs are reported in the "
                    "frame rotating at omega_l")


def _g17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class ExperimentResult:
    """Tidy rows plus a metadata header echoing the full configuration."""

    name: str
    config: ScenarioConfig
    rows: list

    def to_csv(self) -> str:
        lines = [f"# oscbath {__version__}", f"# experiment: {self.name}",
                 f"# conventions: {_CONVENTION_NOTE}", "# config:"]
        for line in config_text(self.config).splitlines():
            lines.append(f"# {line}" if line else "#")
        lines.append(CSV_HEADER)
        for sweep_param, sweep_value, t, quantity, value in self.rows:
            lines.append(f"{sweep_param},{sweep_value},{_g17(t)},{quantity},{_g17(value)}")
        return "\n".join(lines) + "\n"


def config_from_csv(text: str) -> ScenarioConfig:
    """Recover the configuration echoed in a result header (round-trip contract)."""
    from .config import parse_config

    lines = []
    in_config = False
    for line in text.splitlines():
        if line.startswith("# config:"):
            in_config = True
            continue
        if in_config:
            if not line.startswith("#"):
                break
            lines.append(line[2:] if line.startswith("# ") else "")
    return parse_config("\n".join(lines))


# ---------------------------------------------------------------------------
# scenario assembly helpers

def _spectrum(config: ScenarioConfig) -> OhmicSpectrum:
    return OhmicSpectrum(config.alpha, config.omega_c)


def _bath(config: ScenarioConfig):
    if config.bath_modes == 0:
        return None
    spectrum = _spectrum(config)
    omega_min = config.range_omega_min if config.range_omega_min > 0 else None
    rng = omega_range(spectrum, config.range_mode, floor=config.range_floor,
                      omega_min=omega_min)
    return discretize(spectrum, config.bath_modes, rng)


def _system_state(config: ScenarioConfig, n_modes: int) -> GaussianState:
    if config.initial == "vacuum":
        return make_vacuum(n_modes)
    if config.initial == "thermal":
        freqs = [config.omega, config.omega2][:n_modes]
        return make_thermal(freqs, config.initial_temperature)
    if config.initial == "squeezed":
        state = make_squeezed_vacuum(config.initial_squeeze)
    else:
        state = make_coherent(complex(config.initial_coherent_re,
                                      config.initial_coherent_im))
    if n_modes == 2:
        state = tensor_product(state, state)
    return state


def _times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.samples)


_SWEEP_TYPES = {"modes": int, "variant": str}


def _swept(config: ScenarioConfig, parameter: str, default) -> list:
    """Values of ``parameter`` to run: the config's sweep over it, else ``default``.

    Each value becomes a config with ``dataclasses.replace`` at the call site.
    """
    if config.sweep_parameter != parameter:
        return list(default)
    kind = _SWEEP_TYPES.get(parameter, float)
    return [kind(v) for v in config.sweep_values]


def _exact(config: ScenarioConfig):
    """(bath, cache, system state, t -> exact reduced state) of the config's scenario.

    Both oscillators of ``two_coupled`` share one discretized bath; ``driven``
    builds the drive (a singular W - omega_L raises ArithmeticError here).
    """
    bath = _bath(config)
    if config.scenario == "two_coupled":
        coupling = build_two(config.omega, config.omega2, config.beta, bath, bath)
        variances = initial_variances(coupling, [bath, bath], config.bath_temperatures)
        sys0 = _system_state(config, 2)
    else:
        coupling = build_single(config.omega, bath)
        variances = initial_variances(coupling, [bath], [config.temperature])
        sys0 = _system_state(config, 1)
    if config.scenario == "driven":
        cache = build_drive(coupling, config.rabi, config.omega_l)
    else:
        cache = PropagatorCache.build(coupling)
    return bath, cache, sys0, lambda t: reduced_state(cache, t, sys0, variances)


def _compare(exact_at, flows, sys0: GaussianState, times):
    """Exact reduced states and every flow's states at the same times.

    ``exact_at(t)`` is evaluated once per time, however many flows it is
    compared with; returns (exact_states, [flow_states per flow]).
    """
    exact = [exact_at(t) for t in times]
    return exact, [[evolve_flow(flow, sys0, t) for t in times] for flow in flows]


def _single_curve(config: ScenarioConfig, metric, shifted=(True,)) -> list:
    """(t, metric(exact, *flow_states)) over the time grid of one oscillator.

    ``shifted`` lists the Markovian flows to compare, with (True) or without
    (False) the bath-induced frequency shift.
    """
    spec = _spectrum(config)
    _, _, sys0, exact_at = _exact(config)
    gamma = decay_rate(spec, config.omega)
    nbar = bose_occupation(config.omega, config.temperature)
    shift = lamb_shift(spec, config.omega)
    flows = [flow_single(config.omega + shift if s else config.omega, gamma, nbar)
             for s in shifted]
    times = _times(config)
    exact, states = _compare(exact_at, flows, sys0, times)
    return [(t, metric(*at_t)) for t, *at_t in zip(times, exact, *states)]


# ---------------------------------------------------------------------------
# experiments

_VARIANCE_QUANTITIES = ("var2x_exact", "var2x_markov_shift", "var2x_markov_noshift")


def run_variance_trajectory(config: ScenarioConfig) -> ExperimentResult:
    """2(dx)^2 of the oscillator: exact bath vs Markovian flow with/without shift."""
    if config.scenario != "single":
        raise ConfigError("variance_trajectory requires scenario=single")
    shifted = (True, False) if config.bath_modes > 0 else ()
    curve = _single_curve(config, lambda *states: [s.cov[0, 0] for s in states],
                          shifted=shifted)
    rows = [("none", "", t, quantity, value) for t, values in curve
            for quantity, value in zip(_VARIANCE_QUANTITIES, values)]
    return ExperimentResult("variance_trajectory", config, rows)


def run_fidelity_vs_time(config: ScenarioConfig) -> ExperimentResult:
    """Fidelity between exact reduced state and the Markovian prediction over time."""
    rows = []
    times = _times(config)
    if config.scenario == "single":
        for temp in _swept(config, "temperature", [config.temperature]):
            for t, f in _single_curve(replace(config, temperature=temp), fidelity_multi):
                rows.append(("temperature", _g17(temp), t, "fidelity", f))
    elif config.scenario == "two_coupled":
        rows = _equation_rows(times, *_two_oscillator_states(config, times))
    else:
        variants = _swept(config, "variant", RABI_VARIANTS)
        curves = _driven_curves(config, variants, fidelity_multi, times)
        for variant, curve in zip(variants, curves):
            for t, f in zip(times, curve):
                rows.append(("variant", variant, t, "fidelity", f))
    return ExperimentResult("fidelity_vs_time", config, rows)


def run_recurrence_map(config: ScenarioConfig) -> ExperimentResult:
    """D_B between exact and Markovian states on a (t, bath size) grid."""
    if config.scenario != "single":
        raise ConfigError("recurrence_map requires scenario=single")
    if config.sweep_parameter != "modes" or not config.sweep_values:
        raise ConfigError("recurrence_map requires a sweep over modes")
    rows = []
    for m in _swept(config, "modes", ()):
        for t, d in _single_curve(replace(config, bath_modes=m), db_distance):
            rows.append(("modes", str(m), t, "bures_db", d))
    return ExperimentResult("recurrence_map", config, rows)


def run_correlation_study(config: ScenarioConfig) -> ExperimentResult:
    """|C(s,T)| curves and FWHH(T), plus the zero-temperature kernel."""
    spec = _spectrum(config)
    temps = _swept(config, "temperature", [config.temperature])
    s_grid = _times(config)
    bound = max(config.t_max, 20.0 / spec.omega_c)
    rows = []
    for s in s_grid:
        rows.append(("none", "", s, "abs_corr_c0", abs(corr_c0(spec, s))))
    rows.append(("none", "", 0.0, "fwhh_c0",
                 fwhh(lambda s: abs(corr_c0(spec, s)), bound)))
    for temp in temps:
        if temp <= 0:
            raise ConfigError("correlation_study temperatures must be positive")
        for s in s_grid:
            rows.append(("temperature", _g17(temp), s, "abs_corr_ct",
                         abs(corr_ct(spec, s, temp))))
        # the thermal kernel broadens like 1/T, so the width search must too
        rows.append(("temperature", _g17(temp), 0.0, "fwhh_ct",
                     fwhh(lambda s: abs(corr_ct(spec, s, temp)),
                          max(bound, 10.0 / temp))))
    return ExperimentResult("correlation_study", config, rows)


def _factorization_curve(config: ScenarioConfig) -> list:
    bath = _bath(config)
    # Dense eigh, not the arrowhead solver of PropagatorCache.build: rounding
    # in fidelity_multi at near-pure bath modes dominates this full-state D_B,
    # which moves by up to 3.5e-5 at t = 0 (and 1.4e-9 later) under another,
    # equally exact eigenbasis of W.  Once fidelity_multi is faithful there
    # (ROADMAP item 1) and the golden rows are re-recorded, build this cache
    # through _exact instead.
    cache = PropagatorCache.from_eigh(build_single(config.omega, bath))
    bath_thermal = make_thermal(bath.frequencies, config.temperature)
    global0 = tensor_product(_system_state(config, 1), bath_thermal)
    n = cache.dim
    out = []
    for t in _times(config):
        prop = propagator(cache, t)
        full = GaussianState(n, prop @ global0.mean, prop @ global0.cov @ prop.T)
        ansatz = tensor_product(partial_trace(full, {0}), bath_thermal)
        out.append((t, db_distance(full, ansatz)))
    return out


def run_factorization_distance(config: ScenarioConfig) -> ExperimentResult:
    """D_B between the full evolved state and the product ansatz rho_S(t) x rho_th."""
    if config.scenario != "single":
        raise ConfigError("factorization_distance requires scenario=single")
    if config.bath_modes == 0:
        raise ConfigError("factorization_distance needs a bath (modes >= 2)")
    if config.bath_modes > 60:
        raise ConfigError("factorization_distance caps the bath at 60 modes "
                          "(full-state fidelity)")
    rows = []
    for alpha in _swept(config, "alpha", [config.alpha]):
        for t, d in _factorization_curve(replace(config, alpha=alpha)):
            rows.append(("alpha", _g17(alpha), t, "bures_db", d))
    return ExperimentResult("factorization_distance", config, rows)


# -- two-oscillator machinery -----------------------------------------------

EQUATIONS = ("small_beta", "large_beta")


def _two_oscillator_states(config: ScenarioConfig, times):
    """Exact states and both equations' flow states (``EQUATIONS`` order) at ``times``."""
    if config.omega2 != config.omega:
        raise ConfigError("the two-oscillator study assumes equal frequencies "
                          "Omega1 = Omega2")
    spec = _spectrum(config)
    t1, t2 = config.bath_temperatures
    _, _, sys0, exact_at = _exact(config)
    gammas = (decay_rate(spec, config.omega), decay_rate(spec, config.omega2))
    nbars = (bose_occupation(config.omega, t1), bose_occupation(config.omega2, t2))
    shift = lamb_shift(spec, config.omega)
    small = flow_two_small_beta((config.omega + shift, config.omega2 + shift),
                                config.beta, gammas, nbars)
    large = flow_two_large_beta((spec, spec), (t1, t2), config.omega, config.beta)
    return _compare(exact_at, (small, large), sys0, times)


def _equation_rows(times, exact, flow_states) -> list:
    return [("equation", eq, t, "fidelity", fidelity_multi(e, m))
            for eq, states in zip(EQUATIONS, flow_states)
            for t, e, m in zip(times, exact, states)]


DEFAULT_BETA_GRID = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


def run_two_oscillator_suite(config: ScenarioConfig) -> ExperimentResult:
    """Fidelity vs t for both equations, vs beta at t_max, and between equations."""
    if config.scenario != "two_coupled":
        raise ConfigError("two_oscillator_suite requires scenario=two_coupled")
    times = _times(config)
    exact, flow_states = _two_oscillator_states(config, times)
    rows = _equation_rows(times, exact, flow_states)

    betas = _swept(config, "beta", [b * config.omega for b in DEFAULT_BETA_GRID])
    for beta in betas:
        (exact_end,), ends = _two_oscillator_states(replace(config, beta=beta),
                                                    [config.t_max])
        for eq, (state,) in zip(EQUATIONS, ends):
            rows.append(("beta", _g17(beta), config.t_max, f"fidelity_{eq}",
                         fidelity_multi(exact_end, state)))

    for t, small, large in zip(times, *flow_states):
        rows.append(("none", "", t, "fidelity_between_equations",
                     fidelity_multi(small, large)))
    return ExperimentResult("two_oscillator_suite", config, rows)


# -- driven machinery ---------------------------------------------------------

def _driven_curves(config: ScenarioConfig, variants, metric, times) -> list:
    """metric(exact, flow state) at ``times`` for each drive variant.

    The exact evolution does not depend on the variant, so one drive serves
    all of them.  It is built first: a singular W - omega_L raises
    ArithmeticError before any variant can reject exact resonance.
    """
    _, _, sys0, exact_at = _exact(config)
    spec = _spectrum(config)
    omega, wl = config.omega, config.omega_l
    gamma = decay_rate(spec, omega)
    nbar = bose_occupation(omega, config.temperature)
    omega_bar = omega + lamb_shift(spec, omega)
    flows = [flow_driven(omega_bar, gamma, nbar,
                         rabi_renormalizations(spec, omega, wl, config.rabi, v), wl)
             for v in variants]
    exact, states = _compare(exact_at, flows, sys0, times)
    return [[metric(e, m) for e, m in zip(exact, s)] for s in states]


def driven_variant_error(config: ScenarioConfig, variant: str) -> float:
    """Time-averaged D_B between exact and Markovian driven evolution."""
    (dists,) = _driven_curves(config, [variant], db_distance, _times(config))
    return float(np.mean(dists))


DEFAULT_DETUNING_GRID = (-0.5, -0.2, -0.1, -0.05, -0.02, -0.005,
                         0.005, 0.02, 0.05, 0.1, 0.2, 0.5)
DEFAULT_RABI_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


def run_driven_suite(config: ScenarioConfig) -> ExperimentResult:
    """Driven-oscillator fidelities vs time, detuning (at t_max) and Rabi frequency."""
    if config.scenario != "driven":
        raise ConfigError("driven_suite requires scenario=driven")
    rows = []
    times = _times(config)
    curves = _driven_curves(config, RABI_VARIANTS, fidelity_multi, times)
    for variant, curve in zip(RABI_VARIANTS, curves):
        for t, f in zip(times, curve):
            rows.append(("variant", variant, t, "fidelity", f))

    points = [("detuning", d, replace(config, omega_l=config.omega + d))
              for d in _swept(config, "detuning", DEFAULT_DETUNING_GRID)] \
        + [("rabi", r, replace(config, rabi=r))
           for r in _swept(config, "rabi", DEFAULT_RABI_GRID)]
    for param, value, point in points:
        ends = _driven_curves(point, RABI_VARIANTS, fidelity_multi, [config.t_max])
        for variant, (f,) in zip(RABI_VARIANTS, ends):
            rows.append((param, _g17(value), config.t_max, f"fidelity_{variant}", f))
    return ExperimentResult("driven_suite", config, rows)


_RUNNERS = {
    "variance_trajectory": run_variance_trajectory,
    "fidelity_vs_time": run_fidelity_vs_time,
    "recurrence_map": run_recurrence_map,
    "correlation_study": run_correlation_study,
    "factorization_distance": run_factorization_distance,
    "two_oscillator_suite": run_two_oscillator_suite,
    "driven_suite": run_driven_suite,
}


def run_experiment(name: str, config: ScenarioConfig) -> ExperimentResult:
    validate(config)
    if name not in _RUNNERS:
        raise ConfigError(f"unknown experiment {name!r}")
    return _RUNNERS[name](config)


# ---------------------------------------------------------------------------
# analysis helpers

def recurrence_onset(times, values, baseline_end: float, factor: float = 3.0) -> float:
    """First time the distance exceeds ``factor`` times its pre-recurrence median.

    The baseline window starts after the initial adjustment transient (first
    tenth of the window) and ends at ``baseline_end``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window = (times > 0.1 * baseline_end) & (times <= baseline_end)
    if window.sum() < 3:
        raise ValueError("baseline window too short to estimate an onset")
    threshold = factor * np.median(values[window])
    beyond = np.nonzero((times > baseline_end) & (values > threshold))[0]
    if beyond.size == 0:
        raise ArithmeticError("no recurrence onset detected within the time grid")
    return float(times[beyond[0]])


def linear_fit(x, y):
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    r2 = 1.0 - float(resid @ resid) / float(total @ total)
    return float(slope), float(intercept), r2
