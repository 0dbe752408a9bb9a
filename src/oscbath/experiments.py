"""Experiments: each reproduces one figure-class of the study as a tidy table.

``run(config)`` is the one way to run them: it validates the config, runs each
of ``config.experiments`` in order and returns one ExperimentResult per
experiment, whose rows are (sweep_param, sweep_value, t, quantity, value).  It
raises ArithmeticError, returning nothing, if any row holds a non-finite time or
value.  Runs are serial and deterministic: identical configs produce
byte-identical CSV.  ``_compare`` is the one comparison of an exact evolution
with Markovian flows: it assembles a scenario's exact side and the flows its
labels name (``flows.markov_flows`` takes their coefficients), evaluates the
exact states at every reported time in one batched call and each flow at those
times, and raises ArithmeticError if any of those states is unphysical.  The
private runners check nothing else: the points each evaluates are the ones
``config.validate`` checked, from ``config.sweep_points``.  Both suites are one
runner, ``_suite``, which takes the sweeps it reports at t_max from
``config.EXPERIMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .bath import OhmicSpectrum, corr_c0, corr_ct, discretize, fwhh, omega_range
from .config import (EXPERIMENTS, ScenarioConfig, config_text, parse_config, sweep_points,
                     validate)
from .exact import ReducedPropagator, full_states
from .flows import DRIVE_VARIANTS, EQUATIONS, evolve_flow, markov_flows
from .gaussian import (PHYSICALITY_TOL, GaussianState, db_distance, fidelity_multi,
                       make_coherent, make_squeezed_vacuum, make_thermal, make_vacuum,
                       partial_trace, physicality_violation, tensor_product)

__all__ = ["ExperimentResult", "config_from_csv", "run"]

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


def _compare(config: ScenarioConfig, labels, times):
    """Exact reduced states and the states of each flow named in ``labels`` at ``times``.

    The flows are ``flows.markov_flows(config, labels)``.  Both oscillators of
    ``two_coupled`` share one discretized bath.  The exact states at all
    ``times`` come from one batched call, however many flows share them.
    Returns (exact states, [flow states per label]), or raises ArithmeticError
    if a state is unphysical (min eig(C + i sigma) below ``PHYSICALITY_TOL``).
    """
    pair = config.scenario == "two_coupled"
    drive = (config.rabi, config.omega_l) if config.scenario == "driven" else None
    exact = ReducedPropagator.build(config.omega, _bath(config),
                                    beta=config.beta if pair else None, drive=drive)
    sys0 = _system_state(config, 2 if pair else 1)
    flows = markov_flows(config, labels)
    temperatures = config.bath_temperatures if pair else [config.temperature]
    exact_states = exact.states(times, sys0, temperatures)
    flow_states = [[evolve_flow(flow, sys0, t) for t in times] for flow in flows]
    sides = ["exact state", *(f"flow state (label {label!r})" for label in labels)]
    for side, states in zip(sides, (exact_states, *flow_states)):
        for t, state in zip(times, states):  # a non-finite state is run's to refuse
            lowest = physicality_violation(state) if np.isfinite(state.cov).all() else 0.0
            if lowest < PHYSICALITY_TOL:
                raise ArithmeticError(f"unphysical {side} at t = {_g17(t)}: min eig(C + i sigma) "
                                      f"= {lowest:.3e} < {PHYSICALITY_TOL:g}; no CSV written")
    return exact_states, flow_states


def _curves(config: ScenarioConfig, labels, metric, times) -> list:
    """metric(exact state, flow state) at ``times`` for each flow in ``labels``."""
    exact, states = _compare(config, labels, times)
    return [[metric(e, m) for e, m in zip(exact, s)] for s in states]


def _rows(param: str, times, curves) -> list:
    """Tidy rows of ``curves``, each a (sweep value, quantity, values at ``times``) triple."""
    return [(param, value, t, quantity, v)
            for value, quantity, curve in curves for t, v in zip(times, curve)]


# ---------------------------------------------------------------------------
# experiments

_VARIANCE_QUANTITIES = ("var2x_exact", "var2x_markov_shift", "var2x_markov_noshift")


def _variance_trajectory(config: ScenarioConfig) -> list:
    """2(dx)^2 of the oscillator: exact bath vs Markovian flow with/without shift."""
    times = _times(config)
    shifted = (True, False) if config.bath_modes > 0 else ()
    exact, states = _compare(config, shifted, times)
    return [("none", "", t, quantity, s.cov[0, 0])
            for t, *at_t in zip(times, exact, *states)
            for quantity, s in zip(_VARIANCE_QUANTITIES, at_t)]


def _fidelity_vs_time(config: ScenarioConfig) -> list:
    """Fidelity between exact reduced state and the Markovian prediction over time."""
    times = _times(config)
    if config.scenario == "single":
        return _rows("temperature", times, [
            (_g17(temp), "fidelity", _curves(point, (True,), fidelity_multi, times)[0])
            for temp, point in sweep_points(config, "temperature")])
    param, labels = (("equation", EQUATIONS) if config.scenario == "two_coupled"
                     else ("variant", [v for v, _ in sweep_points(config, "variant")]))
    curves = _curves(config, labels, fidelity_multi, times)
    return _rows(param, times, [(label, "fidelity", curve)
                                for label, curve in zip(labels, curves)])


def _recurrence_map(config: ScenarioConfig) -> list:
    """D_B between exact and Markovian states on a (t, bath size) grid."""
    times = _times(config)
    return _rows("modes", times, [
        (str(m), "bures_db", _curves(point, (True,), db_distance, times)[0])
        for m, point in sweep_points(config, "modes")])


def _correlation_study(config: ScenarioConfig) -> list:
    """|C(s,T)| curves and FWHH(T), plus the zero-temperature kernel."""
    spec = _spectrum(config)
    s_grid = _times(config)
    bound = max(config.t_max, 20.0 / spec.omega_c)
    rows = []
    for s in s_grid:
        rows.append(("none", "", s, "abs_corr_c0", abs(corr_c0(spec, s))))
    rows.append(("none", "", 0.0, "fwhh_c0",
                 fwhh(lambda s: abs(corr_c0(spec, s)), bound)))
    for temp, _ in sweep_points(config, "temperature"):
        for s in s_grid:
            rows.append(("temperature", _g17(temp), s, "abs_corr_ct",
                         abs(corr_ct(spec, s, temp))))
        # the thermal kernel broadens like 1/T, so the width search must too
        rows.append(("temperature", _g17(temp), 0.0, "fwhh_ct",
                     fwhh(lambda s: abs(corr_ct(spec, s, temp)),
                          max(bound, 10.0 / temp))))
    return rows


def _factorization_curve(config: ScenarioConfig) -> list:
    bath = _bath(config)
    # full_states holds the one dense eigh of the package: a full state needs
    # every row of the propagator, not the system rows of _compare's spectral
    # path.  An arrowhead eigenbasis would do, but rounding in fidelity_multi at
    # near-pure bath modes dominates this full-state D_B, which moves by up to
    # 3.5e-5 at t = 0 (and 1.4e-9 later) under another, equally exact eigenbasis
    # of W.  Once fidelity_multi is faithful there (ROADMAP item 4) and the
    # golden rows are re-recorded, the basis can come from the arrowhead spectrum.
    bath_thermal = make_thermal(bath.frequencies, config.temperature)
    global0 = tensor_product(_system_state(config, 1), bath_thermal)
    times = _times(config)
    return [(t, db_distance(full, tensor_product(partial_trace(full, {0}), bath_thermal)))
            for t, full in zip(times, full_states(config.omega, bath, global0, times))]


def _factorization_distance(config: ScenarioConfig) -> list:
    """D_B between the full evolved state and the product ansatz rho_S(t) x rho_th."""
    rows = []
    for alpha, point in sweep_points(config, "alpha"):
        for t, d in _factorization_curve(point):
            rows.append(("alpha", _g17(alpha), t, "bures_db", d))
    return rows


def _suite(name: str, config: ScenarioConfig) -> list:
    """A suite's fidelities: each equation's (pair) or drive variant's curve over time,
    its fidelity at t_max at each point of every further sweep the suite reads, and
    (pair) the fidelity between the two equations' states over time."""
    times, t_end = _times(config), config.t_max
    pair = config.scenario == "two_coupled"
    labels = EQUATIONS if pair else DRIVE_VARIANTS
    exact, states = _compare(config, labels, times)
    rows = _rows("equation" if pair else "variant", times, [
        (label, "fidelity", map(fidelity_multi, exact, s)) for label, s in zip(labels, states)])
    for param in (p for p in EXPERIMENTS[name][config.scenario] if p != "none"):
        for value, point in sweep_points(config, param):
            ends = _curves(point, labels, fidelity_multi, [t_end])
            rows += _rows(param, [t_end], [(_g17(value), f"fidelity_{label}", end)
                                           for label, end in zip(labels, ends)])
    if pair:
        rows += _rows("none", times, [("", "fidelity_between_equations",
                                       map(fidelity_multi, *states))])
    return rows


_RUNNERS = {
    "variance_trajectory": _variance_trajectory,
    "fidelity_vs_time": _fidelity_vs_time,
    "recurrence_map": _recurrence_map,
    "correlation_study": _correlation_study,
    "factorization_distance": _factorization_distance,
    **{suite: partial(_suite, suite) for suite in ("two_oscillator_suite", "driven_suite")},
}


def run(config: ScenarioConfig) -> list[ExperimentResult]:
    """The results of ``config.experiments``, in order, on a config ``validate`` accepts.

    Raises ConfigError if ``validate`` refuses the config, and ArithmeticError
    if a result holds a non-finite time or value.
    """
    validate(config)
    results = []
    for name in config.experiments:
        rows = _RUNNERS[name](config)
        numbers = np.array([(t, value) for _, _, t, _, value in rows], dtype=float)
        if not np.isfinite(numbers).all():
            raise ArithmeticError(f"{name} produced a non-finite value; no CSV written")
        results.append(ExperimentResult(name, config, rows))
    return results
