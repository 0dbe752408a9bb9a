"""Experiments: each reproduces one figure-class of the study as a tidy table.

``run(config)`` is the one way to run them: it validates the config, runs each
of ``config.experiments`` in order and returns one ExperimentResult per
experiment, whose rows are (sweep_param, sweep_value, t, quantity, value).  It
raises ArithmeticError, returning nothing, if any row holds a non-finite time or
value.  Runs are serial and deterministic: identical configs produce
byte-identical CSV.  A trajectory is one stacked ``GaussianState`` over all
reported times, made by one call and scored by one call.  ``_compare`` is the
one comparison of an exact evolution with Markovian flows: it assembles a
scenario's exact side and the flows its labels name (``flows.markov_flows``
takes their coefficients), evolves each over all times at once, and through
``_require_physical`` raises ArithmeticError if any of those states is
unphysical; the factorization's full states pass the same gate, a block of
times at a time.  The private runners check nothing else and choose nothing:
each evaluates the plan ``config.evaluations`` gives for its experiment, the
points and master equations ``config.validate`` checked.  The four
exact-vs-Markov curve experiments (fidelity over time, the recurrence map and
both suites) are one runner, ``_curves``, whose table ``_CURVES`` gives each its
metric and quantity; it is the one place that names a plan entry in the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import cycle, repeat

import numpy as np

from . import __version__
from .bath import OhmicSpectrum, corr_c0, corr_ct, fwhh
from .config import (ScenarioConfig, _bath, _fmt, _kernel_reach, _system_state, config_text,
                     evaluations, parse_config, validate)
from .exact import FullPropagator, ReducedPropagator
from .flows import evolve_flow, markov_flows
from .gaussian import (PHYSICALITY_TOL, GaussianState, db_distance, fidelity_multi,
                       make_thermal, partial_trace, physicality_violation, tensor_product)

__all__ = ["ExperimentResult", "config_from_csv", "run"]

CSV_HEADER = "sweep_param,sweep_value,t,quantity,value"

_CONVENTION_NOTE = ("x=(a+a^dag)/sqrt(2), block (x...,p...) ordering, vacuum "
                    "covariance = identity; driven runs are reported in the "
                    "frame rotating at omega_l")


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
            lines.append(f"{sweep_param},{sweep_value},{_fmt(t)},{quantity},{_fmt(value)}")
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

def _times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.samples)


def _compare(config: ScenarioConfig, labels, times):
    """Exact reduced states and the states of each flow named in ``labels`` at ``times``.

    The flows are ``flows.markov_flows(config, labels)``.  Both oscillators of
    ``two_coupled`` share one discretized bath.  The exact side and each flow
    are one call and one stack of states over all ``times``.  Returns (exact
    states, [flow states per label]), or raises ArithmeticError if a state is
    unphysical (``_require_physical``).
    """
    pair = config.scenario == "two_coupled"
    drive = (config.rabi, config.omega_l) if config.scenario == "driven" else None
    exact = ReducedPropagator.build(config.omega, _bath(config),
                                    beta=config.beta if pair else None, drive=drive)
    sys0 = _system_state(config, 2 if pair else 1)
    flows = markov_flows(config, labels) if labels else []
    temperatures = config.bath_temperatures if pair else [config.temperature]
    exact_states = exact.states(times, sys0, temperatures)
    flow_states = [evolve_flow(flow, sys0, times) for flow in flows]
    _require_physical("exact state", times, exact_states)
    for label, states in zip(labels, flow_states):
        _require_physical(f"flow state (label {label!r})", times, states)
    return exact_states, flow_states


def _require_physical(side: str, times, states: GaussianState):
    """ArithmeticError at the first of ``times`` where a finite state of the stack has
    min eig(C + i sigma), scaled to a unit diagonal (``physicality_violation``), below
    ``PHYSICALITY_TOL``; a non-finite one is run's to refuse."""
    finite = np.isfinite(states.cov).all(axis=(-2, -1))
    lowest = np.zeros(finite.shape)
    lowest[finite] = physicality_violation(states[finite])
    bad = np.flatnonzero(lowest < PHYSICALITY_TOL)
    if bad.size:
        i = bad[0]
        raise ArithmeticError(f"unphysical {side} at t = {_fmt(times[i])}: min eig(C + i sigma) "
                              f"= {lowest[i]:.3e} < {PHYSICALITY_TOL:g}; no CSV written")


def _rows(times, curves) -> list:
    """Tidy rows of ``curves``, each a (sweep param, sweep value, quantity, values at
    ``times``) quadruple."""
    return [(param, value, t, quantity, v)
            for param, value, quantity, curve in curves for t, v in zip(times, curve)]


# the CSV column that names each label of a curve taken at the config itself
_LABEL_COLUMN = {"two_coupled": "equation", "driven": "variant"}


# ---------------------------------------------------------------------------
# experiments; each evaluates the points and master equations of
# config.evaluations(config, name), its plan

_VARIANCE_QUANTITIES = ("var2x_exact", "var2x_markov_shift", "var2x_markov_noshift")


def _variance_trajectory(config: ScenarioConfig) -> list:
    """2(dx)^2 of the oscillator: exact bath vs Markovian flow with/without shift."""
    times = _times(config)
    [(param, value, point, labels)] = evaluations(config, "variance_trajectory")
    exact, states = _compare(point, labels, times)
    sides = (exact, *states)  # rows time by time, each time's quantities in order
    values = np.stack([s.cov[:, 0, 0] for s in sides], axis=1).ravel()
    return list(zip(repeat(param), repeat(value), np.repeat(times, len(sides)),
                    cycle(_VARIANCE_QUANTITIES[:len(sides)]), values))


def _correlation_study(config: ScenarioConfig) -> list:
    """|C(s,T)| curves and FWHH(T), plus the zero-temperature kernel."""
    spec = OhmicSpectrum(config.alpha, config.omega_c)
    s_grid = _times(config)
    # the zero-temperature kernel is at no sweep point
    rows = _rows(s_grid, [("none", "", "abs_corr_c0", np.abs(corr_c0(spec, s_grid)))])
    rows.append(("none", "", 0.0, "fwhh_c0", fwhh(lambda s: abs(corr_c0(spec, s)),
                                                  _kernel_reach(spec.omega_c))))
    for param, temp, _, _ in evaluations(config, "correlation_study"):
        rows += _rows(s_grid, [(param, _fmt(temp), "abs_corr_ct",
                                np.abs(corr_ct(spec, s_grid, temp)))])
        reach = _kernel_reach(spec.omega_c, temp)
        rows.append((param, _fmt(temp), 0.0, "fwhh_ct",
                     fwhh(lambda s: abs(corr_ct(spec, s, temp)), reach)))
    return rows


def _factorization_distance(config: ScenarioConfig) -> list:
    """D_B between the full evolved state and the product ansatz rho_S(t) x rho_th."""
    times = _times(config)
    return _rows(times, [(param, _fmt(value), "bures_db", _factorization_curve(point, times))
                         for param, value, point, _ in evaluations(config,
                                                                   "factorization_distance")])


# Matrix entries per stack of full states in the factorization's blocks of times
BLOCK_ENTRIES = 2 ** 15


def _factorization_curve(config: ScenarioConfig, times) -> np.ndarray:
    bath = _bath(config)
    # FullPropagator holds the one dense eigh of the package: a full state needs
    # every row of the propagator, not the system rows of _compare's spectral
    # path.  An arrowhead eigenbasis would do, but rounding in fidelity_multi at
    # near-pure bath modes dominates this full-state D_B, which moves by up to
    # 3.5e-5 at t = 0 (and 1.4e-9 later) under another, equally exact eigenbasis
    # of W.  Once fidelity_multi is faithful there (ROADMAP item 3) and the
    # golden rows are re-recorded, the basis can come from the arrowhead spectrum.
    bath_thermal = make_thermal(bath.frequencies, config.temperature)
    global0 = tensor_product(_system_state(config, 1), bath_thermal)
    propagator = FullPropagator.build(config.omega, bath)
    curve = np.empty(times.size)
    # blocks of times keep each stack of 2(M+1)-mode full states within the entry
    # budget, so that no temporary of the fidelity grows with the sample count
    step = max(1, BLOCK_ENTRIES // (2 * global0.n_modes) ** 2)
    for start in range(0, times.size, step):
        block = slice(start, start + step)
        full = propagator.states(times[block], global0)
        _require_physical("full state", times[block], full)
        curve[block] = db_distance(full, tensor_product(partial_trace(full, {0}), bath_thermal))
    return curve


# curve experiment -> (metric between exact and flow states, its quantity, whether a
# point other than the config reports each label's value at t_max only)
_CURVES = {"fidelity_vs_time": (fidelity_multi, "fidelity", False),
           "recurrence_map": (db_distance, "bures_db", False),
           "two_oscillator_suite": (fidelity_multi, "fidelity", True),
           "driven_suite": (fidelity_multi, "fidelity", True)}


def _curves(name: str, config: ScenarioConfig) -> list:
    """The metric between the exact and each Markovian trajectory, at each entry of the
    plan.  An entry at the config gives each label's curve over time, and in a pair's
    suite the fidelity between the two equations' states over time.  Any other point
    gives its one curve, or in a suite each label's value at t_max."""
    metric, quantity, ends_only = _CURVES[name]
    times, t_end = _times(config), config.t_max
    curves, ends, between = [], [], []
    for param, value, point, labels in evaluations(config, name):
        at_end = ends_only and value != ""
        exact, states = _compare(point, labels, [t_end] if at_end else times)
        scores = [metric(exact, s) for s in states]
        if value == "":
            curves += [(_LABEL_COLUMN[point.scenario], label, quantity, score)
                       for label, score in zip(labels, scores)]
            if ends_only and point.scenario == "two_coupled":
                between = [(param, value, "fidelity_between_equations", fidelity_multi(*states))]
        elif at_end:
            ends += [(param, _fmt(value), f"{quantity}_{label}", score)
                     for label, score in zip(labels, scores)]
        else:
            curves.append((param, _fmt(value), quantity, scores[0]))
    return _rows(times, curves) + _rows([t_end], ends) + _rows(times, between)


_RUNNERS = {
    "variance_trajectory": _variance_trajectory,
    **{name: partial(_curves, name) for name in _CURVES},
    "correlation_study": _correlation_study,
    "factorization_distance": _factorization_distance,
}


def run(config: ScenarioConfig) -> list[ExperimentResult]:
    """The results of ``config.experiments``, in order, on a config ``validate`` accepts.

    Raises ConfigError if ``validate`` refuses the config, and ArithmeticError
    if a result holds a non-finite time or value.
    """
    validate(config)
    return _results(config)


def _results(config: ScenarioConfig) -> list[ExperimentResult]:
    """``run`` on a config that ``validate`` has accepted, without checking it again."""
    results = []
    for name in config.experiments:
        rows = _RUNNERS[name](config)
        numbers = np.array([(t, value) for _, _, t, _, value in rows], dtype=float)
        if not np.isfinite(numbers).all():
            raise ArithmeticError(f"{name} produced a non-finite value; no CSV written")
        results.append(ExperimentResult(name, config, rows))
    return results
