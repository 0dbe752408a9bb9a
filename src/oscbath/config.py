"""Scenario configuration: parsing, validation, and canonical echo.

Configs are flat INI-style text files.  The echo emitted into result metadata
is canonical: parsing it reproduces the configuration bit-for-bit, which is
what makes experiment outputs reproducible from their own headers.
``EXPERIMENTS`` is the one description of the sweeps each experiment reads,
and ``evaluations`` the one plan of its points and the master equations it
compares at each: ``validate`` checks that plan, and the runners in
``oscbath.experiments`` evaluate it.
"""

from __future__ import annotations

import configparser
import io
import math
import sys
import typing
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .bath import OhmicSpectrum, corr_c0, corr_ct, discretize, omega_range
from .flows import (DRIVE_VARIANTS, EQUATIONS, SecularValidityWarning, markov_flows,
                    rounding_bound)
from .gaussian import (GaussianState, make_coherent, make_squeezed_vacuum, make_thermal,
                       make_vacuum, tensor_product)

__all__ = ["ScenarioConfig", "ConfigError", "read_text", "parse_config", "parse_path",
           "config_text", "sweep_points", "evaluations", "validate"]

SCENARIOS = ("single", "two_coupled", "driven")
INITIAL_STATES = ("vacuum", "thermal", "squeezed", "coherent")
#: The absolute accuracy of the variances and fidelities a run writes, which the
#: squeeze and flow rules of ``validate`` hold each exact side and each flow to
ACCURACY = 1e-10
# largest coherent |alpha| at which each evolved mean, of norm at most sqrt(2)|alpha|,
# and the difference of two of them stay finite
_COHERENT_MAX = sys.float_info.max / (2.0 * math.sqrt(2.0))
# grids evaluated unless the config sweeps the parameter itself, in units of Omega:
# two_oscillator_suite's couplings beta, and driven_suite's detunings omega_l - Omega
# and Rabi frequencies, at which the suites report t_max fidelities
DEFAULT_BETA_GRID = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
DEFAULT_DETUNING_GRID = (-0.5, -0.2, -0.1, -0.05, -0.02, -0.005,
                         0.005, 0.02, 0.05, 0.1, 0.2, 0.5)
DEFAULT_RABI_GRID = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
# sweep parameter -> (the field each of its values sets, its values when the
# config does not sweep it; None: it has no default and must be swept)
_GRIDS = {
    "temperature": ("temperature", lambda c: [c.temperature]),
    "modes": ("bath_modes", None),
    "beta": ("beta", lambda c: [b * c.omega for b in DEFAULT_BETA_GRID]),
    "alpha": ("alpha", lambda c: [c.alpha]),
    "detuning": ("omega_l", lambda c: [d * c.omega for d in DEFAULT_DETUNING_GRID]),
    "rabi": ("rabi", lambda c: [r * c.omega for r in DEFAULT_RABI_GRID]),
    "variant": ("drive_variant", lambda c: DRIVE_VARIANTS),
}
SWEEP_PARAMETERS = ("none", *_GRIDS)
# experiment -> {scenario it runs in: the sweeps it reads there}; "none" is the
# config as given, which the experiment evaluates too
EXPERIMENTS = {
    "variance_trajectory": {"single": ("none",)},
    "fidelity_vs_time": {"single": ("temperature",), "two_coupled": ("none",),
                         "driven": ("variant",)},
    "recurrence_map": {"single": ("modes",)},
    "correlation_study": {"single": ("temperature",)},
    "factorization_distance": {"single": ("alpha",)},
    "two_oscillator_suite": {"two_coupled": ("none", "beta")},
    "driven_suite": {"driven": ("none", "detuning", "rabi")},
}


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment run."""

    scenario: str = "single"
    # system
    omega: float = 1.0
    omega2: float = 1.0
    beta: float = 0.0
    initial: str = "vacuum"
    initial_temperature: float = 30.0
    initial_squeeze: float = 0.5
    initial_coherent_re: float = 0.0
    initial_coherent_im: float = 0.0
    # spectrum
    alpha: float = 0.002
    omega_c: float = 3.0
    # bath
    bath_modes: int = 150
    range_mode: str = "equal_tails"
    range_floor: float = 0.1
    temperature: float = 0.0
    temperature2: float = -1.0  # < 0 -> same as temperature
    # drive
    rabi: float = 0.0
    omega_l: float = 0.0
    drive_variant: str = "plain"
    # time grid
    t_max: float = 50.0
    samples: int = 200
    # sweep
    sweep_parameter: str = "none"
    sweep_values: tuple = ()
    # outputs
    experiments: tuple = ()

    @property
    def bath_temperatures(self) -> tuple[float, float]:
        t2 = self.temperature if self.temperature2 < 0 else self.temperature2
        return (self.temperature, t2)


# section -> {file key: ScenarioConfig field}, in echo order: the one description of
# the file format, which parse_config reads and config_text writes
_KEYS = {
    "scenario": {"kind": "scenario"},
    "system": {k: k for k in ("omega", "omega2", "beta", "initial", "initial_temperature",
                              "initial_squeeze", "initial_coherent_re",
                              "initial_coherent_im")},
    "spectrum": {"alpha": "alpha", "omega_c": "omega_c"},
    "bath": {"modes": "bath_modes", "range_mode": "range_mode", "range_floor": "range_floor",
             "temperature": "temperature", "temperature2": "temperature2"},
    "drive": {"rabi": "rabi", "omega_l": "omega_l", "variant": "drive_variant"},
    "time": {"t_max": "t_max", "samples": "samples"},
    "sweep": {"parameter": "sweep_parameter", "values": "sweep_values"},
    "output": {"experiments": "experiments"},
}
_TYPES = typing.get_type_hints(ScenarioConfig)


def config_text(config: ScenarioConfig) -> str:
    """Canonical INI rendering of a configuration (round-trips exactly)."""
    out = io.StringIO()
    for section, keys in _KEYS.items():
        out.write(f"[{section}]\n")
        for key, name in keys.items():
            value = getattr(config, name)
            rendered = ", ".join(map(_fmt, value)) if _TYPES[name] is tuple else _fmt(value)
            out.write(f"{key} = {rendered}\n")
        out.write("\n")
    return out.getvalue()


def _convert(name: str, raw: str, sweep_parameter: str):
    """Field ``name``'s value written as ``raw``; ValueError if it does not convert.

    A tuple is a comma-separated list: experiment names, or sweep values of the
    type of the field the swept parameter sets.
    """
    if _TYPES[name] is not tuple:
        return _TYPES[name](raw.strip())
    if name == "experiments":
        item = str
    else:
        item = _TYPES[_GRIDS[sweep_parameter][0]] if sweep_parameter in _GRIDS else float
    return tuple(item(s.strip()) for s in raw.split(",") if s.strip())


def parse_config(text: str) -> ScenarioConfig:
    """Parse a configuration file's text; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    sweep_parameter = parser.get("sweep", "parameter", fallback="none")
    kwargs = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            name = _KEYS[section].get(key)
            if name is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                kwargs[name] = _convert(name, raw, sweep_parameter)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    config = ScenarioConfig(**kwargs)
    validate(config)
    return config


def read_text(path) -> str:
    """The UTF-8 text of a config file; ConfigError if it cannot be read as such."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_path(path) -> ScenarioConfig:
    return parse_config(read_text(path))


def sweep_points(config: ScenarioConfig, parameter: str) -> list:
    """(value, point config) for each value of ``parameter`` that a run evaluates.

    The values are the config's own sweep over ``parameter``, else the
    parameter's default grid (frequencies in units of Omega); a detuning d
    sets omega_l = Omega + d, and "none" gives the config itself.
    """
    if parameter == "none":
        return [("", config)]
    field, default = _GRIDS[parameter]
    if config.sweep_parameter == parameter:
        values = config.sweep_values
    elif default is None:
        raise ConfigError(f"a sweep over {parameter} is required: it has no default grid")
    else:
        values = default(config)
    return [(v, replace(config, **{field: config.omega + v if parameter == "detuning" else v}))
            for v in values]


def evaluations(config: ScenarioConfig, name: str) -> list:
    """(sweep parameter, value, point, labels) for each point experiment ``name`` evaluates.

    The points are ``sweep_points`` of each sweep ``EXPERIMENTS`` lists for the
    experiment in the config's scenario, and ``labels`` the ``markov_flows``
    labels it compares there: none for the kernels and the factorization, both
    shift flags for a variance trajectory with a bath (none without), both
    equations for a pair, every drive variant at a suite's points, and the
    shifted flow otherwise.  A driven sweep over variants is one entry at the
    config, whose labels are the swept variants.  The entries at the config
    itself, this one and those of the "none" sweep, have the value "".
    """
    c = config
    labels = {"two_coupled": EQUATIONS, "driven": DRIVE_VARIANTS}.get(c.scenario, (True,))
    if name in ("variance_trajectory", "correlation_study", "factorization_distance"):
        labels = (True, False) if name == "variance_trajectory" and c.bath_modes > 0 else ()
    plan = []
    for parameter in EXPERIMENTS[name][c.scenario]:
        points = sweep_points(c, parameter)
        if parameter == "variant":  # one entry at the config, labelled by the swept variants
            points, labels = [("", c)], tuple(v for v, _ in points)
        plan += [(parameter, value, point, labels) for value, point in points]
    return plan


def validate(config: ScenarioConfig):
    """Raise ConfigError unless ``oscbath run`` accepts the config.

    It checks the plan ``run`` evaluates, ``evaluations`` of each requested
    experiment.  The config and each point pass the same base rules, run once
    per distinct point, and each point the rules of each experiment that
    evaluates it.  A rule lives where its quantity is taken: a ValueError of the
    code ``run`` calls at a point is a ConfigError located there.  So each
    point's master equations are built once per label set in one
    ``markov_flows`` call, each of them accurate to ACCURACY out to t_max
    (``_check_flows``), and the bath of each point whose exact side is evolved
    once by ``_bath``, as ``run`` builds them; there t_max times a bound on its
    frequencies must also be finite, and a squeezed start accurate to ACCURACY
    (``_check_exact``).  A value that no requested experiment reads is not
    checked.  A sweep that no requested experiment reads is an error.
    """
    c = config
    _check(c)
    if not c.experiments:
        raise ConfigError("config requests no experiments ([output] experiments=...)")
    checked, built, propagated = {c}, set(), set()
    for name in c.experiments:
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; choose from {tuple(EXPERIMENTS)}")
        if c.scenario not in EXPERIMENTS[name]:
            raise ConfigError(f"{name} requires scenario={' or '.join(EXPERIMENTS[name])}")
        for parameter, value, point, labels in evaluations(c, name):
            try:
                if point not in checked:
                    checked.add(point)
                    _check(point)
                _check_point(name, point)
                flows = ()
                if labels and (point, labels) not in built:
                    built.add((point, labels))
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", SecularValidityWarning)
                        flows = markov_flows(point, labels)
                if name != "correlation_study" and point not in propagated:
                    propagated.add(point)
                    _check_exact(point)
                if flows:  # after the bath's own rules, whose messages name the cause
                    _check_flows(point, labels, flows)
            except ValueError as exc:  # a ConfigError, or a rule of the code run calls
                where = "" if value == "" else f" at {parameter} = {_fmt(value)}"
                raise ConfigError(f"{name}{where}: {exc}") from None
    read = {p for name in c.experiments for p in EXPERIMENTS[name][c.scenario]}
    if c.sweep_parameter not in read | {"none"}:
        raise ConfigError(f"no requested experiment reads the sweep over {c.sweep_parameter}")


def _check_flows(point: ScenarioConfig, labels, flows):
    """ConfigError unless each flow's ``flows.rounding_bound`` out to t_max, from the
    point's start, is within ACCURACY."""
    start = float(np.linalg.norm(_system_state(point, 1).cov, 2))
    for label, flow in zip(labels, flows):
        bound = rounding_bound(flow, point.t_max, start)
        if not bound <= ACCURACY:
            raise ConfigError(f"the flow (label {label!r}) is not accurate to {ACCURACY:g} out "
                              f"to t_max = {point.t_max!r}: its rounding bound is {bound:.3g} "
                              f"(alpha = {point.alpha!r}, omega_c = {point.omega_c!r})")


def _system_state(config: ScenarioConfig, n_modes: int) -> GaussianState:
    """One oscillator's initial state, or two copies of it for a pair of equal frequencies."""
    if config.initial == "vacuum":
        state = make_vacuum(1)
    elif config.initial == "thermal":
        state = make_thermal(config.omega, config.initial_temperature)
    elif config.initial == "squeezed":
        state = make_squeezed_vacuum(config.initial_squeeze)
    else:
        state = make_coherent(complex(config.initial_coherent_re,
                                      config.initial_coherent_im))
    return tensor_product(state, state) if n_modes == 2 else state


def _check_exact(point: ScenarioConfig):
    """ConfigError unless t_max times ``_frequency_bound(point)``, lambda_max, is finite
    (the exact states take cos and sin of lambda t for each eigenvalue lambda of W), and
    a squeezed start's rounding eps e^(2|r|) (1 + t_max lambda_max), which grows with
    those phases, is within ACCURACY: a 40-digit referee puts fig2's below 0.04 of it."""
    bound = _frequency_bound(point)
    phases = point.t_max * bound
    if not math.isfinite(phases):
        raise ConfigError(f"t_max = {point.t_max!r} is too long for the exact evolution: "
                          f"t_max times the bound {bound:.3g} on the frequencies of W overflows")
    limit = 0.5 * (math.log(ACCURACY / sys.float_info.epsilon) - math.log1p(phases))
    if point.initial == "squeezed" and abs(point.initial_squeeze) > limit:
        raise ConfigError(f"initial_squeeze = {point.initial_squeeze!r} exceeds {limit:.4g} at "
                          f"t_max = {point.t_max!r}: the rounding eps e^(2|r|) (1 + t_max "
                          f"lambda_max) of the exact variances, lambda_max = {bound:.3g}, "
                          f"exceeds the accuracy {ACCURACY:g}")


def _frequency_bound(point: ScenarioConfig) -> float:
    """A bound on |lambda| over the eigenvalues lambda of the point's W (of W - omega_l
    in a drive's frame), from its bath's window and couplings; no spectrum is built.

    By Weyl each lambda lies within ||g|| of the range of W's diagonal: the system
    frequencies (Omega +- beta for a pair) and the bath window.
    """
    diagonal = ([point.omega - point.beta, point.omega + point.beta]
                if point.scenario == "two_coupled" else [point.omega])
    radius = 0.0
    bath = _bath(point)
    if bath is not None:
        diagonal += [float(bath.frequencies[0]), float(bath.frequencies[-1])]
        radius = float(np.linalg.norm(bath.couplings))
    frame = point.omega_l if point.scenario == "driven" else 0.0
    return max(abs(min(diagonal) - frame - radius), abs(max(diagonal) - frame + radius))


def _bath(point: ScenarioConfig):
    """The point's discretized bath, which its exact side evolves; None without modes."""
    if point.bath_modes == 0:
        return None
    spectrum = OhmicSpectrum(point.alpha, point.omega_c)
    rng = omega_range(spectrum, point.range_mode, floor=point.range_floor)
    return discretize(spectrum, point.bath_modes, rng)


def _kernel_reach(omega_c: float, temperature: float = math.inf) -> float:
    """How far in s ``correlation_study`` seeks a kernel's half height: out to
    20/omega_c for C0, and for C(s, T), which broadens like 1/T, out to 10/T too."""
    return max(20.0 / omega_c, 10.0 / temperature)


def _check_point(name: str, point: ScenarioConfig):
    """The rules experiment ``name`` adds for each point it evaluates."""
    if name == "recurrence_map" and point.bath_modes < 2:
        raise ConfigError("the recurrence map needs a bath of >= 2 modes")
    if name == "correlation_study":
        if point.temperature <= 0:
            raise ConfigError("correlation kernels need a positive temperature")
        spectrum = OhmicSpectrum(point.alpha, point.omega_c)
        # the kernels' grid of delays ends at t_max; the reach is at least 20/omega_c,
        # so checked first it also refuses every T/omega_c that overflows in C(0, T)
        reach = max(point.t_max, _kernel_reach(point.omega_c, point.temperature))
        if not math.isfinite(point.temperature * reach):
            raise ConfigError(f"T = {point.temperature!r} times the reach {reach:.3g} of the "
                              "kernel's delays s overflows: C(s, T) takes psi' at "
                              "1 + T/omega_c + i s T")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            kernels = (("C0(0)", corr_c0(spectrum, 0.0)),
                       (f"C(0, T) at T = {point.temperature!r}",
                        corr_ct(spectrum, 0.0, point.temperature)))
        for kernel, c0 in kernels:
            if c0 == 0 or not np.isfinite(c0):
                raise ConfigError(f"the correlation kernel {kernel} is {c0.real:.3g}: it must "
                                  "be finite and nonzero")
    if name == "factorization_distance" and not 2 <= point.bath_modes <= 60:
        raise ConfigError("the full-state fidelity needs a bath of 2 to 60 modes")


def _check(c: ScenarioConfig):
    """Raise ConfigError on a violated base rule of one config or sweep point."""
    for f in fields(c):
        value = getattr(c, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {_fmt(value)}")
    if c.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {c.scenario!r}")
    if c.omega <= 0:
        raise ConfigError("the system frequency omega must be positive")
    if c.scenario == "two_coupled" and c.omega2 != c.omega:
        raise ConfigError("the two-oscillator study assumes equal frequencies "
                          "Omega1 = Omega2")
    if c.initial not in INITIAL_STATES:
        raise ConfigError(f"initial must be one of {INITIAL_STATES}")
    if c.initial == "thermal" and c.initial_temperature < 0:
        raise ConfigError("initial_temperature must be >= 0")
    amplitude = math.hypot(c.initial_coherent_re, c.initial_coherent_im)
    if c.initial == "coherent" and amplitude > _COHERENT_MAX:
        raise ConfigError(f"the coherent amplitude |initial_coherent_re + i initial_coherent_im| "
                          f"= {amplitude!r} exceeds {_COHERENT_MAX:.4g}, where an evolved "
                          "mean or the difference of two overflows")
    if c.rabi < 0:
        raise ConfigError("rabi must be >= 0")
    if c.scenario == "driven" and c.omega_l <= 0:
        raise ConfigError("driven scenario requires omega_l > 0")
    if c.scenario == "driven" and c.drive_variant not in DRIVE_VARIANTS:
        raise ConfigError(f"[drive] variant must be one of {DRIVE_VARIANTS}")
    if c.t_max <= 0 or c.samples < 2:
        raise ConfigError("time grid needs t_max > 0 and samples >= 2")
    if c.sweep_parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    if (c.sweep_parameter == "none") != (not c.sweep_values):
        raise ConfigError("a sweep needs both a parameter and at least one value")
