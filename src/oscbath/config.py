"""Scenario configuration: parsing, validation, and canonical echo.

Configs are flat INI-style text files.  The echo emitted into result metadata
is canonical: parsing it reproduces the configuration bit-for-bit, which is
what makes experiment outputs reproducible from their own headers.
``EXPERIMENTS`` is the one description of the points each experiment
evaluates: ``validate`` checks those points, and the runners in
``oscbath.experiments`` evaluate them, both through ``sweep_points``.
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

from .bath import OhmicSpectrum, corr_ct, tail_mass
from .flows import DRIVE_VARIANTS, EQUATIONS, SecularValidityWarning, markov_flows

__all__ = ["ScenarioConfig", "ConfigError", "read_text", "parse_config", "parse_path",
           "config_text", "sweep_points", "validate"]

SCENARIOS = ("single", "two_coupled", "driven")
INITIAL_STATES = ("vacuum", "thermal", "squeezed", "coherent")
RANGE_MODES = ("equal_tails", "floor")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # largest x with a finite e^x
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
    range_omega_min: float = 0.0  # 0 -> default (omega_c / 1000)
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
             "range_omega_min": "range_omega_min", "temperature": "temperature",
             "temperature2": "temperature2"},
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


def validate(config: ScenarioConfig):
    """Raise ConfigError unless ``oscbath run`` accepts the config.

    The config and every point its experiments evaluate (``sweep_points`` of
    each sweep they read, default grids included) pass the same base rules, run
    once per distinct point, and each point also the rules of each experiment
    that evaluates it.  The rules on the Markov coefficients are those of the
    master equations, built once per point and label set in one
    ``markov_flows`` call; t_max times the 1-norm of each one's moment generator
    must be finite.  A sweep that no requested experiment reads is an error.
    """
    c = config
    seen = set()  # the points whose base rules ran, and (point, labels) whose flows were built

    def check(point, name=""):
        # the master equations experiment name compares at the point, built in one call
        # by their own rules: the shifted flow, both equations, or the point's drive
        # variant, and all three for driven_suite
        labels = DRIVE_VARIANTS if name == "driven_suite" else {
            "single": (True,), "two_coupled": EQUATIONS}.get(point.scenario, (point.drive_variant,))
        if point not in seen:
            seen.add(point)
            _check(point)
        if (point, labels) not in seen:
            seen.add((point, labels))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SecularValidityWarning)
                    flows = markov_flows(point, labels)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            with np.errstate(over="ignore"):  # the 1-norm of G t_max, which sets the squarings
                norms = [np.abs(f.moment_generator * point.t_max).sum(axis=0).max() for f in flows]
            if not np.isfinite(norms).all():
                raise ConfigError(f"t_max = {point.t_max!r} is too long for the master equations: "
                                  "the 1-norm of their moment generator times t_max overflows")

    check(c)
    if not c.experiments:
        raise ConfigError("config requests no experiments ([output] experiments=...)")
    for name in c.experiments:
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; choose from {tuple(EXPERIMENTS)}")
        if c.scenario not in EXPERIMENTS[name]:
            raise ConfigError(f"{name} requires scenario={' or '.join(EXPERIMENTS[name])}")
        for parameter in EXPERIMENTS[name][c.scenario]:
            for value, point in sweep_points(c, parameter):
                try:
                    check(point, name)
                    _check_point(name, point)
                except ConfigError as exc:
                    where = "" if parameter == "none" else f" at {parameter} = {_fmt(value)}"
                    raise ConfigError(f"{name}{where}: {exc}") from None
    read = {p for name in c.experiments for p in EXPERIMENTS[name][c.scenario]}
    if c.sweep_parameter not in read | {"none"}:
        raise ConfigError(f"no requested experiment reads the sweep over {c.sweep_parameter}")


def _check_point(name: str, point: ScenarioConfig):
    """The rules experiment ``name`` adds for each point it evaluates."""
    if name == "recurrence_map" and point.bath_modes < 2:
        raise ConfigError("the recurrence map needs a bath of >= 2 modes")
    if name == "correlation_study":
        if point.temperature <= 0:
            raise ConfigError("correlation kernels need a positive temperature")
        if corr_ct(OhmicSpectrum(point.alpha, point.omega_c), 0.0, point.temperature) == 0:
            raise ConfigError("the correlation kernel C(0, T) underflows to 0")
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
    if c.alpha <= 0 or c.omega_c <= 0:
        raise ConfigError("spectrum parameters alpha and omega_c must be positive")
    if c.beta < 0:
        raise ConfigError("beta must be >= 0")
    if c.initial not in INITIAL_STATES:
        raise ConfigError(f"initial must be one of {INITIAL_STATES}")
    if c.initial == "thermal" and c.initial_temperature < 0:
        raise ConfigError("initial_temperature must be >= 0")
    if c.initial == "squeezed" and 2.0 * abs(c.initial_squeeze) > _LOG_FLOAT_MAX:
        raise ConfigError(f"initial_squeeze = {c.initial_squeeze!r} overflows the "
                          "squeezed variance e^(2|r|)")
    if c.range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}")
    if c.range_mode == "floor" and not 0 < c.range_floor < c.omega_c:
        raise ConfigError("range_floor must lie in (0, omega_c)")
    if c.range_mode == "equal_tails" and c.range_omega_min >= c.omega_c:
        raise ConfigError("range_omega_min must lie below omega_c (0 selects omega_c/1000)")
    if (c.range_mode == "equal_tails" and c.range_omega_min > 0
            and not tail_mass(c.omega_c, c.range_omega_min) > 0):
        raise ConfigError(f"range_omega_min = {c.range_omega_min!r} is too small against "
                          "omega_c: the spectral weight below it rounds to 0")
    if c.bath_modes < 0 or c.bath_modes == 1:
        raise ConfigError("bath modes must be 0 (no bath) or >= 2")
    if c.rabi < 0:
        raise ConfigError("rabi must be >= 0")
    if c.scenario == "driven" and c.omega_l <= 0:
        raise ConfigError("driven scenario requires omega_l > 0")
    if c.t_max <= 0 or c.samples < 2:
        raise ConfigError("time grid needs t_max > 0 and samples >= 2")
    if c.sweep_parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    if (c.sweep_parameter == "none") != (not c.sweep_values):
        raise ConfigError("a sweep needs both a parameter and at least one value")
