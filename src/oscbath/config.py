"""Scenario configuration: parsing, validation, and canonical echo.

Configs are flat INI-style text files.  The echo emitted into result metadata
is canonical: parsing it reproduces the configuration bit-for-bit, which is
what makes experiment outputs reproducible from their own headers.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "parse_path", "config_text"]

SCENARIOS = ("single", "two_coupled", "driven")
INITIAL_STATES = ("vacuum", "thermal", "squeezed", "coherent")
RANGE_MODES = ("equal_tails", "floor")
DRIVE_VARIANTS = ("plain", "off_resonant", "no_secular")
SWEEP_PARAMETERS = ("none", "temperature", "modes", "beta", "alpha", "detuning",
                    "rabi", "variant")
EXPERIMENTS = (
    "variance_trajectory",
    "fidelity_vs_time",
    "recurrence_map",
    "correlation_study",
    "factorization_distance",
    "two_oscillator_suite",
    "driven_suite",
)
# detunings omega_l - Omega at which driven_suite reports t_max fidelities
# unless the config sweeps the detuning itself
DEFAULT_DETUNING_GRID = (-0.5, -0.2, -0.1, -0.05, -0.02, -0.005,
                         0.005, 0.02, 0.05, 0.1, 0.2, 0.5)


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


_SECTIONS = {
    "scenario": ("scenario",),
    "system": ("omega", "omega2", "beta", "initial", "initial_temperature",
               "initial_squeeze", "initial_coherent_re", "initial_coherent_im"),
    "spectrum": ("alpha", "omega_c"),
    "bath": ("bath_modes", "range_mode", "range_floor", "range_omega_min",
             "temperature", "temperature2"),
    "drive": ("rabi", "omega_l", "drive_variant"),
    "time": ("t_max", "samples"),
    "sweep": ("sweep_parameter", "sweep_values"),
    "output": ("experiments",),
}

_KEY_ALIASES = {
    ("scenario", "scenario"): "kind",
    ("sweep", "sweep_parameter"): "parameter",
    ("sweep", "sweep_values"): "values",
    ("bath", "bath_modes"): "modes",
    ("drive", "drive_variant"): "variant",
}


def config_text(config: ScenarioConfig) -> str:
    """Canonical INI rendering of a configuration (round-trips exactly)."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            name = _KEY_ALIASES.get((section, key), key)
            value = getattr(config, key)
            if key == "sweep_values":
                rendered = ", ".join(_fmt(v) for v in value)
            elif key == "experiments":
                rendered = ", ".join(value)
            else:
                rendered = _fmt(value)
            out.write(f"{name} = {rendered}\n")
        out.write("\n")
    return out.getvalue()


def _parse_sweep_values(parameter: str, raw: str) -> tuple:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if parameter == "variant":
        return tuple(items)
    if parameter == "modes":
        return tuple(int(s) for s in items)
    return tuple(float(s) for s in items)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a configuration file's text; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    lookup = {}
    for section, keys in _SECTIONS.items():
        for key in keys:
            lookup[(section, _KEY_ALIASES.get((section, key), key))] = key

    kwargs = {}
    raw_sweep_values = None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for name, raw in parser.items(section):
            field = lookup.get((section, name))
            if field is None:
                raise ConfigError(f"unknown key {name!r} in section [{section}]")
            if field == "sweep_values":
                raw_sweep_values = raw
                continue
            if field == "experiments":
                kwargs[field] = tuple(s.strip() for s in raw.split(",") if s.strip())
                continue
            ftype = ScenarioConfig.__dataclass_fields__[field].type
            try:
                if ftype == "int":
                    kwargs[field] = int(raw)
                elif ftype == "float":
                    kwargs[field] = float(raw)
                else:
                    kwargs[field] = raw.strip()
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{name}: {raw!r}") from exc

    config = ScenarioConfig(**kwargs)
    if raw_sweep_values is not None:
        try:
            values = _parse_sweep_values(config.sweep_parameter, raw_sweep_values)
        except ValueError as exc:
            raise ConfigError(f"bad sweep values: {raw_sweep_values!r}") from exc
        config = replace(config, sweep_values=values)
    validate(config)
    return config


def parse_path(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def validate(config: ScenarioConfig):
    """Raise ConfigError on any violated invariant."""
    c = config
    numbers = [(f.name, getattr(c, f.name)) for f in fields(c)]
    numbers += [("sweep values", v) for v in c.sweep_values]
    for name, value in numbers:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {_fmt(value)}")
    if c.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {c.scenario!r}")
    if c.omega <= 0 or (c.scenario == "two_coupled" and c.omega2 <= 0):
        raise ConfigError("system frequencies must be positive")
    if c.alpha <= 0 or c.omega_c <= 0:
        raise ConfigError("spectrum parameters alpha and omega_c must be positive")
    if c.beta < 0:
        raise ConfigError("beta must be >= 0")
    if c.scenario == "two_coupled" and c.omega <= c.beta:
        raise ConfigError(
            f"Omega={_fmt(c.omega)} must exceed beta={_fmt(c.beta)}: the normal-mode "
            "frequency Omega - beta becomes non-positive and the coupled system "
            "is unstable (imaginary normal-mode eigenfrequencies)")
    if c.initial not in INITIAL_STATES:
        raise ConfigError(f"initial must be one of {INITIAL_STATES}")
    if c.initial == "thermal" and c.initial_temperature < 0:
        raise ConfigError("initial_temperature must be >= 0")
    if c.range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}")
    if c.range_mode == "floor" and not 0 < c.range_floor < c.omega_c:
        raise ConfigError("range_floor must lie in (0, omega_c)")
    if c.range_mode == "equal_tails" and c.range_omega_min >= c.omega_c:
        raise ConfigError("range_omega_min must lie below omega_c (0 selects omega_c/1000)")
    if c.bath_modes < 0 or c.bath_modes == 1:
        raise ConfigError("bath modes must be 0 (no bath) or >= 2")
    if c.temperature < 0:
        raise ConfigError("bath temperature must be >= 0")
    if c.scenario == "driven":
        if c.omega_l <= 0:
            raise ConfigError("driven scenario requires omega_l > 0")
        if c.drive_variant not in DRIVE_VARIANTS:
            raise ConfigError("drive variant must be plain, off_resonant or no_secular")
        if c.drive_variant != "plain" and c.omega_l == c.omega:
            raise ConfigError(
                f"variant {c.drive_variant!r} is undefined on exact resonance "
                "omega_l = Omega")
        if c.bath_modes > 0:
            _check_driven_resonance(c)
    if c.t_max <= 0 or c.samples < 2:
        raise ConfigError("time grid needs t_max > 0 and samples >= 2")
    if c.sweep_parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    if c.sweep_parameter == "variant" and any(v not in DRIVE_VARIANTS
                                              for v in c.sweep_values):
        raise ConfigError(f"swept variants must be among {DRIVE_VARIANTS}")
    if c.sweep_parameter == "modes" and any(int(v) < 2 for v in c.sweep_values):
        raise ConfigError("swept bath sizes must be >= 2")
    if c.sweep_parameter in ("temperature", "rabi", "beta") and any(
            float(v) < 0 for v in c.sweep_values):
        raise ConfigError(f"swept {c.sweep_parameter} values must be >= 0")
    if c.sweep_parameter == "alpha" and any(float(v) <= 0 for v in c.sweep_values):
        raise ConfigError("swept alpha values must be positive")
    if (c.scenario == "two_coupled" and c.sweep_parameter == "beta"
            and any(float(v) >= c.omega for v in c.sweep_values)):
        raise ConfigError(
            f"swept beta values must stay below Omega={_fmt(c.omega)}: at beta >= Omega "
            "the coupled system is unstable")
    if c.scenario == "driven":
        _check_detunings(c)
    for name in c.experiments:
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")


def _check_detunings(c: ScenarioConfig):
    """Reject detunings that put the drive frequency omega_l = Omega + d at or below 0."""
    if c.sweep_parameter == "detuning":
        detunings, source = c.sweep_values, "swept detunings"
    elif "driven_suite" in c.experiments:
        detunings, source = DEFAULT_DETUNING_GRID, "driven_suite's default detunings"
    else:
        return
    low = [float(d) for d in detunings if c.omega + float(d) <= 0]
    if low:
        raise ConfigError(
            f"{source} reach {_fmt(min(low))}, but must stay above -Omega={_fmt(-c.omega)}: "
            "the drive frequency omega_l = Omega + detuning must be positive")


def _check_driven_resonance(c: ScenarioConfig):
    """Reject driven runs that would evaluate a renormalized variant at resonance.

    Only with a bath: without one, W - omega_L is itself singular there and
    the run ends as a numeric failure.
    """
    suite = "driven_suite" in c.experiments
    curves = "fidelity_vs_time" in c.experiments and (
        c.sweep_parameter != "variant" or any(v != "plain" for v in c.sweep_values))
    detunings = c.sweep_values if suite and c.sweep_parameter == "detuning" else ()
    resonant = c.omega_l == c.omega or any(c.omega + float(d) == c.omega
                                           for d in detunings)
    if resonant and (suite or curves):
        raise ConfigError(
            "the off_resonant and no_secular variants are undefined on exact "
            "resonance omega_l = Omega; move omega_l or the swept detunings off it")
