"""Seeded inputs for the benchmark workloads.

Each workload is a list of config files plus the CLI operations that consume
them.  The seed draws physical parameters inside fixed, valid ranges; sample
counts, grid lengths, bath sizes and Fock cutoffs are constants, so every seed
asks the program for the same amount of work.  Values are rounded to a few
significant digits before they are written, so one seed always gives the same
bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("trajectories", "large_bath", "fullstate_kernels", "referee")

# Fixed sizes: these set the work per pass and never depend on the seed.
DRIVEN_MODES, DRIVEN_SAMPLES, DRIVEN_DETUNINGS = 100, 20, 6
DRIVEN_RABI_GRID = 6  # the program's default Rabi grid, used when sweeping detuning
TWO_MODES, TWO_SAMPLES, TWO_BETAS = 120, 30, 7
LARGE_BATH_SIZES, LARGE_SAMPLES = (1600, 800, 400), 16
CORR_SAMPLES, CORR_TEMPERATURES = 40, 3
FACT_MODES, FACT_SAMPLES, FACT_ALPHAS = 40, 30, 3
ORACLE_CUTOFFS = {"single": 20, "driven": 20, "two_small": 14, "two_large": 14}
ORACLE_TIME = 4.0  # RK45 keeps every step, so t sets both work and memory
ORACLE_AMPLITUDE, ORACLE_RABI = 0.35, 0.1  # |alpha| and |rabi|; the seed sets phases


@dataclass(frozen=True)
class Op:
    """One CLI process: ``oscbath <kind> <config>``.

    For ``run`` ops, ``rows`` maps each experiment (one CSV file) to the row
    count its config implies.
    """

    kind: str
    config: str
    rows: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict  # file name -> config text
    ops: tuple   # the ops of one pass, run serially in this order

    @property
    def setup_config(self) -> str:
        """The first generated config: what the set-up ``validate`` reads."""
        return next(iter(self.files))


def _r(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


def _num(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _ini(sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            values = value if isinstance(value, (list, tuple)) else [value]
            lines.append(f"{key} = {', '.join(map(_num, values))}")
        lines.append("")
    return "\n".join(lines)


def _spread_grid(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """n sorted values, one drawn log-uniformly inside each of n equal log-bins."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / n
    return [_r(math.exp(a + width * (k + rng.random()))) for k in range(n)]


def _trajectories(rng: random.Random) -> Workload:
    omega_l = _r(1.0 + rng.choice((-1, 1)) * rng.uniform(0.05, 0.2))
    half = DRIVEN_DETUNINGS // 2
    detunings = [-d for d in reversed(_spread_grid(rng, 0.01, 0.5, half))] + \
        _spread_grid(rng, 0.01, 0.5, DRIVEN_DETUNINGS - half)
    driven = _ini({
        "scenario": {"kind": "driven"},
        "system": {"omega": 1, "initial": "vacuum"},
        "spectrum": {"alpha": _r(rng.uniform(0.005, 0.015)), "omega_c": 3},
        "bath": {"modes": DRIVEN_MODES, "range_mode": "floor", "range_floor": 0.1,
                 "temperature": _r(rng.uniform(0.1, 0.4))},
        "drive": {"rabi": _r(rng.uniform(0.1, 0.4)), "omega_l": omega_l,
                  "variant": "plain"},
        "time": {"t_max": _r(rng.uniform(30, 45)), "samples": DRIVEN_SAMPLES},
        "sweep": {"parameter": "detuning", "values": detunings},
        "output": {"experiments": "driven_suite"},
    })
    betas = _spread_grid(rng, 0.002, 0.19, TWO_BETAS)
    two = _ini({
        "scenario": {"kind": "two_coupled"},
        "system": {"omega": 1, "omega2": 1, "beta": _r(rng.uniform(0.02, 0.1)),
                   "initial": "thermal",
                   "initial_temperature": _r(rng.uniform(1, 5))},
        "spectrum": {"alpha": _r(rng.uniform(0.003, 0.008)), "omega_c": 3},
        "bath": {"modes": TWO_MODES, "range_mode": "floor", "range_floor": 0.1,
                 "temperature": _r(rng.uniform(0.5, 1.5)),
                 "temperature2": _r(rng.uniform(0.05, 0.3))},
        "time": {"t_max": _r(rng.uniform(60, 100)), "samples": TWO_SAMPLES},
        "sweep": {"parameter": "beta", "values": betas},
        "output": {"experiments": "two_oscillator_suite"},
    })
    ops = (
        Op("run", "driven.cfg", {"driven_suite": 3 * DRIVEN_SAMPLES
                                 + 3 * (DRIVEN_DETUNINGS + DRIVEN_RABI_GRID)}),
        Op("run", "two.cfg", {"two_oscillator_suite": 3 * TWO_SAMPLES + 2 * TWO_BETAS}),
    )
    return Workload("trajectories", {"driven.cfg": driven, "two.cfg": two}, ops)


def _large_bath(rng: random.Random) -> Workload:
    text = _ini({
        "scenario": {"kind": "single"},
        "system": {"omega": 1, "initial": "thermal",
                   "initial_temperature": _r(rng.uniform(10, 40))},
        "spectrum": {"alpha": _r(rng.uniform(0.005, 0.015)), "omega_c": 3},
        "bath": {"modes": LARGE_BATH_SIZES[0], "range_mode": "equal_tails",
                 "temperature": _r(rng.uniform(0.5, 2))},
        "time": {"t_max": _r(rng.uniform(40, 80)), "samples": LARGE_SAMPLES},
        "sweep": {"parameter": "modes", "values": LARGE_BATH_SIZES},
        "output": {"experiments": "recurrence_map"},
    })
    ops = (Op("run", "recurrence.cfg",
              {"recurrence_map": len(LARGE_BATH_SIZES) * LARGE_SAMPLES}),)
    return Workload("large_bath", {"recurrence.cfg": text}, ops)


def _fullstate_kernels(rng: random.Random) -> Workload:
    corr = _ini({
        "scenario": {"kind": "single"},
        "spectrum": {"alpha": _r(rng.uniform(0.005, 0.02)),
                     "omega_c": _r(rng.uniform(2, 4))},
        "time": {"t_max": _r(rng.uniform(6, 10)), "samples": CORR_SAMPLES},
        "sweep": {"parameter": "temperature",
                  "values": _spread_grid(rng, 0.1, 10, CORR_TEMPERATURES)},
        "output": {"experiments": "correlation_study"},
    })
    fact = _ini({
        "scenario": {"kind": "single"},
        "system": {"omega": 1, "initial": "thermal",
                   "initial_temperature": _r(rng.uniform(10, 40))},
        "spectrum": {"alpha": 0.002, "omega_c": 3},
        "bath": {"modes": FACT_MODES, "range_mode": "floor", "range_floor": 0.1,
                 "temperature": _r(rng.uniform(0.5, 2))},
        "time": {"t_max": _r(rng.uniform(8, 15)), "samples": FACT_SAMPLES},
        "sweep": {"parameter": "alpha",
                  "values": _spread_grid(rng, 0.0005, 0.01, FACT_ALPHAS)},
        "output": {"experiments": "factorization_distance"},
    })
    ops = (
        Op("run", "correlation.cfg",
           {"correlation_study": CORR_SAMPLES + 1 + CORR_TEMPERATURES * (CORR_SAMPLES + 1)}),
        Op("run", "factorization.cfg",
           {"factorization_distance": FACT_ALPHAS * FACT_SAMPLES}),
    )
    return Workload("fullstate_kernels",
                    {"correlation.cfg": corr, "factorization.cfg": fact}, ops)


def _referee(rng: random.Random) -> Workload:
    # RK45 picks its own steps, so the oracle's cost follows the dynamics: the
    # seed turns phases freely but moves rates only inside narrow windows,
    # and the time and the amplitudes are fixed.
    gamma = _r(rng.uniform(0.06, 0.063))
    nbar = _r(rng.uniform(0.15, 0.16))
    # oracle configs are not scenario configs, so set-up validates this one:
    # the single-oscillator scenario the "single" family spot-checks
    scenario = _ini({
        "scenario": {"kind": "single"},
        "system": {"omega": 1, "initial": "coherent",
                   "initial_coherent_re": _r(rng.uniform(0.2, 0.5))},
        "bath": {"temperature": _r(rng.uniform(0.2, 0.6))},
        "time": {"t_max": ORACLE_TIME, "samples": 2},
        "output": {"experiments": "variance_trajectory"},
    })
    files = {"scenario.cfg": scenario}

    def polar(radius: float, prefix: str) -> dict:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return {f"{prefix}_re": _r(radius * math.cos(phase)),
                f"{prefix}_im": _r(radius * math.sin(phase))}

    extra = {
        "single": {},
        "two_small": {"beta": _r(rng.uniform(0.045, 0.05))},
        "two_large": {"beta": _r(rng.uniform(0.28, 0.3)),
                      "alpha": _r(rng.uniform(0.01, 0.0105)), "omega_c": 3,
                      "t1": _r(rng.uniform(0.3, 0.315)), "t2": _r(rng.uniform(0.2, 0.21))},
        "driven": {"omega_l": _r(rng.uniform(0.85, 0.87)), **polar(ORACLE_RABI, "rabi")},
    }
    ops = []
    for family, more in extra.items():
        name = f"oracle_{family}.cfg"
        files[name] = _ini({"oracle": {
            "family": family, "cutoff": ORACLE_CUTOFFS[family], "t": ORACLE_TIME,
            "gamma": gamma, "nbar": nbar, "omega_bar": 1.0,
            **polar(ORACLE_AMPLITUDE, "coherent"), **more}})
        ops.append(Op("oracle", name))
    return Workload("referee", files, tuple(ops))


_GENERATORS = {"trajectories": _trajectories, "large_bath": _large_bath,
             "fullstate_kernels": _fullstate_kernels, "referee": _referee}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's configs and ops for one seed (deterministic)."""
    return _GENERATORS[name](random.Random(f"oscbath/{name}/{seed}"))
