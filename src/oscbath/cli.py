"""Command-line interface: run experiment configs, validate them, or spot-check
a master equation against the Fock-space referee.

Exit codes: 0 success, 2 configuration error (also a config file that cannot be
read as UTF-8 text), 3 numeric failure, 64 usage error (also a ``run --out`` that
cannot be made a directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# An idle OpenBLAS worker spins for 2**v cycles before it sleeps, and OpenBLAS
# reads v once, when NumPy loads it.  Its default, 28 (0.13 s at 2.1 GHz after
# every threaded call), keeps a second core busy for nothing; below 24, waking
# the sleeping worker slows the factorization study.  v moves neither the thread
# count nor the split of work, so no result's bits.  A value set by the user is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .config import ConfigError, parse_path, read_text  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oscbath", add_help=True)
    parser.add_argument("--version", action="version", version=f"oscbath {__version__}")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run the experiments named in a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; runs are serial")
    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("config", type=Path)
    p_orc = sub.add_parser("oracle", help="compare one flow against the Fock referee")
    p_orc.add_argument("config", type=Path)
    return parser


def run(config):
    """``experiments.run`` on a config from ``parse_path``, imported on the first call.

    So ``validate`` and ``oracle`` never load ``experiments`` or ``exact``.
    ``parse_path`` has validated the config, so it is not validated again.
    """
    from .experiments import _results

    return _results(config)


def _cmd_run(args) -> int:
    """Compute and check every requested experiment, then write their CSVs: all or none."""
    config = parse_path(args.config)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"usage error: --out {args.out} cannot be made a directory: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    for result in run(config):
        path = args.out / f"{result.name}.csv"
        path.write_text(result.to_csv(), encoding="utf-8")
        print(f"wrote {path} ({len(result.rows)} rows)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    parse_path(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


# oracle family -> each key it reads, with its default: the keys every family
# reads, then the family's own.  Any other key is a typo or another family's key.
_ORACLE_SHARED = {"cutoff": 20, "t": 5.0, "gamma": 0.05, "nbar": 0.2, "omega_bar": 1.0,
                  "coherent_re": 0.3, "coherent_im": 0.0}
_ORACLE_FAMILIES = {family: {**_ORACLE_SHARED, **own} for family, own in {
    "single": {},
    "two_small": {"beta": 0.05},
    "two_large": {"beta": 0.3, "alpha": 0.01, "omega_c": 3.0, "t1": 1.0, "t2": 0.5},
    "driven": {"omega_l": 0.8, "rabi_re": 0.1, "rabi_im": 0.0},
}.items()}


def _oracle_case(sec):
    """The family, cutoff, time, generator and initial Fock state of an [oracle] section."""
    from .bath import OhmicSpectrum
    from .flows import (flow_driven, flow_single, flow_two_large_beta,
                        flow_two_small_beta)
    from .fock import check_cutoff, coherent_rho, thermal_rho

    family = sec.get("family", "single")
    if family not in _ORACLE_FAMILIES:
        raise ConfigError(f"unknown oracle family {family!r}")
    unknown = sorted(set(sec) - {"family", *_ORACLE_FAMILIES[family]})
    if unknown:
        raise ConfigError(f"unknown oracle key(s) for family {family}: {', '.join(unknown)}")
    v = {}
    for key, default in _ORACLE_FAMILIES[family].items():
        try:
            v[key] = (sec.getint if key == "cutoff" else sec.getfloat)(key, default)
        except ValueError as exc:
            raise ConfigError(f"bad value for oracle {key}: {sec[key]!r}") from exc
        if not np.isfinite(v[key]):
            raise ConfigError(f"oracle {key} must be finite, got {v[key]}")
    cutoff, t, gamma, nbar, omega_bar = (v[k] for k in ("cutoff", "t", "gamma", "nbar",
                                                          "omega_bar"))
    if t < 0:
        raise ConfigError(f"oracle t must be >= 0, got {t}")

    if family == "single":
        lindblad = flow_single(omega_bar, gamma, nbar)
    elif family == "two_small":
        lindblad = flow_two_small_beta((omega_bar, omega_bar), v["beta"], (gamma, gamma),
                                       (nbar, nbar))
    elif family == "two_large":
        spectrum = OhmicSpectrum(v["alpha"], v["omega_c"])
        lindblad = flow_two_large_beta((spectrum, spectrum), (v["t1"], v["t2"]),
                                       omega_bar, v["beta"])
    else:
        lindblad = flow_driven(omega_bar, gamma, nbar, complex(v["rabi_re"], v["rabi_im"]),
                               v["omega_l"])
    check_cutoff(lindblad.n_modes, cutoff)  # before building a state of that size
    rho0 = coherent_rho(complex(v["coherent_re"], v["coherent_im"]), cutoff)
    if lindblad.n_modes == 2:  # the second oscillator starts thermal
        rho0 = np.kron(rho0, thermal_rho(nbar, cutoff))
    return family, cutoff, t, lindblad, rho0


def _cmd_oracle(args) -> int:
    import configparser

    from .flows import evolve_flow
    from .fock import evolve_moments
    from .gaussian import GaussianState

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(args.config))
    except configparser.Error as exc:
        raise ConfigError(f"malformed oracle config: {exc}") from exc
    if "oracle" not in parser:
        raise ConfigError("oracle config needs an [oracle] section")
    try:
        family, cutoff, t, lindblad, rho0 = _oracle_case(parser["oracle"])
        means, covs, traces = evolve_moments(lindblad, cutoff, rho0, [0.0, t])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    state0 = GaussianState(lindblad.n_modes, means[0], covs[0])
    flow_t = evolve_flow(lindblad, state0, t)
    dmean = np.abs(means[1] - flow_t.mean).max()
    dcov = np.abs(covs[1] - flow_t.cov).max()
    print(f"family={family} t={t} cutoff={cutoff}")
    print(f"max |mean_fock - mean_flow| = {dmean:.3e}")
    print(f"max |cov_fock  - cov_flow|  = {dcov:.3e}")
    print(f"trace(rho_t) = {traces[1]:.12f}")
    return EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad arguments or subcommands
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_oracle(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
