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

_SUBCOMMANDS = ("run", "validate", "oracle")


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


# every key some oracle family reads; any other key is a typo, not a default
_ORACLE_KEYS = frozenset({
    "family", "cutoff", "t", "gamma", "nbar", "omega_bar", "coherent_re",
    "coherent_im", "beta", "alpha", "omega_c", "t1", "t2", "omega_l", "rabi_re",
    "rabi_im"})


def _oracle_case(sec):
    """The family, cutoff, time, generator and initial Fock state of an [oracle] section."""
    from .bath import OhmicSpectrum
    from .flows import (flow_driven, flow_single, flow_two_large_beta,
                        flow_two_small_beta)
    from .fock import check_cutoff, coherent_rho, thermal_rho

    unknown = sorted(set(sec) - _ORACLE_KEYS)
    if unknown:
        raise ConfigError(f"unknown oracle key(s): {', '.join(unknown)}")

    def num(key: str, default: float, parse=sec.getfloat):
        try:
            value = parse(key, default)
        except ValueError as exc:
            raise ConfigError(f"bad value for oracle {key}: {sec[key]!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"oracle {key} must be finite, got {value}")
        return value

    family = sec.get("family", "single")
    cutoff = num("cutoff", 20, parse=sec.getint)
    t = num("t", 5.0)
    if t < 0:
        raise ConfigError(f"oracle t must be >= 0, got {t}")
    gamma = num("gamma", 0.05)
    nbar = num("nbar", 0.2)
    omega_bar = num("omega_bar", 1.0)
    alpha0 = complex(num("coherent_re", 0.3), num("coherent_im", 0.0))

    if family == "single":
        lindblad = flow_single(omega_bar, gamma, nbar)
    elif family == "two_small":
        lindblad = flow_two_small_beta((omega_bar, omega_bar), num("beta", 0.05),
                                       (gamma, gamma), (nbar, nbar))
    elif family == "two_large":
        spectrum = OhmicSpectrum(num("alpha", 0.01), num("omega_c", 3.0))
        lindblad = flow_two_large_beta((spectrum, spectrum),
                                       (num("t1", 1.0), num("t2", 0.5)),
                                       omega_bar, num("beta", 0.3))
    elif family == "driven":
        r_bar = complex(num("rabi_re", 0.1), num("rabi_im", 0.0))
        lindblad = flow_driven(omega_bar, gamma, nbar, r_bar, num("omega_l", 0.8))
    else:
        raise ConfigError(f"unknown oracle family {family!r}")
    check_cutoff(lindblad.n_modes, cutoff)  # before building a state of that size
    rho0 = coherent_rho(alpha0, cutoff)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _SUBCOMMANDS:
        print(f"unknown subcommand {argv[0]!r}; expected one of {', '.join(_SUBCOMMANDS)}",
              file=sys.stderr)
        _build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for bad arguments
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
