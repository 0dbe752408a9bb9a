"""Command-line interface: run experiment configs, validate them, or spot-check
a master equation against the Fock-space referee.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, parse_path
from .experiments import run_experiment

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


def _cmd_run(args) -> int:
    config = parse_path(args.config)
    if not config.experiments:
        raise ConfigError("config requests no experiments ([output] experiments=...)")
    args.out.mkdir(parents=True, exist_ok=True)
    for name in config.experiments:
        result = run_experiment(name, config)
        numbers = np.array([(t, value) for _, _, t, _, value in result.rows], dtype=float)
        if not np.isfinite(numbers).all():
            raise ArithmeticError(f"{name} produced a non-finite value; no CSV written")
        path = args.out / f"{name}.csv"
        path.write_text(result.to_csv(), encoding="utf-8")
        print(f"wrote {path} ({len(result.rows)} rows)")
    return EXIT_OK


def _cmd_validate(args) -> int:
    parse_path(args.config)
    print(f"{args.config}: ok")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    import configparser

    from .flows import (evolve_flow, flow_driven, flow_single,
                        flow_two_large_beta, flow_two_small_beta, k_matrices)
    from .bath import OhmicSpectrum
    from .fock import (TruncatedLindbladSpec, coherent_rho, integrate, kron_rho,
                       moments, thermal_rho)
    from .gaussian import GaussianState

    parser = configparser.ConfigParser()
    if not parser.read(args.config):
        raise ConfigError(f"cannot read oracle config {args.config}")
    if "oracle" not in parser:
        raise ConfigError("oracle config needs an [oracle] section")
    sec = parser["oracle"]
    family = sec.get("family", "single")
    cutoff = sec.getint("cutoff", 20)
    t = sec.getfloat("t", 5.0)
    gamma = sec.getfloat("gamma", 0.05)
    nbar = sec.getfloat("nbar", 0.2)
    omega_bar = sec.getfloat("omega_bar", 1.0)
    alpha0 = complex(sec.getfloat("coherent_re", 0.3), sec.getfloat("coherent_im", 0.0))

    if family == "single":
        flow = flow_single(omega_bar, gamma, nbar)
        spec = TruncatedLindbladSpec(1, cutoff, [[omega_bar]],
                                     [[2 * gamma * (nbar + 1)]], [[2 * gamma * nbar]])
        rho0 = coherent_rho(alpha0, cutoff)
    elif family == "two_small":
        beta = sec.getfloat("beta", 0.05)
        flow = flow_two_small_beta((omega_bar, omega_bar), beta, (gamma, gamma),
                                   (nbar, nbar))
        spec = TruncatedLindbladSpec(
            2, cutoff, [[omega_bar, beta], [beta, omega_bar]],
            np.diag([2 * gamma * (nbar + 1)] * 2), np.diag([2 * gamma * nbar] * 2))
        rho0 = kron_rho(coherent_rho(alpha0, cutoff), thermal_rho(nbar, cutoff))
    elif family == "two_large":
        beta = sec.getfloat("beta", 0.3)
        spectrum = OhmicSpectrum(sec.getfloat("alpha", 0.01), sec.getfloat("omega_c", 3.0))
        coeffs = k_matrices((spectrum, spectrum),
                            (sec.getfloat("t1", 1.0), sec.getfloat("t2", 0.5)),
                            omega_bar, beta)
        flow = flow_two_large_beta(coeffs)
        spec = TruncatedLindbladSpec(
            2, cutoff, [[coeffs.omega_bar, coeffs.beta_bar],
                        [coeffs.beta_bar, coeffs.omega_bar]],
            coeffs.k_emit, coeffs.k_abs)
        rho0 = kron_rho(coherent_rho(alpha0, cutoff), thermal_rho(nbar, cutoff))
    elif family == "driven":
        omega_l = sec.getfloat("omega_l", 0.8)
        r_bar = complex(sec.getfloat("rabi_re", 0.1), sec.getfloat("rabi_im", 0.0))
        flow = flow_driven(omega_bar, gamma, nbar, r_bar, omega_l)
        spec = TruncatedLindbladSpec(1, cutoff, [[omega_bar - omega_l]],
                                     [[2 * gamma * (nbar + 1)]], [[2 * gamma * nbar]],
                                     drive=[np.conj(r_bar)])
        rho0 = coherent_rho(alpha0, cutoff)
    else:
        raise ConfigError(f"unknown oracle family {family!r}")

    mean0, cov0 = moments(rho0, spec.n_modes, cutoff)
    state0 = GaussianState(spec.n_modes, mean0, cov0)
    rho_t = integrate(spec, rho0, t)
    mean_f, cov_f = moments(rho_t, spec.n_modes, cutoff)
    flow_t = evolve_flow(flow, state0, t)
    dmean = np.abs(mean_f - flow_t.mean).max()
    dcov = np.abs(cov_f - flow_t.cov).max()
    print(f"family={family} t={t} cutoff={cutoff}")
    print(f"max |mean_fock - mean_flow| = {dmean:.3e}")
    print(f"max |cov_fock  - cov_flow|  = {dcov:.3e}")
    print(f"trace(rho_t) = {np.trace(rho_t).real:.12f}")
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
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
