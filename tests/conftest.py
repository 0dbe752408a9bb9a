"""Shared test helpers: random physical states, dense referees, acceptance helpers and
Fock-space utilities."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from scipy.linalg import expm, sqrtm

from oscbath.experiments import _compare, _times, run
from oscbath.fock import vacuum_rho
from oscbath.gaussian import GaussianState, db_distance, symplectic_form


def run_one(name: str, config):
    """The result of experiment ``name`` alone on ``config``, through ``experiments.run``."""
    return run(replace(config, experiments=(name,)))[0]


@contextmanager
def alarm_after(seconds: int):
    """Raise TimeoutError in the body once it has run ``seconds``: a case that
    must be refused at once fails fast instead of doing the work it should refuse."""
    def too_slow(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_symplectic(rng, n_modes: int, scale: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(sigma G) with G symmetric."""
    d = 2 * n_modes
    g = rng.normal(size=(d, d))
    g = 0.5 * (g + g.T) * scale
    return expm(symplectic_form(n_modes) @ g)


def random_physical_state(rng, n_modes: int, min_nu: float = 1.05,
                          max_nu: float = 3.0, mean_scale: float = 1.0) -> GaussianState:
    """Random mixed Gaussian state with symplectic spectrum in [min_nu, max_nu]."""
    nus = rng.uniform(min_nu, max_nu, n_modes)
    diag = np.diag(np.concatenate([nus, nus]))
    s = random_symplectic(rng, n_modes)
    cov = s @ diag @ s.T
    mean = rng.normal(0.0, mean_scale, 2 * n_modes)
    return GaussianState(n_modes, mean, 0.5 * (cov + cov.T))


def random_symplectic_orthogonal(rng, n_modes: int) -> np.ndarray:
    """Random passive (symplectic and orthogonal) phase-space transformation."""
    o = np.linalg.qr(rng.normal(size=(n_modes, n_modes)))[0]
    block = np.block([[o, np.zeros_like(o)], [np.zeros_like(o), o]])
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.cos(theta) * np.eye(2 * n_modes) + np.sin(theta) * symplectic_form(n_modes)
    return rot @ block


def fock_uhlmann_fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 by dense linear algebra."""
    root = sqrtm(0.5 * (rho1 + rho1.T.conj()))
    mid = root @ rho2 @ root
    mid = 0.5 * (mid + mid.T.conj())
    eig = np.linalg.eigvalsh(mid)
    return float(np.sum(np.sqrt(np.clip(eig, 0.0, None))) ** 2)


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a dim-level truncation."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def mode_operators(n_modes: int, cutoff: int) -> list[np.ndarray]:
    """Dense annihilation operators of each of 1 or 2 modes on the truncated product space."""
    a = destroy(cutoff + 1)
    if n_modes == 1:
        return [a]
    eye = np.eye(cutoff + 1)
    return [np.kron(a, eye), np.kron(eye, a)]


def squeezed_vacuum_rho(r_sq: float, cutoff: int) -> np.ndarray:
    """Squeezed vacuum with cov diag(e^{-2r}, e^{2r}) in the package convention."""
    a = destroy(cutoff + 1)
    sq = expm(0.5 * r_sq * (a @ a - a.T.conj() @ a.T.conj()))
    rho = sq @ vacuum_rho(cutoff) @ sq.T.conj()
    return rho / np.trace(rho).real


def assert_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                          trace_tol: float = 1e-10, eig_tol: float = -1e-8):
    """Raise when rho fails Hermiticity, unit trace, or positivity tolerances."""
    if np.abs(rho - rho.T.conj()).max() > herm_tol:
        raise AssertionError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise AssertionError(f"trace {np.trace(rho).real} deviates from 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.T.conj())).min() < eig_tol:
        raise AssertionError("density matrix has a significantly negative eigenvalue")


def fock_partial_trace_first(rho: np.ndarray, dim: int) -> np.ndarray:
    """Trace out the second mode of a two-mode density matrix (dim per mode)."""
    r = rho.reshape(dim, dim, dim, dim)
    return np.einsum("ikjk->ij", r)


def build_single(omega, bath) -> np.ndarray:
    """(M+1)-square W of one oscillator: diagonal (omega, omega_j), first row and column g_j."""
    freqs, g = (np.empty(0), np.empty(0)) if bath is None else (bath.frequencies, bath.couplings)
    w = np.diag(np.concatenate([[float(omega)], freqs]))
    w[0, 1:] = w[1:, 0] = g
    return w


def build_two(omega, beta, bath) -> np.ndarray:
    """W of two oscillators of frequency omega, exchange-coupled by beta.

    Each oscillator has its own copy of ``bath``; layout (osc1, bath modes...,
    osc2, bath modes...).  This is the W that ``ReducedPropagator`` splits
    into its two sectors.
    """
    one = build_single(omega, bath)
    n = one.shape[0]
    w = np.zeros((2 * n, 2 * n))
    w[:n, :n] = w[n:, n:] = one
    w[0, n] = w[n, 0] = beta
    return w


def propagator(lam, q, t) -> np.ndarray:
    """Phase-space propagator [[cos Wt, sin Wt], [-sin Wt, cos Wt]] of W = Q diag(lam) Q^T."""
    cos, sin = (q * np.cos(lam * t)) @ q.T, (q * np.sin(lam * t)) @ q.T
    return np.block([[cos, sin], [-sin, cos]])


def dense_states(w, state0, times) -> list:
    """Full states M(t) state0 at ``times`` for any symmetric W, by one eigh."""
    lam, q = np.linalg.eigh(w)
    out = []
    for t in times:
        m = propagator(lam, q, t)
        cov = m @ state0.cov @ m.T
        out.append(GaussianState(state0.n_modes, m @ state0.mean, 0.5 * (cov + cov.T)))
    return out


def sector_cache(reduced):
    """Eigendecomposition (lam, Q) of W (W - omega_L with a drive) assembled from the sector spectra.

    Eigenvector k of a sector has system component q0_k = sqrt(weight_k) and
    bath components q0_k g_hat_j / (lam_k - omega_j) in that sector's modes;
    the mixing P spreads each over the oscillators' copies, in the layout
    (osc1, bath modes..., osc2, bath modes...) of ``build_single``/``build_two``.
    Every bath mode of ``reduced`` must be coupled.
    """
    poles = reduced.freqs - reduced.omega_l
    vecs = []
    for sector in reduced.sectors:
        q0 = np.sqrt(sector.weight)
        gap = sector.tau - (poles[:, None] - sector.origin)  # lam_k - omega_j, (M, N)
        vecs.append(np.vstack([q0, q0 * sector.g_hat[:, None] / gap]))
    p = reduced.mixing
    q = np.vstack([np.hstack([p[a, s] * vec for s, vec in enumerate(vecs)])
                   for a in range(p.shape[0])])
    return np.concatenate([s.eigenvalues for s in reduced.sectors]), q


def fidelity_one_mode(a: GaussianState, b: GaussianState) -> float:
    """Closed-form fidelity of two one-mode Gaussian states, the referee of ``fidelity_multi``.

    F = 2 exp[-delta^T (C1+C2)^{-1} delta] / (sqrt(Lambda+Phi) - sqrt(Phi)) with
    Lambda = det(C1+C2) and Phi = (det C1 - 1)(det C2 - 1).
    """
    assert a.n_modes == b.n_modes == 1
    csum = a.cov + b.cov
    lam = float(np.linalg.det(csum))
    phi = (float(np.linalg.det(a.cov)) - 1.0) * (float(np.linalg.det(b.cov)) - 1.0)
    phi = max(phi, 0.0)  # physical states have det C >= 1; guard rounding
    delta = a.mean - b.mean
    expo = float(delta @ np.linalg.solve(csum, delta))
    f = 2.0 / (np.sqrt(lam + phi) - np.sqrt(phi)) * np.exp(-expo)
    return float(min(max(f, 0.0), 1.0))


def recurrence_time_estimate(bath) -> float:
    """Heuristic bath echo time 2*pi/(level spacing); scales linearly with M."""
    if bath.size < 2:
        return np.inf
    dw = (bath.frequencies[-1] - bath.frequencies[0]) / (bath.size - 1)
    return float(2.0 * np.pi / dw)


def recurrence_onset(times, values, baseline_end: float, factor: float = 3.0) -> float:
    """First time the distance exceeds ``factor`` times its pre-recurrence median.

    The baseline window starts after the initial adjustment transient (first
    tenth of the window) and ends at ``baseline_end``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window = (times > 0.1 * baseline_end) & (times <= baseline_end)
    assert window.sum() >= 3, "baseline window too short to estimate an onset"
    threshold = factor * np.median(values[window])
    beyond = np.nonzero((times > baseline_end) & (values > threshold))[0]
    assert beyond.size, "no recurrence onset detected within the time grid"
    return float(times[beyond[0]])


def linear_fit(x, y):
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
    return float(slope), float(intercept), float(r2)


def driven_variant_error(config, variant: str) -> float:
    """Time-averaged D_B between exact and Markovian driven evolution."""
    exact, (states,) = _compare(config, (variant,), _times(config))
    return float(np.mean(db_distance(exact, states)))
