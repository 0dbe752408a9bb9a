"""Shared test helpers: random physical states, sector eigenbases and Fock-space utilities."""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, sqrtm

from oscbath.exact import PropagatorCache
from oscbath.fock import vacuum_rho
from oscbath.gaussian import GaussianState, symplectic_form


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


def sector_cache(reduced) -> PropagatorCache:
    """Dense eigendecomposition of W (W - omega_L with a drive) assembled from the sector spectra.

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
    return PropagatorCache(np.concatenate([s.eigenvalues for s in reduced.sectors]), q)
