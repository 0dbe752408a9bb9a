"""Exact Gaussian evolution of system + discretized bath.

The quadratic Hamiltonian with coupling matrix W evolves annihilation
operators as A(t) = exp(-iWt) A(0), so the phase-space propagator in block
ordering (x..., p...) is

    M(t) = [[cos(Wt), sin(Wt)], [-sin(Wt), cos(Wt)]]  with T_R = cos(Wt),
    T_I = -sin(Wt), M = [[T_R, -T_I], [T_I, T_R]].

One symmetric eigendecomposition of W serves every requested time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathCouplings
from .gaussian import GaussianState, thermal_variance

__all__ = [
    "CouplingMatrix",
    "PropagatorCache",
    "AffineDrive",
    "build_single",
    "build_two",
    "propagator",
    "evolve_cov",
    "reduced_state",
    "global_initial_state",
    "build_drive",
    "evolve_driven",
    "recurrence_time_estimate",
]


class RwaValidityWarning(UserWarning):
    """Emitted when a rotating-wave premise of the model is strained."""


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric one-particle coupling matrix with the system mode positions."""

    matrix: np.ndarray
    system_indices: tuple[int, ...]

    def __post_init__(self):
        w = np.asarray(self.matrix, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("coupling matrix must be square")
        if np.abs(w - w.T).max() > 1e-12 * max(np.abs(w).max(), 1.0):
            raise ValueError("coupling matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (w + w.T))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_single(omega: float, bath: BathCouplings | None) -> CouplingMatrix:
    """(M+1) x (M+1) coupling matrix: diagonal (Omega, omega_j), first row g_j."""
    if bath is None or bath.size == 0:
        return CouplingMatrix(np.array([[float(omega)]]), (0,))
    m = bath.size
    w = np.zeros((m + 1, m + 1))
    w[0, 0] = omega
    w[1:, 1:] = np.diag(bath.frequencies)
    w[0, 1:] = bath.couplings
    w[1:, 0] = bath.couplings
    return CouplingMatrix(w, (0,))


def build_two(omega1: float, omega2: float, beta: float,
              bath1: BathCouplings | None, bath2: BathCouplings | None) -> CouplingMatrix:
    """Two locally damped oscillators exchange-coupled with strength beta.

    Layout: (osc1, bath1 modes..., osc2, bath2 modes...).
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta > min(omega1, omega2) / 5.0:
        warnings.warn(
            f"beta={beta} is not small against Omega={min(omega1, omega2)}; the "
            "rotating-wave form of the oscillator coupling becomes questionable",
            RwaValidityWarning,
        )
    b1 = build_single(omega1, bath1).matrix
    b2 = build_single(omega2, bath2).matrix
    n1, n2 = b1.shape[0], b2.shape[0]
    w = np.zeros((n1 + n2, n1 + n2))
    w[:n1, :n1] = b1
    w[n1:, n1:] = b2
    w[0, n1] = beta
    w[n1, 0] = beta
    return CouplingMatrix(w, (0, n1))


@dataclass(frozen=True)
class PropagatorCache:
    """Spectral decomposition of a fixed W, reused for cos(Wt)/sin(Wt) at any t."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    system_indices: tuple[int, ...]

    @classmethod
    def build(cls, coupling: CouplingMatrix) -> "PropagatorCache":
        evals, evecs = np.linalg.eigh(coupling.matrix)
        return cls(evals, evecs, coupling.system_indices)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def trig(self, t: float):
        """cos(Wt) and -sin(Wt) via Q f(lambda t) Q^T."""
        q = self.eigenvectors
        lt = self.eigenvalues * t
        tr = (q * np.cos(lt)) @ q.T
        ti = -(q * np.sin(lt)) @ q.T
        return tr, ti

    def rows(self, t: float, modes) -> np.ndarray:
        """Phase-space propagator rows (x then p) for the selected modes."""
        modes = list(modes)
        q = self.eigenvectors
        lt = self.eigenvalues * t
        tr = (q[modes, :] * np.cos(lt)) @ q.T
        ti = -(q[modes, :] * np.sin(lt)) @ q.T
        return np.block([[tr, -ti], [ti, tr]])


def propagator(cache: PropagatorCache, t: float) -> np.ndarray:
    """Full 2N x 2N symplectic-orthogonal propagator M(t)."""
    tr, ti = cache.trig(t)
    return np.block([[tr, -ti], [ti, tr]])


def evolve_cov(cov0: np.ndarray, prop: np.ndarray) -> np.ndarray:
    """Covariance congruence C(t) = M C(0) M^T."""
    if cov0.shape[0] != prop.shape[1]:
        raise ValueError("propagator and covariance dimensions do not match")
    return prop @ cov0 @ prop.T


def global_initial_state(coupling: CouplingMatrix, system_state: GaussianState,
                         baths, temperatures) -> GaussianState:
    """System state (x) thermal baths, laid out in the mode order of ``coupling``.

    ``baths`` and ``temperatures`` are sequences with one entry per oscillator
    (entries may be None/ignored for bath-less oscillators).
    """
    n = coupling.dim
    sys_idx = list(coupling.system_indices)
    if system_state.n_modes != len(sys_idx):
        raise ValueError("system state does not match the number of system modes")
    var = np.ones(n)
    for k, sidx in enumerate(sys_idx):
        bath = baths[k] if k < len(baths) else None
        if bath is not None and bath.size:
            var[sidx + 1: sidx + 1 + bath.size] = thermal_variance(
                bath.frequencies, temperatures[k])
    cov = np.diag(np.concatenate([var, var]))
    mean = np.zeros(2 * n)
    idx = np.array(sys_idx + [i + n for i in sys_idx])
    cov[np.ix_(idx, idx)] = system_state.cov
    mean[idx] = system_state.mean
    return GaussianState(n, mean, cov)


def reduced_state(cache: PropagatorCache, t: float, state0: GaussianState) -> GaussianState:
    """Evolved state reduced to the system modes (two propagator rows per mode)."""
    rows = cache.rows(t, cache.system_indices)
    cov = rows @ state0.cov @ rows.T
    mean = rows @ state0.mean
    return GaussianState(len(cache.system_indices), mean, 0.5 * (cov + cov.T))


@dataclass(frozen=True)
class AffineDrive:
    """Rotating-frame data for a classically driven system: W0 = W - omega_L."""

    cache: PropagatorCache
    w0inv_b: np.ndarray
    rabi: float
    omega_l: float


def build_drive(coupling: CouplingMatrix, rabi: float, omega_l: float,
                singular_tol: float = 1e-12) -> AffineDrive:
    """Shift W by the drive frequency and precompute W0^{-1} b for b = (r, 0, ...)."""
    w0 = coupling.matrix - omega_l * np.eye(coupling.dim)
    cache = PropagatorCache.build(CouplingMatrix(w0, coupling.system_indices))
    scale = max(np.abs(cache.eigenvalues).max(), 1.0)
    smallest = np.abs(cache.eigenvalues).min()
    if smallest < singular_tol * scale:
        offender = cache.eigenvalues[np.abs(cache.eigenvalues).argmin()]
        raise ArithmeticError(
            f"W - omega_L*1 is singular: eigenvalue {offender + omega_l:.12g} "
            f"resonant with drive frequency {omega_l:.12g}; perturb omega_L")
    b = np.zeros(coupling.dim)
    b[coupling.system_indices[0]] = rabi
    w0inv_b = cache.eigenvectors @ ((cache.eigenvectors.T @ b) / cache.eigenvalues)
    return AffineDrive(cache, w0inv_b, float(rabi), float(omega_l))


def evolve_driven(drive: AffineDrive, state0: GaussianState, t: float) -> GaussianState:
    """Driven evolution in the frame rotating at omega_L.

    Means gain the affine term sqrt(2)*((T_R-1) W0^{-1} b ; T_I W0^{-1} b) (the
    sqrt(2) converts amplitude units to our quadrature normalization); the
    drive cancels from the covariance.
    """
    cache = drive.cache
    tr, ti = cache.trig(t)
    prop = np.block([[tr, -ti], [ti, tr]])
    shift = np.sqrt(2.0) * np.concatenate([tr @ drive.w0inv_b - drive.w0inv_b,
                                           ti @ drive.w0inv_b])
    mean = prop @ state0.mean + shift
    cov = prop @ state0.cov @ prop.T
    return GaussianState(state0.n_modes, mean, 0.5 * (cov + cov.T))


def reduced_driven_state(drive: AffineDrive, t: float, state0: GaussianState) -> GaussianState:
    """Driven evolution reduced to the system modes without the full propagator."""
    cache = drive.cache
    sys_idx = list(cache.system_indices)
    k, n = len(sys_idx), cache.dim
    rows = cache.rows(t, sys_idx)
    tr_rows, ti_rows = rows[:k, :n], rows[k:, :n]
    shift = np.sqrt(2.0) * np.concatenate([
        tr_rows @ drive.w0inv_b - drive.w0inv_b[sys_idx],
        ti_rows @ drive.w0inv_b,
    ])
    cov = rows @ state0.cov @ rows.T
    mean = rows @ state0.mean + shift
    return GaussianState(len(sys_idx), mean, 0.5 * (cov + cov.T))


def recurrence_time_estimate(bath: BathCouplings) -> float:
    """Heuristic bath echo time 2*pi/(level spacing); scales linearly with M."""
    if bath.size < 2:
        return np.inf
    dw = (bath.frequencies[-1] - bath.frequencies[0]) / (bath.size - 1)
    return float(2.0 * np.pi / dw)
