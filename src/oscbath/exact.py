"""Exact Gaussian evolution of system + discretized bath.

The quadratic Hamiltonian with coupling matrix W evolves annihilation
operators as A(t) = exp(-iWt) A(0), so the phase-space propagator in block
ordering (x..., p...) is

    M(t) = [[cos(Wt), sin(Wt)], [-sin(Wt), cos(Wt)]]  with T_R = cos(Wt),
    T_I = -sin(Wt), M = [[T_R, -T_I], [T_I, T_R]].

One symmetric eigendecomposition of W serves every requested time.  The
initial state is always the product system state (x) thermal baths, so a
reduced state needs only the system rows of M(t), the bath variances and the
system state.  A classical drive, in the frame rotating at its frequency, is
an affine offset stored in the same cache.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bath import BathCouplings
from .gaussian import GaussianState, thermal_variance

__all__ = [
    "CouplingMatrix",
    "PropagatorCache",
    "build_single",
    "build_two",
    "propagator",
    "initial_variances",
    "reduced_state",
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
    """Spectral decomposition of a fixed W, reused for cos(Wt)/sin(Wt) at any t.

    ``drive_offset`` is W^{-1} b for a classical drive b (zeros without one):
    it adds the affine term of the driven evolution to every mean.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    system_indices: tuple[int, ...]
    drive_offset: np.ndarray

    @classmethod
    def build(cls, coupling: CouplingMatrix) -> "PropagatorCache":
        evals, evecs = np.linalg.eigh(coupling.matrix)
        return cls(evals, evecs, coupling.system_indices, np.zeros(coupling.dim))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

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
    return cache.rows(t, range(cache.dim))


def initial_variances(coupling: CouplingMatrix, baths, temperatures) -> np.ndarray:
    """Quadrature variances of the thermal baths, one per mode of ``coupling``.

    ``baths`` and ``temperatures`` are sequences with one entry per oscillator
    (entries may be None/ignored for bath-less oscillators).  System entries
    are 0: their block of the product initial state is the system state's.
    """
    sys_idx = list(coupling.system_indices)
    var = np.ones(coupling.dim)
    for k, sidx in enumerate(sys_idx):
        bath = baths[k] if k < len(baths) else None
        if bath is not None and bath.size:
            var[sidx + 1: sidx + 1 + bath.size] = thermal_variance(
                bath.frequencies, temperatures[k])
    var[sys_idx] = 0.0
    return var


def reduced_state(cache: PropagatorCache, t: float, system0: GaussianState,
                  variances: np.ndarray) -> GaussianState:
    """Evolved system modes from system0 (x) thermal baths (``initial_variances``).

    The initial covariance is diag(v, v) plus the system block, so with R the
    system rows of M(t) and R_s their system columns,
    C(t) = (R diag(v, v)) R^T + R_s C_sys R_s^T; no 2N x 2N matrix is formed.
    Means gain sqrt(2)*((T_R-1) w ; T_I w) with w = ``cache.drive_offset``.
    """
    sys_idx = list(cache.system_indices)
    k, n = len(sys_idx), cache.dim
    if system0.n_modes != k:
        raise ValueError("system state does not match the number of system modes")
    rows = cache.rows(t, sys_idx)
    r_sys = rows[:, sys_idx + [i + n for i in sys_idx]]
    cov = ((rows * np.concatenate([variances, variances])) @ rows.T
           + r_sys @ system0.cov @ r_sys.T)
    w = cache.drive_offset
    shift = np.sqrt(2.0) * np.concatenate([rows[:k, :n] @ w - w[sys_idx],
                                           rows[k:, :n] @ w])
    mean = r_sys @ system0.mean + shift
    return GaussianState(k, mean, 0.5 * (cov + cov.T))


SINGULAR_TOL = 1e-12  # relative size below which an eigenvalue of W - omega_L counts as 0


def build_drive(coupling: CouplingMatrix, rabi: float, omega_l: float) -> PropagatorCache:
    """Cache of W0 = W - omega_L (frame rotating at the drive) with offset W0^{-1} b.

    b = (r, 0, ...) drives the first system mode with Rabi frequency r.
    """
    w0 = coupling.matrix - omega_l * np.eye(coupling.dim)
    cache = PropagatorCache.build(CouplingMatrix(w0, coupling.system_indices))
    scale = max(np.abs(cache.eigenvalues).max(), 1.0)
    smallest = np.abs(cache.eigenvalues).min()
    if smallest < SINGULAR_TOL * scale:
        offender = cache.eigenvalues[np.abs(cache.eigenvalues).argmin()]
        raise ArithmeticError(
            f"W - omega_L*1 is singular: eigenvalue {offender + omega_l:.12g} "
            f"resonant with drive frequency {omega_l:.12g}; perturb omega_L")
    b = np.zeros(coupling.dim)
    b[coupling.system_indices[0]] = rabi
    w0inv_b = cache.eigenvectors @ ((cache.eigenvectors.T @ b) / cache.eigenvalues)
    return replace(cache, drive_offset=w0inv_b)


def evolve_driven(cache: PropagatorCache, state0: GaussianState, t: float) -> GaussianState:
    """Full-state evolution with the drive of ``cache`` (the reduced states' referee).

    Means gain the affine term sqrt(2)*((T_R-1) W0^{-1} b ; T_I W0^{-1} b) (the
    sqrt(2) converts amplitude units to our quadrature normalization); the
    drive cancels from the covariance.
    """
    prop = propagator(cache, t)
    n = cache.dim
    w = cache.drive_offset
    shift = np.sqrt(2.0) * np.concatenate([prop[:n, :n] @ w - w, prop[n:, :n] @ w])
    mean = prop @ state0.mean + shift
    cov = prop @ state0.cov @ prop.T
    return GaussianState(state0.n_modes, mean, 0.5 * (cov + cov.T))


def recurrence_time_estimate(bath: BathCouplings) -> float:
    """Heuristic bath echo time 2*pi/(level spacing); scales linearly with M."""
    if bath.size < 2:
        return np.inf
    dw = (bath.frequencies[-1] - bath.frequencies[0]) / (bath.size - 1)
    return float(2.0 * np.pi / dw)
