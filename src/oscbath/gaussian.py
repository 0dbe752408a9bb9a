"""Multi-mode Gaussian states: constructors, partial trace, fidelity and distances.

Conventions used throughout the package:

* quadratures x_j = (a_j + a_j^dag)/sqrt(2), p_j = (a_j - a_j^dag)/(i sqrt(2)),
  so [x_j, p_k] = i delta_jk;
* phase-space ordering is block-wise, R = (x_1..x_n, p_1..p_n);
* the covariance matrix is C_jk = 2 Re <(R_j - <R_j>)(R_k - <R_k>)>, which makes
  the vacuum covariance the identity and a thermal mode (2 nbar + 1) * I.

Physical states satisfy C + i*sigma >= 0 with sigma the symplectic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "symplectic_form",
    "make_vacuum",
    "make_thermal",
    "make_squeezed_vacuum",
    "make_coherent",
    "tensor_product",
    "partial_trace",
    "physicality_violation",
    "is_physical",
    "fidelity_one_mode",
    "fidelity_multi",
    "bures_distance",
    "db_distance",
]

#: Eigenvalues of C + i*sigma may dip this far below zero before a state is
#: considered unphysical (exact propagation accumulates rounding).
PHYSICALITY_TOL = -1e-10

_SYMMETRY_RTOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] for the block (x..x, p..p) ordering."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` modes given by its first and second moments."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        scale = max(np.abs(cov).max(), 1.0)
        if np.abs(cov - cov.T).max() > _SYMMETRY_RTOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))


def make_vacuum(n_modes: int) -> GaussianState:
    """Vacuum state: zero mean, identity covariance."""
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_variance(omega, temperature):
    """Diagonal covariance entry 1 + 2/(exp(omega/T) - 1) of a thermal mode."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("thermal variance requires positive frequencies")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        return np.ones_like(omega)
    # 1 + 2 nbar = coth(omega / 2T); evaluated in the stable form.  A subnormal
    # T overflows omega / 2T to inf, and tanh(inf) = 1 is the right limit.
    with np.errstate(over="ignore"):
        return 1.0 / np.tanh(omega / (2.0 * temperature))


def make_thermal(frequencies, temperature: float) -> GaussianState:
    """Thermal state of modes with the given frequencies at temperature T (T=0 -> vacuum)."""
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    var = thermal_variance(freqs, temperature)
    n = freqs.size
    return GaussianState(n, np.zeros(2 * n), np.diag(np.concatenate([var, var])))


def make_squeezed_vacuum(r_sq: float) -> GaussianState:
    """One-mode squeezed vacuum with cov = diag(e^{-2r}, e^{+2r})."""
    return GaussianState(1, np.zeros(2), np.diag([np.exp(-2.0 * r_sq), np.exp(2.0 * r_sq)]))


def make_coherent(alpha: complex) -> GaussianState:
    """One-mode coherent state: vacuum covariance, mean sqrt(2)*(Re alpha, Im alpha)."""
    alpha = complex(alpha)
    mean = np.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    return GaussianState(1, mean, np.eye(2))


def tensor_product(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state a (x) b, with b's modes appended after a's."""
    na, nb = a.n_modes, b.n_modes
    n = na + nb
    mean = np.zeros(2 * n)
    mean[:na] = a.mean[:na]
    mean[na:n] = b.mean[:nb]
    mean[n:n + na] = a.mean[na:]
    mean[n + na:] = b.mean[nb:]
    cov = np.zeros((2 * n, 2 * n))
    ia = np.concatenate([np.arange(na), n + np.arange(na)])
    ib = np.concatenate([na + np.arange(nb), n + na + np.arange(nb)])
    cov[np.ix_(ia, ia)] = a.cov
    cov[np.ix_(ib, ib)] = b.cov
    return GaussianState(n, mean, cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state on the modes in ``keep`` (a set of mode indices)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must contain at least one mode index")
    if keep[0] < 0 or keep[-1] >= state.n_modes:
        raise ValueError(f"mode indices {keep} out of range for {state.n_modes} modes")
    n = state.n_modes
    idx = np.array(keep + [k + n for k in keep])
    return GaussianState(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def physicality_violation(state: GaussianState) -> float:
    """Smallest eigenvalue of C + i*sigma (negative values signal unphysicality)."""
    sigma = symplectic_form(state.n_modes)
    herm = state.cov + 1j * sigma
    return float(np.linalg.eigvalsh(herm).min())


def is_physical(state: GaussianState, tol: float = PHYSICALITY_TOL) -> bool:
    """Whether the uncertainty relation C + i*sigma >= tol holds."""
    return physicality_violation(state) >= tol


def _check_same_shape(a: GaussianState, b: GaussianState):
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")


def fidelity_one_mode(a: GaussianState, b: GaussianState) -> float:
    """Closed-form fidelity of two one-mode Gaussian states.

    F = 2 exp[-delta^T (C1+C2)^{-1} delta] / (sqrt(Lambda+Phi) - sqrt(Phi)) with
    Lambda = det(C1+C2) and Phi = (det C1 - 1)(det C2 - 1).
    """
    _check_same_shape(a, b)
    if a.n_modes != 1:
        raise ValueError("fidelity_one_mode requires one-mode states")
    csum = a.cov + b.cov
    lam = float(np.linalg.det(csum))
    phi = (float(np.linalg.det(a.cov)) - 1.0) * (float(np.linalg.det(b.cov)) - 1.0)
    phi = max(phi, 0.0)  # physical states have det C >= 1; guard rounding
    delta = a.mean - b.mean
    try:
        expo = float(delta @ np.linalg.solve(csum, delta))
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular covariance sum in fidelity") from exc
    f = 2.0 / (np.sqrt(lam + phi) - np.sqrt(phi)) * np.exp(-expo)
    return float(min(max(f, 0.0), 1.0))


def fidelity_multi(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity of two n-mode Gaussian states from their moments.

    Uses the symplectic-invariant evaluation

        F = 2^n / sqrt(det(C1+C2)) * prod_k [nu_k + sqrt(nu_k^2 - 1)]
            * exp[-delta^T (C1+C2)^{-1} delta],

    where the nu_k are the symplectic eigenvalues of the Gaussian operator
    sqrt(rho1) rho2 sqrt(rho1), obtained as the positive eigenvalues of
    (V1 V2 + 1)(V1 + V2)^{-1} with V_j = C_j * (i sigma).  The expression is
    regular for pure states (nu_k -> 1) and reduces exactly to the one-mode
    closed form.
    """
    _check_same_shape(a, b)
    n = a.n_modes
    eye = np.eye(2 * n)
    s = 1j * symplectic_form(n)
    v1 = a.cov @ s
    v2 = b.cov @ s
    csum = a.cov + b.cov
    try:
        waux = np.linalg.solve((v1 + v2).T, (v1 @ v2 + eye).T).T
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular covariance sum in fidelity") from exc
    eigs = np.linalg.eigvals(waux)
    pos = eigs[eigs.real > 0]
    if pos.size != n or np.abs(pos.imag).max(initial=0.0) > 1e-6 * max(np.abs(pos.real).max(initial=1.0), 1.0):
        raise ArithmeticError("unexpected composite spectrum; states may be unphysical")
    nu = np.maximum(pos.real, 1.0)
    _, logdet = np.linalg.slogdet(csum)
    delta = a.mean - b.mean
    expo = float(delta @ np.linalg.solve(csum, delta))
    logf = n * np.log(2.0) - 0.5 * logdet + np.sum(np.log(nu + np.sqrt(nu**2 - 1.0))) - expo
    return float(min(np.exp(logf), 1.0))


def bures_distance(a: GaussianState, b: GaussianState) -> float:
    """Bures distance sqrt(2 - 2 sqrt(F))."""
    f = fidelity_multi(a, b)
    return float(np.sqrt(max(2.0 - 2.0 * np.sqrt(f), 0.0)))


def db_distance(a: GaussianState, b: GaussianState) -> float:
    """Distance D_B = sqrt(1 - F), in [0, 1]."""
    f = fidelity_multi(a, b)
    return float(np.sqrt(max(1.0 - f, 0.0)))
