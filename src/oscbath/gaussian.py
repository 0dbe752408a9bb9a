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
    "fidelity_multi",
    "db_distance",
]

#: Eigenvalues of C + i*sigma may dip this far below zero before a state is
#: considered unphysical (exact propagation accumulates rounding).
PHYSICALITY_TOL = -1e-10

_SYMMETRY_RTOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] for the block (x..x, p..p) ordering."""
    sigma = np.zeros((2 * n_modes, 2 * n_modes))
    eye = np.eye(n_modes)
    sigma[:n_modes, n_modes:], sigma[n_modes:, :n_modes] = eye, -eye
    return sigma


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` modes given by its first and second moments.

    ``mean`` (..., 2n) and ``cov`` (..., 2n, 2n) may share leading axes: a
    stack of states such as a trajectory, which indexing takes apart.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = 2 * self.n_modes
        if mean.shape[-1:] != (d,) or cov.shape != mean.shape + (d,):
            raise ValueError(f"mean and cov must have shapes (..., {d}) and (..., {d}, {d}) "
                             f"with the same leading axes, got {mean.shape} and {cov.shape}")
        cov_t = np.swapaxes(cov, -1, -2)
        scale = np.maximum(np.abs(cov).max(axis=(-2, -1)), 1.0)
        if np.any(np.abs(cov - cov_t).max(axis=(-2, -1)) > _SYMMETRY_RTOL * scale):
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov_t))

    def __getitem__(self, index) -> "GaussianState":
        return GaussianState(self.n_modes, self.mean[index], self.cov[index])


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
    """Product state a (x) b, with b's modes appended after a's; leading axes broadcast."""
    na, nb = a.n_modes, b.n_modes
    n = na + nb
    ia = np.r_[:na, n:n + na]
    ib = np.r_[na:n, n + na:2 * n]
    lead = np.broadcast_shapes(a.mean.shape[:-1], b.mean.shape[:-1])
    mean = np.zeros(lead + (2 * n,))
    mean[..., ia], mean[..., ib] = a.mean, b.mean
    cov = np.zeros(lead + (2 * n, 2 * n))
    cov[..., ia[:, None], ia], cov[..., ib[:, None], ib] = a.cov, b.cov
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
    return GaussianState(len(keep), state.mean[..., idx], state.cov[..., idx[:, None], idx])


def physicality_violation(state: GaussianState):
    """Smallest eigenvalue of C + i*sigma of each state (negative values signal unphysicality)."""
    herm = state.cov + 1j * symplectic_form(state.n_modes)
    return np.linalg.eigvalsh(herm).min(axis=-1)


def fidelity_multi(a: GaussianState, b: GaussianState):
    """Uhlmann fidelity of two n-mode Gaussian states from their moments, per state.

    Uses the symplectic-invariant evaluation

        F = 2^n / sqrt(det(C1+C2)) * prod_k [nu_k + sqrt(nu_k^2 - 1)]
            * exp[-delta^T (C1+C2)^{-1} delta],

    where the nu_k are the symplectic eigenvalues of the Gaussian operator
    sqrt(rho1) rho2 sqrt(rho1): the positive eigenvalues of
    W = (V1 V2 + 1)(V1 + V2)^{-1} with V_j = C_j * (i sigma).  Since
    AB + 1 = A(A+B) - (A^2 - 1) = (A+B)B - (B^2 - 1),

        W^2 - 1 = (V1^2 - 1)(V1 + V2)^{-1}(V2^2 - 1)(V1 + V2)^{-1} =: P,

    whose eigenvalues are the nu_k^2 - 1, each twice, and
    log(nu + sqrt(nu^2 - 1)) = asinh(sqrt(nu^2 - 1)).  Either matrix is
    diagonalized to about eps times its norm, and near nu = 1 an error dnu
    costs dnu / sqrt(nu^2 - 1) while an error dp costs dp / (2 sqrt(p)), so
    the spectrum comes from P when ||P|| < 2 ||W||: states whose modes are
    all moderately mixed, where P's factors V_j^2 - 1 are small.  Hot modes
    make ||P|| ~ nu_max^2 and leave the evaluation on W.  The expression is
    regular for pure states (nu_k -> 1) and reduces exactly to the one-mode
    closed form.  Leading axes broadcast, and each pair diagonalizes only the
    matrix of its own branch.
    """
    if a.n_modes != b.n_modes:
        raise ValueError(f"mode count mismatch: {a.n_modes} vs {b.n_modes}")
    n = a.n_modes
    eye = np.eye(2 * n)
    sigma = symplectic_form(n)
    s = 1j * sigma
    v1 = a.cov @ s
    v2 = b.cov @ s
    csum = a.cov + b.cov
    try:
        waux = np.linalg.solve((v1 + v2).swapaxes(-1, -2),
                               (v1 @ v2 + eye).swapaxes(-1, -2)).swapaxes(-1, -2)
        q = sigma @ np.linalg.inv(csum)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular covariance sum in fidelity") from exc
    # P in real arithmetic: V_j^2 - 1 = -(C_j sigma C_j sigma + 1), (V1 + V2)^{-1} = i q
    paux = -(a.cov @ sigma @ a.cov @ sigma + eye) @ q @ (b.cov @ sigma @ b.cov @ sigma + eye) @ q
    on_p = np.linalg.norm(paux, axis=(-2, -1)) < 2.0 * np.linalg.norm(waux, axis=(-2, -1))
    log_nu = np.empty(on_p.shape)
    p = _real_spectrum(paux[on_p])
    log_nu[on_p] = 0.5 * np.sum(np.arcsinh(np.sqrt(np.maximum(p, 0.0))), axis=-1)
    w = _real_spectrum(waux[~on_p])
    if np.any((w > 0).sum(axis=-1) != n):
        raise ArithmeticError("unexpected composite spectrum; states may be unphysical")
    nu = np.maximum(w[w > 0], 1.0).reshape(-1, n)
    log_nu[~on_p] = np.sum(np.log(nu + np.sqrt(nu**2 - 1.0)), axis=-1)
    _, logdet = np.linalg.slogdet(csum)
    delta = a.mean - b.mean
    expo = (delta[..., None, :] @ np.linalg.solve(csum, delta[..., None]))[..., 0, 0]
    logf = n * np.log(2.0) - 0.5 * logdet + log_nu - expo
    return np.minimum(np.exp(logf), 1.0)


def _real_spectrum(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of each matrix of a stack; ArithmeticError unless they are real."""
    eigs = np.linalg.eigvals(m)
    scale = np.maximum(np.abs(eigs.real).max(axis=-1), 1.0)
    if np.any(np.abs(eigs.imag).max(axis=-1) > 1e-6 * scale):
        raise ArithmeticError("unexpected composite spectrum; states may be unphysical")
    return eigs.real


def db_distance(a: GaussianState, b: GaussianState):
    """Distance D_B = sqrt(1 - F), in [0, 1], per state."""
    return np.sqrt(np.maximum(1.0 - fidelity_multi(a, b), 0.0))
