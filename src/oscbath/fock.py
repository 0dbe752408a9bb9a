"""Brute-force referee: dense Lindblad integration in a truncated number basis.

Used by tests and the ``oracle`` CLI subcommand to validate every moment flow
in :mod:`oscbath.flows` against a direct density-matrix integration: it
consumes the same :class:`~oscbath.flows.QuadraticLindblad` generator the flow
is derived from.  :func:`integrate` makes one RK45 run per time grid, in the
rotating frame of the generator's common frequency when there is no drive.
Scope is deliberately small (1-2 modes, low occupation) so runs stay
seconds-fast.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .flows import QuadraticLindblad

__all__ = [
    "destroy",
    "mode_operators",
    "build_superoperator",
    "integrate",
    "moments",
    "vacuum_rho",
    "thermal_rho",
    "coherent_rho",
    "squeezed_vacuum_rho",
    "assert_density_matrix",
]


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a dim-level truncation."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def mode_operators(n_modes: int, cutoff: int) -> list[np.ndarray]:
    """Annihilation operators of each mode on the full truncated product space."""
    dim = cutoff + 1
    a = destroy(dim)
    eye = np.eye(dim)
    if n_modes == 1:
        return [a]
    if n_modes == 2:
        return [np.kron(a, eye), np.kron(eye, a)]
    raise ValueError("the Fock referee supports 1 or 2 modes only")


def build_superoperator(lindblad: QuadraticLindblad, cutoff: int) -> sp.csr_matrix:
    """Sparse matrix acting on row-major vec(rho) as the master-equation generator.

    Each mode is truncated at ``cutoff`` quanta.  vec(A rho B) = (A kron B^T)
    vec(rho) for row-major flattening, so -i[H, .] maps to
    -i(H kron 1 - 1 kron H^T) and each dissipator term
    g (L . R^dag - {R^dag L, .}/2) to its three Kronecker pieces.
    """
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    n = lindblad.n_modes
    ops = [sp.csr_matrix(a) for a in mode_operators(n, cutoff)]
    d = (cutoff + 1) ** n
    eye = sp.identity(d, dtype=complex, format="csr")
    ham = sp.csr_matrix((d, d), dtype=complex)
    for j in range(n):
        for k in range(n):
            if lindblad.h[j, k] != 0:
                ham = ham + lindblad.h[j, k] * (ops[j].T.conj() @ ops[k])
    if lindblad.drive is not None:
        for j in range(n):
            ham = (ham + lindblad.drive[j] * ops[j].T.conj()
                   + np.conj(lindblad.drive[j]) * ops[j])

    lind = -1j * (sp.kron(ham, eye) - sp.kron(eye, ham.T))
    terms = []
    for j in range(n):
        for k in range(n):
            if lindblad.k_emit[j, k] != 0:
                terms.append((lindblad.k_emit[j, k], ops[j], ops[k]))
            if lindblad.k_abs[j, k] != 0:
                terms.append((lindblad.k_abs[j, k], ops[j].T.conj(), ops[k].T.conj()))
    for g, left, right in terms:
        rdl = right.T.conj() @ left
        lind = lind + g * (sp.kron(left, right.conj())
                           - 0.5 * (sp.kron(rdl, eye) + sp.kron(eye, rdl.T)))
    return sp.csr_matrix(lind)


RTOL = 1e-10
ATOL = 1e-12


def integrate(lindblad: QuadraticLindblad, cutoff: int, rho0: np.ndarray, times):
    """Density matrices at each of ``times`` under the master equation truncated at ``cutoff``.

    ``times`` is a non-decreasing 1-D sequence of t >= 0; the result has shape
    (len(times), d, d).  One adaptive RK45 run covers the whole grid and keeps
    only the requested states.  A t = 0 entry returns rho0 unchanged.

    Without a drive every term of the generator conserves n_row - n_col of
    each vec(rho) entry, also at the truncation edge, so the grading
    superoperator Delta commutes with L and
    e^{tL} = e^{-i w t Delta} e^{t(L + i w Delta)} exactly for any w.  With
    w = tr(h)/n the fast common rotation is applied as an elementwise phase
    and RK45 integrates only the slow remainder.  A drive breaks the grading,
    so driven generators (already written in the laser frame) use w = 0.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0)
            or np.any(np.diff(times) < 0)):
        raise ValueError("times must be a non-decreasing 1-D sequence of finite t >= 0")
    lind = build_superoperator(lindblad, cutoff)
    n = lindblad.n_modes
    d = (cutoff + 1) ** n
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 must be {d}x{d}")
    rho0 = rho0.astype(complex)
    out = np.empty((times.size, d, d), dtype=complex)
    out[times == 0] = rho0
    later = times > 0
    if not later.any():
        return out

    quanta = np.arange(cutoff + 1)
    if n == 2:
        quanta = np.add.outer(quanta, quanta).ravel()
    delta = np.subtract.outer(quanta, quanta).ravel()  # n_row - n_col of vec(rho)
    omega = np.trace(lindblad.h).real / n if lindblad.drive is None else 0.0
    slow = lind + sp.diags(1j * omega * delta)
    t_eval, inverse = np.unique(times[later], return_inverse=True)
    sol = solve_ivp(lambda _t, y: slow @ y, (0.0, t_eval[-1]), rho0.ravel(),
                    method="RK45", t_eval=t_eval, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise ArithmeticError(f"Lindblad integration failed: {sol.message}")
    ys = sol.y.T * np.exp(-1j * omega * t_eval[:, None] * delta)
    rho = ys.reshape(-1, d, d)[inverse]
    out[later] = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    return out


def moments(rho: np.ndarray, n_modes: int, cutoff: int):
    """Mean vector and covariance matrix of rho in the package's conventions.

    Warns when occupation of the top truncation level exceeds 1e-6, which
    signals that the reported moments may be truncation-biased.
    """
    ops = mode_operators(n_modes, cutoff)
    dim = cutoff + 1
    top = np.zeros(dim)
    top[-1] = 1.0
    for j in range(n_modes):
        if n_modes == 1:
            proj = np.diag(top)
        else:
            proj = np.diag(np.kron(top, np.ones(dim)) if j == 0 else np.kron(np.ones(dim), top))
        occupancy = float(np.real(np.trace(rho @ proj)))
        if occupancy > 1e-6:
            warnings.warn(
                f"mode {j} occupies the truncation edge with weight {occupancy:.2e}; "
                "moments may be biased", UserWarning)
    amps = np.array([np.trace(rho @ op) for op in ops])
    mean = np.concatenate([np.sqrt(2.0) * amps.real, np.sqrt(2.0) * amps.imag])
    nmat = np.zeros((n_modes, n_modes), dtype=complex)
    mmat = np.zeros((n_modes, n_modes), dtype=complex)
    for j in range(n_modes):
        for k in range(n_modes):
            nmat[j, k] = np.trace(rho @ ops[j].T.conj() @ ops[k]) - np.conj(amps[j]) * amps[k]
            mmat[j, k] = np.trace(rho @ ops[j] @ ops[k]) - amps[j] * amps[k]
    cxx = np.eye(n_modes) + 2.0 * (nmat.real + mmat.real)
    cpp = np.eye(n_modes) + 2.0 * (nmat.real - mmat.real)
    cxp = 2.0 * (mmat.imag + nmat.imag)
    cov = np.block([[cxx, cxp], [cxp.T, cpp]])
    return mean, 0.5 * (cov + cov.T)


def vacuum_rho(cutoff: int) -> np.ndarray:
    out = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    out[0, 0] = 1.0
    return out


def thermal_rho(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal single-mode state, renormalized on the truncated space."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        return vacuum_rho(cutoff)
    p = (nbar / (1.0 + nbar)) ** np.arange(cutoff + 1)
    return np.diag(p / p.sum()).astype(complex)


def coherent_rho(alpha: complex, cutoff: int) -> np.ndarray:
    a = destroy(cutoff + 1)
    disp = expm(alpha * a.T.conj() - np.conj(alpha) * a)
    rho = disp @ vacuum_rho(cutoff) @ disp.T.conj()
    return rho / np.trace(rho).real


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
