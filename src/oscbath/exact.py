"""Exact Gaussian evolution of system + discretized bath.

The quadratic Hamiltonian with coupling matrix W evolves annihilation
operators as A(t) = exp(-iWt) A(0), so the phase-space propagator in block
ordering (x..., p...) is

    M(t) = [[cos(Wt), sin(Wt)], [-sin(Wt), cos(Wt)]]  with T_R = cos(Wt),
    T_I = -sin(Wt), M = [[T_R, -T_I], [T_I, T_R]].

One eigendecomposition of W serves every requested time.  For one oscillator
with a bath, and for the driven W - omega_L, W is an arrowhead: a diagonal of
bath frequencies bordered by one row of couplings.  Its eigenpairs come from
the secular equation in O(N^2) (``_arrowhead_eigh``), where a dense ``eigh``
costs O(N^3) and dominates large baths.  Every other W (two oscillators, a
bath-less oscillator, a coupling that is not > 0) uses ``np.linalg.eigh``,
and so does the full-state factorization study, whose D_B near agreement
moves with the rounding of any equally exact eigenbasis.  At t = 0 a
reduced state is the initial state itself, whichever solver built the cache,
since Q Q^T = 1 holds only to the solver's rounding.  The initial state
is always the product system state (x) thermal baths, so a reduced state
needs only the system rows of M(t), the bath variances and the system state.
A classical drive, in the frame rotating at its frequency, is an affine
offset stored in the same cache.
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


def _is_arrowhead(coupling: CouplingMatrix) -> bool:
    """True when W is one system mode bordering a diagonal bath (``_arrowhead_eigh``'s input).

    That is ``build_single`` with a bath, also after a uniform shift by a drive
    frequency: system index (0,), bath block diagonal with strictly ascending
    frequencies, and every coupling g_j > 0.
    """
    w = coupling.matrix
    if coupling.system_indices != (0,) or coupling.dim < 2:
        return False
    bath = w[1:, 1:]
    freqs = np.diagonal(bath)
    return bool(np.all(np.diff(freqs) > 0) and np.all(w[0, 1:] > 0)
                and np.count_nonzero(bath) == np.count_nonzero(freqs))


_SECULAR_BLOCK = 64  # roots solved together: keeps the (block x M) temporaries in cache
_SECULAR_MAX_ITER = 100  # model steps converge in about 6; bisection alone may need ~100


def _arrowhead_eigh(omega: float, freqs: np.ndarray, g: np.ndarray):
    """Eigenpairs of [[omega, g^T], [g, diag(freqs)]] in O(N^2), returned like ``np.linalg.eigh``.

    ``freqs`` must be strictly ascending and every g_j > 0.  The eigenvalues are
    the roots of the secular equation

        f(lam) = omega - lam + sum_j g_j^2 / (lam - freqs_j) = 0,

    one in each interval of the interlacing (below freqs_0, between
    neighbouring freqs, above freqs_-1), and the eigenvector of lam is
    (1, g / (lam - freqs)) normalized (Bunch, Nielsen & Sorensen, Numer. Math.
    31, 1978).  Each root is held as an offset tau from the pole it lies
    nearer to, so lam - freqs_j = tau - (freqs_j - origin) keeps its relative
    accuracy however close lam comes to a pole.  The eigenvectors use the
    couplings that make the computed roots exact (``_lowner_couplings``), so
    they are orthogonal to working precision even in clusters of poles (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; Stor, Slapnicar & Barlow,
    Linear Algebra Appl. 464, 2015).
    """
    freqs = np.asarray(freqs, dtype=float)
    g2 = np.asarray(g, dtype=float) ** 2
    n = freqs.size + 1
    # the border has norm |g|, so by Weyl every eigenvalue is within |g| of the diagonal's range
    radius = np.sqrt(g2.sum())
    lower = np.concatenate([[min(omega, freqs[0]) - radius], freqs])
    upper = np.concatenate([freqs, [max(omega, freqs[-1]) + radius]])
    tau, origin = np.empty(n), np.empty(n)
    blocks = [np.arange(start, min(start + _SECULAR_BLOCK, n))
              for start in range(0, n, _SECULAR_BLOCK)]
    for k in blocks:
        tau[k], origin[k] = _secular_roots(omega, freqs, g2, k, lower[k], upper[k])
    g_hat = _lowner_couplings(freqs, tau, origin)
    vecs = np.empty((n, n))  # one eigenvector per row: the norms sum pairwise
    for k in blocks:
        vec = vecs[k[0]:k[-1] + 1]
        vec[:, 0] = 1.0
        np.divide(g_hat, tau[k, None] - (freqs - origin[k, None]), out=vec[:, 1:])
        vec /= np.sqrt((vec * vec).sum(axis=1))[:, None]
    return origin + tau, vecs.T


def _lowner_couplings(freqs, tau, origin):
    """Couplings g_hat for which the roots origin + tau are the exact eigenvalues.

    Evaluating det(W - lam) at lam = freqs_j gives
    g_hat_j^2 = prod_k |lam_k - freqs_j| / prod_{i != j} |freqs_i - freqs_j|.
    Each pole i is paired with the root on its far side from j (root i below
    j, root i + 1 above), so every ratio is >= 1 and the product cannot
    underflow; the two roots around freqs_j stay as factors.
    """
    m = freqs.size
    i = np.arange(m)[:, None]
    g_hat = np.empty(m)
    for start in range(0, m, _SECULAR_BLOCK):
        j = np.arange(start, min(start + _SECULAR_BLOCK, m))
        gap = tau[:, None] - (freqs[j] - origin[:, None])  # lam_k - freqs_j, (m + 1, block)
        own = i == j
        num = np.where(own, 1.0, np.where(i < j, gap[:-1], gap[1:]))
        den = np.where(own, 1.0, freqs[:, None] - freqs[j])
        col = np.arange(j.size)
        g_hat[j] = np.sqrt(np.abs(gap[j, col] * gap[j + 1, col]) * (num / den).prod(axis=0))
    return g_hat


def _secular_roots(omega, freqs, g2, k, lower, upper):
    """Roots k (in (lower, upper)) of the secular equation as (tau, origin).

    Each step fits f near tau by its value and slope with a model that keeps
    the two poles around the root (the "middle way" of LAPACK's dlaed4; the
    slope -1 of the linear term is shared between the poles) and takes the
    model's root; a bisection bracket guards the step.  Outer roots have one
    pole and keep the linear term exactly.
    """
    m = freqs.size
    mid = 0.5 * (lower + upper)
    f_mid = omega - mid + (g2 / (mid[:, None] - freqs)).sum(axis=1)
    right = f_mid > 0  # f decreases between poles: the root lies above mid
    origin = np.where(right, upper, lower)
    origin[k == 0] = upper[k == 0]
    origin[k == m] = lower[k == m]
    lo = np.where(right, mid, lower) - origin
    hi = np.where(right, upper, mid) - origin
    tau = mid - origin
    shift = omega - origin
    has_left, has_right = k > 0, k < m
    pole_lo = np.where(has_left, freqs[np.maximum(k - 1, 0)] - origin, 0.0)
    pole_hi = np.where(has_right, freqs[np.minimum(k, m - 1)] - origin, 0.0)
    # poles below every root of the block, then a band below only some of them
    first, last = k[0], k[-1]
    band = np.arange(first, last) < k[:, None]

    def below(x, rows):
        """Row sums of x over the poles below each root."""
        return x[:, :first].sum(axis=1) + (x[:, first:last] * band[rows]).sum(axis=1)

    eps = np.finfo(float).eps
    act = np.arange(k.size)
    for _ in range(_SECULAR_MAX_ITER):
        diff = tau[act, None] - (freqs - origin[act, None])
        terms = g2 / diff  # positive below the root, negative above
        total, left = terms.sum(axis=1), below(terms, act)
        f = shift[act] - tau[act] + total
        tol = 8.0 * eps * (np.abs(shift[act]) + np.abs(tau[act]) + 2.0 * left - total)
        todo = np.abs(f) > tol
        if not todo.any():
            break
        act, diff, terms, f = act[todo], diff[todo], terms[todo], f[todo]
        t = tau[act]
        lo[act] = np.where(f > 0, t, lo[act])
        hi[act] = np.where(f < 0, t, hi[act])
        slope = terms / diff  # -d/dtau of each pole term
        s_left = below(slope, act)
        s_right = slope.sum(axis=1) - s_left
        a, b = pole_lo[act], pole_hi[act]
        inner = has_left[act] & has_right[act]
        # interior: c + wl/(x - a) + wr/(x - b), matching f and f' at t
        wl = (t - a) ** 2 * (s_left + 0.5)
        wr = (t - b) ** 2 * (s_right + 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = f - wl / (t - a) - wr / (t - b)
            qb = wl + wr - c * (a + b)
            qc = c * a * b - wl * b - wr * a
            disc = np.sqrt(np.maximum(qb * qb - 4.0 * c * qc, 0.0))
            step_in = np.where(qb < 0, (disc - qb) / (2.0 * c), 2.0 * qc / (-qb - disc))
            # outer: c - x + w/(x - p) with the pole p = 0 at the origin
            w_out = t * t * (s_left + s_right)
            c_out = f + t - w_out / t
            disc_out = np.sqrt(c_out * c_out + 4.0 * w_out)
            sign = np.where(has_left[act], 1.0, -1.0)  # the top root lies above its pole
            step_out = np.where(sign * c_out >= 0, 0.5 * (c_out + sign * disc_out),
                                -2.0 * w_out / (c_out - sign * disc_out))
        step = np.where(inner, step_in, step_out)
        ok = (step >= lo[act]) & (step <= hi[act])
        tau[act] = np.where(ok, step, 0.5 * (lo[act] + hi[act]))
    else:
        raise ArithmeticError("arrowhead secular solver did not converge")

    return tau, origin


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
        """Eigendecomposition of W: the secular solver for arrowheads, else ``from_eigh``."""
        if not _is_arrowhead(coupling):
            return cls.from_eigh(coupling)
        w = coupling.matrix
        evals, evecs = _arrowhead_eigh(w[0, 0], np.diagonal(w)[1:], w[0, 1:])
        return cls(evals, evecs, coupling.system_indices, np.zeros(coupling.dim))

    @classmethod
    def from_eigh(cls, coupling: CouplingMatrix) -> "PropagatorCache":
        """Dense symmetric eigendecomposition of any W."""
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
    At t = 0, M = 1 exactly and system0 is returned as it is, so that row
    does not carry the rounding of Q Q^T, which differs between eigensolvers.
    """
    sys_idx = list(cache.system_indices)
    k, n = len(sys_idx), cache.dim
    if system0.n_modes != k:
        raise ValueError("system state does not match the number of system modes")
    if t == 0:
        return system0
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
