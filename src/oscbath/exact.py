"""Exact Gaussian evolution of system + discretized bath.

The quadratic Hamiltonian with one-particle coupling matrix W evolves
annihilation operators as a(t) = exp(-iWt) a(0).  Two entry points evaluate
this, each at every reported time in one call.

``ReducedPropagator.states`` gives the reduced states that every
exact-vs-Markov comparison needs.  One oscillator with a bath has an
arrowhead W: a diagonal of bath frequencies bordered by one row of
couplings, and so has W - omega_L in the frame of a drive at omega_L.  Two
oscillators of equal frequency Omega, each with its own copy of one bath,
split under (x1 +- x2)/sqrt(2), (b1j +- b2j)/sqrt(2) into two arrowhead
"sectors" with system frequencies Omega +- beta and the bath's omega_j, g_j.
A sector's eigenvalues lam_k are the roots of its secular equation
(``_arrowhead_spectrum``, O(N^2) time, O(block x N) memory); eigenvector k has
system component q0_k and bath components q0_k g_hat_j / (lam_k - omega_j).
So the system row of exp(-iWt) is

    u_0(t) = sum_k q0_k^2 e^{-i lam_k t},
    u_j(t) = g_hat_j sum_k q0_k^2 e^{-i lam_k t} / (lam_k - omega_j),

a (times x N) matrix times a Cauchy matrix, one product per column block
for every reported time at once (``_Sector.bath_rows``).  Only the roots,
g_hat and q0 are stored: no N x N array is formed.  The initial state is
the product system state (x) thermal baths, so a reduced state needs only
these amplitudes, the bath variances and the system state.  Bath modes with
g_j = 0 are exactly decoupled and dropped first, so a bath-less oscillator
is the M = 0 case of the same code.  At t = 0 a reduced state is the initial
state itself.

``full_states`` gives the full system + bath states of the factorization
study.  It diagonalizes the one oscillator's W with ``np.linalg.eigh`` and
applies the phase-space propagator in block ordering (x..., p...),

    M(t) = [[cos(Wt), sin(Wt)], [-sin(Wt), cos(Wt)]],

to the initial full state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathCouplings
from .gaussian import GaussianState, thermal_variance

__all__ = ["ReducedPropagator", "RwaValidityWarning", "full_states"]


class RwaValidityWarning(UserWarning):
    """Emitted when a rotating-wave premise of the model is strained."""


_SECULAR_BLOCK = 64  # roots (or bath columns) done together: keeps (block x N) temporaries small
_SECULAR_MAX_ITER = 100  # model steps converge in about 6; bisection alone may need ~100


def _arrowhead_spectrum(omega: float, freqs: np.ndarray, g: np.ndarray):
    """Spectrum of [[omega, g^T], [g, diag(freqs)]] in O(N^2) time and O(block x N) memory.

    ``freqs`` must be strictly ascending and every g_j > 0.  The eigenvalues are
    the roots of the secular equation

        f(lam) = omega - lam + sum_j g_j^2 / (lam - freqs_j) = 0,

    one in each interval of the interlacing (below freqs_0, between
    neighbouring freqs, above freqs_-1), and the eigenvector of lam is
    (1, g / (lam - freqs)) normalized (Bunch, Nielsen & Sorensen, Numer. Math.
    31, 1978).  Each root is held as an offset tau from the pole it lies
    nearer to, so lam - freqs_j = tau - (freqs_j - origin) keeps its relative
    accuracy however close lam comes to a pole.  The eigenvectors use the
    couplings g_hat that make the computed roots exact (``_lowner_couplings``),
    so they are orthogonal to working precision even in clusters of poles (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995; Stor, Slapnicar & Barlow,
    Linear Algebra Appl. 464, 2015).

    Every (block x N) array of the build is a view of one workspace of three
    such rows, allocated once: fresh temporaries of that size would be returned
    to the system and zero-filled again on every solver step.

    Returns (origin, tau, g_hat, weight): eigenvalue k is origin_k + tau_k and
    weight_k = q0_k^2 is the squared system component of its eigenvector, whose
    bath components are q0_k g_hat_j / (tau_k - (freqs_j - origin_k)).
    Without bath modes the one eigenvalue is omega itself.
    """
    freqs = np.asarray(freqs, dtype=float)
    g2 = np.asarray(g, dtype=float) ** 2
    n = freqs.size + 1
    if n == 1:
        return np.array([float(omega)]), np.zeros(1), np.empty(0), np.ones(1)
    # the border has norm |g|, so by Weyl every eigenvalue is within |g| of the diagonal's range
    radius = np.sqrt(g2.sum())
    lower = np.concatenate([[min(omega, freqs[0]) - radius], freqs])
    upper = np.concatenate([freqs, [max(omega, freqs[-1]) + radius]])
    work = np.empty((3, min(_SECULAR_BLOCK, n) * n))
    tau, origin = np.empty(n), np.empty(n)
    blocks = [np.arange(start, min(start + _SECULAR_BLOCK, n))
              for start in range(0, n, _SECULAR_BLOCK)]
    for k in blocks:
        tau[k], origin[k] = _secular_roots(omega, freqs, g2, k, lower[k], upper[k], work)
    g_hat = _lowner_couplings(freqs, tau, origin, work)
    weight = np.empty(n)
    for k in blocks:
        ratio = _gaps(tau[k], origin[k], freqs, _view(work[0], k.size, n - 1))
        np.divide(g_hat, ratio, out=ratio)
        weight[k] = 1.0 / (1.0 + np.multiply(ratio, ratio, out=ratio).sum(axis=1))
    return origin, tau, g_hat, weight


def _view(row: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The leading rows x cols of a flat workspace row, as a C-ordered matrix."""
    return row[:rows * cols].reshape(rows, cols)


def _gaps(tau, origin, poles, out):
    """lam_k - poles_j, as tau_k - (poles_j - origin_k), written into ``out``."""
    np.subtract(poles, origin[:, None], out=out)
    return np.subtract(tau[:, None], out, out=out)


def _lowner_couplings(freqs, tau, origin, work):
    """Couplings g_hat for which the roots origin + tau are the exact eigenvalues.

    Evaluating det(W - lam) at lam = freqs_j gives
    g_hat_j^2 = prod_k |lam_k - freqs_j| / prod_{i != j} |freqs_i - freqs_j|.
    Each pole i is paired with the root on its far side from j (root i below
    j, root i + 1 above), so every ratio is >= 1 and the product cannot
    underflow; the two roots around freqs_j stay as factors.  ``work`` holds
    three rows of at least (m + 1) x block floats.
    """
    m = freqs.size
    i = np.arange(m)[:, None]
    g_hat = np.empty(m)
    for start in range(0, m, _SECULAR_BLOCK):
        j = np.arange(start, min(start + _SECULAR_BLOCK, m))
        col = np.arange(j.size)
        gap = _gaps(tau, origin, freqs[j], _view(work[0], m + 1, j.size))
        num = _view(work[1], m, j.size)
        np.copyto(num, gap[1:])
        np.copyto(num, gap[:-1], where=i < j)
        num[j, col] = 1.0
        den = np.subtract(freqs[:, None], freqs[j], out=_view(work[2], m, j.size))
        den[j, col] = 1.0
        ratio = np.divide(num, den, out=num)
        g_hat[j] = np.sqrt(np.abs(gap[j, col] * gap[j + 1, col]) * ratio.prod(axis=0))
    return g_hat


def _secular_roots(omega, freqs, g2, k, lower, upper, work):
    """Roots k (in (lower, upper)) of the secular equation as (tau, origin).

    Each step fits f near tau by its value and slope with a model that keeps
    the two poles around the root (the "middle way" of LAPACK's dlaed4; the
    slope -1 of the linear term is shared between the poles) and takes the
    model's root; a bisection bracket guards the step.  Outer roots have one
    pole and keep the linear term exactly.  ``work`` holds three rows of at
    least k.size x freqs.size floats: the pole offsets freqs - origin, and the
    active roots' differences and pole terms.
    """
    m = freqs.size
    mid = 0.5 * (lower + upper)
    at_mid = np.subtract(mid[:, None], freqs, out=_view(work[0], k.size, m))
    f_mid = omega - mid + np.divide(g2, at_mid, out=at_mid).sum(axis=1)
    right = f_mid > 0  # f decreases between poles: the root lies above mid
    origin = np.where(right, upper, lower)
    origin[k == 0] = upper[k == 0]
    origin[k == m] = lower[k == m]
    offsets = np.subtract(freqs, origin[:, None], out=_view(work[0], k.size, m))
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
        diff = np.take(offsets, act, axis=0, out=_view(work[1], act.size, m))
        np.subtract(tau[act, None], diff, out=diff)
        # positive below the root, negative above
        terms = np.divide(g2, diff, out=_view(work[2], act.size, m))
        total, left = terms.sum(axis=1), below(terms, act)
        f = shift[act] - tau[act] + total
        tol = 8.0 * eps * (np.abs(shift[act]) + np.abs(tau[act]) + 2.0 * left - total)
        t = tau[act]
        lo[act] = np.where(f > 0, t, lo[act])
        hi[act] = np.where(f < 0, t, hi[act])
        # a bracket of adjacent floats locates the root although rounding keeps |f| > tol
        todo = (np.abs(f) > tol) & (hi[act] - lo[act] > 2.0 * eps * np.abs(t))
        if not todo.any():
            break
        slope = np.divide(terms, diff, out=terms)  # -d/dtau of each pole term
        s_below = below(slope, act)
        s_left = s_below[todo]
        s_right = (slope.sum(axis=1) - s_below)[todo]
        act, f, t = act[todo], f[todo], t[todo]
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
        # t is now an end of the bracket: a step back onto an end could cycle forever
        ok = (step > lo[act]) & (step < hi[act])
        tau[act] = np.where(ok, step, 0.5 * (lo[act] + hi[act]))
    else:
        raise ArithmeticError("arrowhead secular solver did not converge")

    return tau, origin


SINGULAR_TOL = 1e-12  # relative size below which an eigenvalue of W - omega_L counts as 0
_PAIR_MIXING = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class _Sector:
    """One arrowhead block of W, as ``_arrowhead_spectrum`` returns it."""

    origin: np.ndarray
    tau: np.ndarray
    g_hat: np.ndarray
    weight: np.ndarray  # q0_k^2

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.origin + self.tau

    def bath_rows(self, poles: np.ndarray, a: np.ndarray) -> np.ndarray:
        """a @ C diag(g_hat) with the Cauchy matrix C_kj = 1/(lam_k - poles_j).

        C is formed one block of columns at a time in one reused buffer, so
        memory stays O(N * block + rows * M).  The product is NumPy's own einsum
        loop, not BLAS: on 2 vCPUs a two-thread OpenBLAS GEMM of one such block
        took 10-50 ms (up to 1 s for the first in a process) against 0.2 ms on
        one thread, and einsum keeps the result independent of the thread count.
        """
        out = np.empty((a.shape[0], poles.size))
        buffer = np.empty(self.tau.size * min(_SECULAR_BLOCK, poles.size))
        for start in range(0, poles.size, _SECULAR_BLOCK):
            j = slice(start, start + _SECULAR_BLOCK)
            cauchy = _gaps(self.tau, self.origin, poles[j],
                           _view(buffer, self.tau.size, poles[j].size))
            out[:, j] = np.einsum("tk,kj->tj", a, np.divide(1.0, cauchy, out=cauchy))
        out *= self.g_hat
        return out


def _real_form(z: np.ndarray) -> np.ndarray:
    """[[Re z, -Im z], [Im z, Re z]] of a stack of complex k x k matrices."""
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


@dataclass(frozen=True)
class ReducedPropagator:
    """Exact reduced dynamics of one oscillator, or an equal-frequency pair, on a bath.

    ``mixing`` P takes sectors to system modes: system mode a is
    sum_s P[a, s] times sector s's system mode, and likewise for each bath
    mode's copies.  ``freqs`` are the coupled bath frequencies (lab frame);
    the sectors hold the spectra of W - omega_L, and a drive of Rabi
    frequency ``rabi`` acts on the first system mode.
    """

    sectors: tuple[_Sector, ...]
    mixing: np.ndarray
    freqs: np.ndarray
    rabi: float = 0.0
    omega_l: float = 0.0

    @classmethod
    def build(cls, omega: float, bath: BathCouplings | None, beta: float | None = None,
              drive: tuple[float, float] | None = None) -> "ReducedPropagator":
        """Sector spectra of one oscillator (``beta`` None) or of a pair.

        A pair is two oscillators of frequency omega exchange-coupled by
        ``beta``, each with its own copy of ``bath``.  ``drive`` = (rabi,
        omega_L) drives the first system mode; its states are reported in the
        frame rotating at omega_L, where W - omega_L must be regular.
        """
        if beta is None:
            system, mixing = [omega], np.ones((1, 1))
        else:
            if beta < 0:
                raise ValueError("beta must be >= 0")
            if beta > omega / 5.0:
                warnings.warn(
                    f"beta={beta} is not small against Omega={omega}; the rotating-wave "
                    "form of the oscillator coupling becomes questionable",
                    RwaValidityWarning,
                )
            system, mixing = [omega + beta, omega - beta], _PAIR_MIXING
        rabi, omega_l = (0.0, 0.0) if drive is None else map(float, drive)
        freqs, g = (np.empty(0), np.empty(0)) if bath is None else (bath.frequencies,
                                                                      bath.couplings)
        coupled = g != 0  # a mode with g_j = 0 never meets the system
        freqs, g = freqs[coupled], g[coupled]
        sectors = tuple(_Sector(*_arrowhead_spectrum(w - omega_l, freqs - omega_l, g))
                        for w in system)
        if drive is not None:
            lam = np.concatenate([s.eigenvalues for s in sectors])
            smallest = np.abs(lam).argmin()
            if abs(lam[smallest]) < SINGULAR_TOL * max(np.abs(lam).max(), 1.0):
                raise ArithmeticError(
                    f"W - omega_L*1 is singular: eigenvalue {lam[smallest] + omega_l:.12g} "
                    f"resonant with drive frequency {omega_l:.12g}; perturb omega_L")
        return cls(sectors, mixing, freqs, rabi, omega_l)

    def states(self, times, system0: GaussianState, temperatures) -> list:
        """Reduced states at ``times`` from system0 (x) thermal baths.

        ``temperatures`` holds one bath temperature per oscillator.  With U the
        system rows of exp(-iWt), U_s their system columns and V the initial
        bath variances, H = U V U^dagger and R_s = [[Re U_s, -Im U_s],
        [Im U_s, Re U_s]] give C(t) = R_s C_sys R_s^T + [[Re H, -Im H],
        [Im H, Re H]] and mean R_s m_sys + sqrt(2) (Re d, Im d), where
        d = (U - 1) W0^{-1} b is the drive's affine term.  Per sector,
        U_s = P diag(u_0) P^T and H = P H_sec P^T, where sectors s and r see
        bath mode j with covariance (P^T diag(v_j) P)_sr: for a pair
        (v1_j + v2_j)/2 within a sector and (v1_j - v2_j)/2 across.  A t = 0
        entry is system0 itself.
        """
        p = self.mixing
        k = p.shape[0]
        if system0.n_modes != k or len(temperatures) != k:
            raise ValueError("system state and temperatures must match the oscillators")
        times = np.asarray(times, dtype=float)
        t = times[times != 0]
        poles = self.freqs - self.omega_l
        u_sys, u_bath, offset = [], [], []
        for sector in self.sectors:
            lam = sector.eigenvalues
            lt = np.outer(t, lam)
            re, im = sector.weight * np.cos(lt), -sector.weight * np.sin(lt)
            u_sys.append(re.sum(axis=1) + 1j * im.sum(axis=1))
            rows = sector.bath_rows(poles, np.concatenate([re, im]))
            u_bath.append(rows[:t.size] + 1j * rows[t.size:])
            if self.rabi:  # (e^{-i lam t} - 1) / lam, without cancellation at small lam t
                half = np.sin(0.5 * lt)
                offset.append(((-2.0 * sector.weight * half * half + 1j * im) / lam).sum(axis=1))
        var = np.array([thermal_variance(self.freqs, temp) for temp in temperatures])
        var_sec = np.einsum("as,aj,ar->srj", p, var, p)
        u_bath = np.array(u_bath)
        h_sec = np.einsum("srj,stj,rtj->tsr", var_sec, u_bath, u_bath.conj())
        h = np.einsum("as,tsr,br->tab", p, h_sec, p)
        r_sys = _real_form(np.einsum("as,ts,bs->tab", p, np.array(u_sys).T, p))
        cov = r_sys @ system0.cov @ r_sys.transpose(0, 2, 1) + _real_form(h)
        mean = r_sys @ system0.mean
        if self.rabi:
            d = self.rabi * np.array(offset).T @ (p * p[0]).T
            mean = mean + np.sqrt(2.0) * np.concatenate([d.real, d.imag], axis=1)
        moving = zip(mean, cov)  # GaussianState symmetrizes each covariance
        return [system0 if ti == 0 else GaussianState(k, *next(moving)) for ti in times]


def full_states(omega: float, bath: BathCouplings, state0: GaussianState, times) -> list:
    """Full system + bath states M(t) state0 at ``times``, from one eigh of W.

    W is the bordered (M+1)-square matrix with diagonal (omega, omega_j) and
    couplings g_j in its first row and column, and state0 lists the system
    mode first.  With W = Q diag(lam) Q^T, cos(Wt) = Q diag(cos lam t) Q^T and
    likewise sin(Wt); each state is (M(t) mean, M(t) C M(t)^T).
    """
    w = np.diag(np.concatenate([[omega], bath.frequencies]))
    w[0, 1:] = w[1:, 0] = bath.couplings
    lam, q = np.linalg.eigh(w)
    out = []
    for t in times:
        lt = lam * t
        cos, sin = (q * np.cos(lt)) @ q.T, (q * np.sin(lt)) @ q.T
        prop = np.block([[cos, sin], [-sin, cos]])
        cov = prop @ state0.cov @ prop.T
        out.append(GaussianState(state0.n_modes, prop @ state0.mean, 0.5 * (cov + cov.T)))
    return out
