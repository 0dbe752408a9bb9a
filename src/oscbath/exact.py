"""Exact Gaussian evolution of system + discretized bath.

The quadratic Hamiltonian with one-particle coupling matrix W evolves
annihilation operators as a(t) = exp(-iWt) a(0).  Two entry points evaluate
this, each at every reported time in one call that returns one stacked
``GaussianState``.

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

``FullPropagator`` gives the full system + bath states of the factorization
study.  It diagonalizes the one oscillator's W with ``np.linalg.eigh`` and
applies the phase-space propagator in block ordering (x..., p...),

    M(t) = [[cos(Wt), sin(Wt)], [-sin(Wt), cos(Wt)]],

to the initial full state, one stack of M(t) for the times of each call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathCouplings
from .gaussian import GaussianState, thermal_variance

__all__ = ["FullPropagator", "ReducedPropagator", "RwaValidityWarning"]


class RwaValidityWarning(UserWarning):
    """Emitted when a rotating-wave premise of the model is strained."""


_SECULAR_BLOCK = 64  # roots (or bath columns) done together: keeps (block x N) temporaries small
# a block of roots needs 3-6 evaluations of f on the bundled configs; bisection alone ~100
_SECULAR_MAX_ITER = 100
_DOT_CHUNK = 8192  # longest sum handed to one ddot: OpenBLAS threads ddot above 10 000 entries


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

    Returns (origin, tau, g_hat, weight, evaluations): eigenvalue k is origin_k +
    tau_k and weight_k = q0_k^2 is the squared system component of its
    eigenvector, whose bath components are q0_k g_hat_j / (tau_k - (freqs_j -
    origin_k)); ``evaluations`` counts the secular function's evaluations.
    Without bath modes the one eigenvalue is omega itself.
    """
    freqs = np.asarray(freqs, dtype=float)
    g2 = np.asarray(g, dtype=float) ** 2
    n = freqs.size + 1
    if n == 1:
        return np.array([float(omega)]), np.zeros(1), np.empty(0), np.ones(1), 0
    # the border has norm |g|, so by Weyl every eigenvalue is within |g| of the diagonal's range
    radius = np.sqrt(g2.sum())
    lower = np.concatenate([[min(omega, freqs[0]) - radius], freqs])
    upper = np.concatenate([freqs, [max(omega, freqs[-1]) + radius]])
    work = np.empty((3, min(_SECULAR_BLOCK, n) * (n + 1)))
    tau, origin = np.empty(n), np.empty(n)
    evaluations = 0
    blocks = [np.arange(start, min(start + _SECULAR_BLOCK, n))
              for start in range(0, n, _SECULAR_BLOCK)]
    for k in blocks:
        tau[k], origin[k], count = _secular_roots(omega, freqs, g2, k, lower[k], upper[k], work)
        evaluations += count
    g_hat = _lowner_couplings(freqs, tau, origin, work)
    weight = np.empty(n)
    for k in blocks:
        ratio = np.subtract(freqs, origin[k, None], out=_view(work[0], k.size, n - 1))
        np.subtract(tau[k, None], ratio, out=ratio)  # lam_k - freqs_j
        np.divide(g_hat, ratio, out=ratio)
        weight[k] = 1.0 / (1.0 + np.einsum("kj,kj->k", ratio, ratio))
    return origin, tau, g_hat, weight, evaluations


def _view(row: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The leading rows x cols of a flat workspace row, as a C-ordered matrix."""
    return row[:rows * cols].reshape(rows, cols)


def _lowner_couplings(freqs, tau, origin, work):
    """Couplings g_hat for which the roots origin + tau are the exact eigenvalues.

    Evaluating det(W - lam) at lam = freqs_j gives
    g_hat_j^2 = prod_k |lam_k - freqs_j| / prod_{i != j} |freqs_i - freqs_j|.
    Each pole i is paired with the root on its far side from j (root i below
    j, root i + 1 above), whose distance delta_i from pole i has the sign of
    freqs_i - freqs_j, so every ratio is 1 + delta_i / (freqs_i - freqs_j) >= 1
    and the product cannot underflow; the two roots around freqs_j stay as
    factors.  ``work`` holds two rows of at least m x block floats.
    """
    m = freqs.size
    below = tau[:-1] - (freqs - origin[:-1])  # lam_i - freqs_i < 0
    above = tau[1:] - (freqs - origin[1:])  # lam_{i+1} - freqs_i > 0
    g_hat = np.empty(m)
    for start in range(0, m, _SECULAR_BLOCK):
        end = min(start + _SECULAR_BLOCK, m)
        j = np.arange(start, end)
        col = np.arange(j.size)
        den = np.subtract(freqs[:, None], freqs[j], out=_view(work[0], m, j.size))
        den[j, col] = np.inf  # pole j itself is no factor
        ratio = _view(work[1], m, j.size)
        np.divide(below[:start, None], den[:start], out=ratio[:start])
        np.divide(above[end:, None], den[end:], out=ratio[end:])
        np.divide(np.where(col[:, None] < col, below[j, None], above[j, None]), den[start:end],
                  out=ratio[start:end])
        ratio += 1.0
        g_hat[j] = np.sqrt(np.abs(below[j] * above[j]) * ratio.prod(axis=0))
    return g_hat


def _secular_roots(omega, freqs, g2, k, lower, upper, work):
    """Roots k (in (lower, upper)) of the secular equation as (tau, origin, evaluations).

    The sign of f at the midpoint of (lower, upper) picks the half that holds
    the root, and the pole at that half's end becomes the origin (the upper
    pole for the bottom root, the lower for the top one).  An interior root
    starts at the root of the model that keeps its two poles with their own
    weights g_{k-1}^2 and g_k^2 and freezes the rest of f at f(mid), or at
    mid if that model root lies outside the half (the initial guess of
    LAPACK's dlaed4: R.-C. Li, "Solving secular equations stably and
    efficiently", LAPACK Working Note 89, 1993).  Outer roots start at mid.
    Each step then fits f near tau by its value and slope with a model that
    keeps the two poles around the root (dlaed4's "middle way": the slope -1
    of the linear term is shared between the poles) and takes the model's
    root; a bisection bracket guards the step.  Outer roots have one pole and
    keep the linear term exactly.  ``evaluations`` counts the evaluations of f
    over all roots: one at the start and one after each step.
    ``work`` holds three rows of at least k.size x (freqs.size + 2) floats:
    the pole offsets freqs - origin, the active roots' lam - freqs_j, and
    their pole terms or slopes, each row between two zeros.
    """
    m = freqs.size
    mid = 0.5 * (lower + upper)
    at_mid = np.subtract(mid[:, None], freqs, out=_view(work[0], k.size, m))
    terms = np.divide(g2, at_mid, out=at_mid)
    f_mid = omega - mid + terms.sum(axis=1)
    right = f_mid > 0  # f decreases between poles: the root lies above mid
    origin = np.where(right, upper, lower)
    origin[k == 0] = upper[k == 0]
    origin[k == m] = lower[k == m]
    lo = np.where(right, mid, lower) - origin
    hi = np.where(right, upper, mid) - origin
    has_left, has_right = k > 0, k < m
    inner = has_left & has_right
    j_lo, j_hi = np.maximum(k - 1, 0), np.minimum(k, m - 1)
    pole_lo = np.where(has_left, freqs[j_lo] - origin, 0.0)
    pole_hi = np.where(has_right, freqs[j_hi] - origin, 0.0)
    rows = np.arange(k.size)
    rest = f_mid - terms[rows, j_lo] - terms[rows, j_hi]
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = _two_pole_root(rest, g2[j_lo], g2[j_hi], pole_lo, pole_hi)
    tau = np.where(inner & (guess > lo) & (guess < hi), guess, mid - origin)
    offsets = np.subtract(freqs, origin[:, None], out=_view(work[0], k.size, m))
    shift = omega - origin
    eps = np.finfo(float).eps
    act = np.arange(k.size)
    evaluations = 0
    for _ in range(_SECULAR_MAX_ITER):
        evaluations += act.size
        t, s = tau[act], shift[act]
        diff = _view(work[1], act.size, m)
        rows_offsets = offsets if act.size == k.size else np.take(offsets, act, axis=0, out=diff)
        np.subtract(t[:, None], rows_offsets, out=diff)  # lam - freqs_j
        # each root's terms lie between two zeros, cut at its first pole above:
        # neither part is empty, and its pairwise sum does not depend on the block
        padded = _view(work[2], act.size, m + 2)
        padded[:, 0] = padded[:, -1] = 0.0
        start = np.arange(act.size) * (m + 2)
        cuts = np.column_stack([start, start + 1 + k[act]]).ravel()
        terms = np.divide(g2, diff, out=padded[:, 1:-1])  # positive below the root
        left, right = np.add.reduceat(padded.ravel(), cuts).reshape(-1, 2).T
        f = s - t + (left + right)
        tol = 8.0 * eps * (np.abs(s) + np.abs(t) + left - right)
        lo_t = lo[act] = np.where(f > 0, t, lo[act])
        hi_t = hi[act] = np.where(f < 0, t, hi[act])
        # a bracket of adjacent floats locates the root although rounding keeps |f| > tol
        todo = (np.abs(f) > tol) & (hi_t - lo_t > 2.0 * eps * np.abs(t))
        if not todo.any():
            break
        np.divide(terms, diff, out=terms)  # -d/dtau of each pole term
        s_left, s_right = np.add.reduceat(padded.ravel(), cuts).reshape(-1, 2)[todo].T
        act, f, t, lo_t, hi_t = act[todo], f[todo], t[todo], lo_t[todo], hi_t[todo]
        step = _model_root(f, t, s_left, s_right, pole_lo[act], pole_hi[act], has_left[act],
                           inner[act])
        # t is now an end of the bracket: a step back onto an end could cycle forever
        tau[act] = np.where((step > lo_t) & (step < hi_t), step, 0.5 * (lo_t + hi_t))
    else:
        raise ArithmeticError("arrowhead secular solver did not converge")

    return tau, origin, evaluations


def _model_root(f, t, s_left, s_right, a, b, has_left, inner):
    """Root of the model matching f and f' = -1 - s_left - s_right at t.

    An interior root's model is c + wl/(x - a) + wr/(x - b); an outer root's
    is c - x + w/x, with its one pole at the origin.
    """
    wl = (t - a) ** 2 * (s_left + 0.5)
    wr = (t - b) ** 2 * (s_right + 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = _two_pole_root(f - wl / (t - a) - wr / (t - b), wl, wr, a, b)
        if inner.all():
            return root
        w = t * t * (s_left + s_right)
        c = f + t - w / t
        disc = np.sqrt(c * c + 4.0 * w)
        sign = np.where(has_left, 1.0, -1.0)  # the top root lies above its pole
        outer = np.where(sign * c >= 0, 0.5 * (c + sign * disc), -2.0 * w / (c - sign * disc))
    return np.where(inner, root, outer)


def _two_pole_root(c, wl, wr, a, b):
    """Root in (a, b) of c + wl/(x - a) + wr/(x - b), for wl, wr > 0.

    It is a root of c x^2 + qb x + qc, taken in the form that does not cancel.
    """
    qb = wl + wr - c * (a + b)
    qc = c * a * b - wl * b - wr * a
    disc = np.sqrt(np.maximum(qb * qb - 4.0 * c * qc, 0.0))
    return np.where(qb < 0, (disc - qb) / (2.0 * c), 2.0 * qc / (-qb - disc))


_PAIR_MIXING = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class _Sector:
    """One arrowhead block of W, as ``_arrowhead_spectrum`` returns it."""

    origin: np.ndarray
    tau: np.ndarray
    g_hat: np.ndarray
    weight: np.ndarray  # q0_k^2
    evaluations: int  # of the secular function, over all roots

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.origin + self.tau

    def bath_rows(self, poles: np.ndarray, a: np.ndarray) -> np.ndarray:
        """a @ C diag(g_hat) with the Cauchy matrix C_kj = 1/(lam_k - poles_j).

        C^T is formed one block of poles at a time in one reused buffer, so
        memory stays O(N * block + rows * M).  Each entry of the product is a
        dot product of a row of a with a row of C^T (``np.vecdot``, which calls
        OpenBLAS ddot), taken in chunks of ``_DOT_CHUNK`` roots: OpenBLAS
        splits a ddot over its threads above 10 000 entries, and the chunks
        keep every sum on one thread, so the result does not depend on the
        thread count.  On 2 vCPUs a block of 64 poles, 1601 roots and 30 rows
        takes 0.6 ms, against 1.0 ms in NumPy's einsum loop.  No GEMM or
        GEMV: a two-thread OpenBLAS GEMM of one such block has taken 10-50 ms
        (up to 1 s for the first in a process) against 0.2 ms on one thread.
        """
        n = self.tau.size
        out = np.zeros((a.shape[0], poles.size))
        buffer = np.empty(n * min(_SECULAR_BLOCK, poles.size))
        for start in range(0, poles.size, _SECULAR_BLOCK):
            j = slice(start, start + _SECULAR_BLOCK)
            cauchy = np.subtract(poles[j, None], self.origin, out=_view(buffer, poles[j].size, n))
            np.divide(1.0, np.subtract(self.tau, cauchy, out=cauchy), out=cauchy)
            for chunk in range(0, n, _DOT_CHUNK):
                k = slice(chunk, chunk + _DOT_CHUNK)
                out[:, j] += np.vecdot(a[:, None, k], cauchy[:, k])
        out *= self.g_hat
        return out


def _real_form(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """[[re, -im], [im, re]] of each pair of a stack of k x k matrices, by slices."""
    k = re.shape[-1]
    out = np.empty(re.shape[:-2] + (2 * k, 2 * k))
    out[..., :k, :k] = out[..., k:, k:] = re
    out[..., :k, k:], out[..., k:, :k] = -im, im
    return out


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
        frame rotating at omega_L.
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
        return cls(sectors, mixing, freqs, rabi, omega_l)

    def states(self, times, system0: GaussianState, temperatures) -> GaussianState:
        """Reduced states at the 1-D ``times`` from system0 (x) thermal baths, as one stack.

        ``temperatures`` holds one bath temperature per oscillator.  Sector s gives
        the amplitudes u_s of its system row: u_0, the u_j and the drive's offset
        (e^{-i lam t} - 1)/lam = -t (sin(x/2) s(x/2) + i s(x)) at x = lam t, with
        s(x) = sin(x)/x: entire in lam, so lam = 0 (a drive resonant with W) gives
        -i t.  One map takes each to the sites, X[a, b] = sum_s
        P[a, s] u_s P[b, s]: the amplitude with which system mode b, or mode j of
        bath b, reaches system mode a.  So U = X(u_0), and each bath's variances
        v_bj weigh only its own amplitudes, H[a, c] = sum_bj v_bj X_ab(u_j)
        conj(X_cb(u_j)): no two baths' noise is subtracted.  With R = [[Re U, -Im U],
        [Im U, Re U]], C(t) = R C_sys R^T + [[Re H, -Im H], [Im H, Re H]] and the
        mean is R m_sys + sqrt(2) (Re d, Im d), where d_a = rabi X_a0(offset) is
        the drive's affine term.  A t = 0 entry is system0 itself.
        """
        p = self.mixing
        k = p.shape[0]
        if system0.n_modes != k or len(temperatures) != k:
            raise ValueError("system state and temperatures must match the oscillators")
        times = np.asarray(times, dtype=float)
        moving = times != 0
        t = times[moving]
        poles = self.freqs - self.omega_l
        amplitudes = np.zeros((k, t.size, self.freqs.size + 2), dtype=complex)
        for sector, amp in zip(self.sectors, amplitudes):  # columns u_0, the u_j, the offset
            lam = sector.eigenvalues
            lt = np.outer(t, lam)
            re, im = sector.weight * np.cos(lt), -sector.weight * np.sin(lt)
            amp[:, 0] = re.sum(axis=1) + 1j * im.sum(axis=1)
            rows = sector.bath_rows(poles, np.concatenate([re, im]))
            amp[:, 1:-1].real, amp[:, 1:-1].imag = rows[:t.size], rows[t.size:]
            if self.rabi:  # -t (sin(x/2) s(x/2) + i s(x)) at x = lam t, s(x) = np.sinc(x/pi)
                s_half = np.sinc(lt / (2.0 * np.pi))
                amp[:, -1].real = -t * (sector.weight * np.sin(0.5 * lt) * s_half).sum(axis=1)
                amp[:, -1].imag = -t * (sector.weight * np.sinc(lt / np.pi)).sum(axis=1)
        # X of every column, taken on the real and imaginary parts alike
        x = np.einsum("abs,stj->abtj", p[:, None] * p, amplitudes.view(float)).view(complex)
        u, bath = x[..., 0].transpose(2, 0, 1), x[..., 1:-1]
        var = np.array([thermal_variance(self.freqs, temp) for temp in temperatures])
        h = np.einsum("bj,abtj,cbtj->tac", var, bath, bath.conj())
        r_sys, h = _real_form(u.real, u.imag), _real_form(h.real, h.imag)
        mean = np.repeat(system0.mean[None], times.size, axis=0)
        cov = np.repeat(system0.cov[None], times.size, axis=0)
        cov[moving] = r_sys @ system0.cov @ r_sys.transpose(0, 2, 1) + h
        mean[moving] = r_sys @ system0.mean
        if self.rabi:
            d = self.rabi * x[:, 0, :, -1].T
            mean[moving] += np.sqrt(2.0) * np.concatenate([d.real, d.imag], axis=1)
        return GaussianState(k, mean, cov)  # which symmetrizes each covariance


@dataclass(frozen=True)
class FullPropagator:
    """Full system + bath evolution of one oscillator, from one eigh of its W.

    W is the bordered (M+1)-square matrix with diagonal (omega, omega_j) and
    couplings g_j in its first row and column.  With W = Q diag(lam) Q^T,
    cos(Wt) = Q diag(cos lam t) Q^T and likewise sin(Wt).
    """

    lam: np.ndarray
    q: np.ndarray

    @classmethod
    def build(cls, omega: float, bath: BathCouplings) -> "FullPropagator":
        w = np.diag(np.concatenate([[omega], bath.frequencies]))
        w[0, 1:] = w[1:, 0] = bath.couplings
        return cls(*np.linalg.eigh(w))

    def states(self, times, state0: GaussianState) -> GaussianState:
        """The states (M(t) mean, M(t) C M(t)^T) at the 1-D ``times``, as one stack,
        of a full initial state that lists the system mode first."""
        q = self.q
        lt = self.lam * np.asarray(times, dtype=float)[:, None, None]
        prop = _real_form((q * np.cos(lt)) @ q.T, -((q * np.sin(lt)) @ q.T))
        cov = prop @ state0.cov @ prop.transpose(0, 2, 1)
        return GaussianState(state0.n_modes, prop @ state0.mean, cov)
