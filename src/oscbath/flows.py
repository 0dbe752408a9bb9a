"""Markovian master equations as quadratic Lindblad generators and their moment flows.

Every implemented master equation is quadratic in ladder operators: a
one-particle Hamiltonian matrix h, emission/absorption rate matrices K and an
optional linear drive.  :class:`QuadraticLindblad` holds those coefficients,
checks them once, and derives the affine flow they induce on Gaussian moments,

    d' = A d + c,      C' = A C + C A^T + D.

Its solution from (d0, C0) is d(t) = Phi d0 + r and C(t) = Phi C0 Phi^T + Q,
with Phi = exp(A t) and the integrals r and Q of c and D carried along
(Van Loan 1978).  :func:`evolve_flow` takes all times of a trajectory in one
stacked call, each by a Taylor step and repeated doubling on 2n-square
matrices, and :func:`steady_state` is the flow's fixed point.

Each concrete equation only assembles its coefficients; :func:`markov_flows`
takes them for a config point.  The same generator is what the Fock-space
referee in :mod:`oscbath.fock` integrates, which validates every flow in the
test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bath import OhmicSpectrum, bose_occupation, decay_rate, lamb_shift
from .gaussian import GaussianState, _real_form

__all__ = [
    "QuadraticLindblad",
    "SecularValidityWarning",
    "markov_flows",
    "flow_single",
    "flow_two_small_beta",
    "flow_two_large_beta",
    "rabi_renormalizations",
    "flow_driven",
    "evolve_flow",
    "rounding_bound",
    "steady_state",
]

DRIVE_VARIANTS = ("plain", "off_resonant", "no_secular")
EQUATIONS = ("small_beta", "large_beta")


class SecularValidityWarning(UserWarning):
    """Emitted when a secular/weak-coupling premise of an equation is strained."""


@dataclass(frozen=True, eq=False)
class QuadraticLindblad:
    """Quadratic Lindblad generator and the affine flow it induces on 2n moments.

    The generator is -i[H, .] + sum_jk K^E_jk (a_j . a_k^dag - {a_k^dag a_j, .}/2)
    + sum_jk K^A_jk (a_j^dag . a_k - {a_k a_j^dag, .}/2), with
    H = sum h_jk a_j^dag a_k + sum_j (f_j a_j^dag + conj(f_j) a_j).

    The complex mean obeys d<a>/dt = Z <a> - i f with
    Z = -i h - conj(K^E)/2 + K^A/2, which gives the mean drift c and, in the
    real form R(Y) = [[Re Y, -Im Y], [Im Y, Re Y]] of the block (x..., p...)
    ordering, the drift A = R(Z) and the diffusion D = R(K^A + conj(K^E)).
    The real form of a Hermitian positive semidefinite matrix is symmetric
    positive semidefinite, so D needs no check of its own.
    """

    h: np.ndarray
    k_emit: np.ndarray
    k_abs: np.ndarray
    drive: np.ndarray | None = None
    drift: np.ndarray = field(init=False, repr=False)
    diffusion: np.ndarray = field(init=False, repr=False)
    mean_drift: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=complex))
        k_emit = np.atleast_2d(np.asarray(self.k_emit, dtype=complex))
        k_abs = np.atleast_2d(np.asarray(self.k_abs, dtype=complex))
        n = h.shape[0]
        for name, m in (("one-particle Hamiltonian matrix", h),
                        ("emission rate matrix", k_emit),
                        ("absorption rate matrix", k_abs)):
            if m.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} must be finite")
            if np.abs(m - m.T.conj()).max() > 1e-10 * max(np.abs(m).max(), 1.0):
                raise ValueError(f"{name} must be Hermitian")
        for name, m in (("emission rate matrix", k_emit),
                        ("absorption rate matrix", k_abs)):
            if np.linalg.eigvalsh(m).min() < -1e-12 * max(np.abs(m).max(), 1.0):
                raise ValueError(f"{name} must be positive semidefinite")
        drive = self.drive
        if drive is not None:
            drive = np.atleast_1d(np.asarray(drive, dtype=complex))
            if drive.shape != (n,):
                raise ValueError(f"drive must have {n} entries")
            if not np.isfinite(drive).all():
                raise ValueError("drive must be finite")

        z = -1j * h - 0.5 * k_emit.conj() + 0.5 * k_abs
        y = k_abs + k_emit.conj()
        y = 0.5 * (y + y.T.conj())  # Hermitian to the bit, so R(y) is symmetric to the bit
        a, d = _real_form(z.real, z.imag), _real_form(y.real, y.imag)
        if drive is None:
            c = np.zeros(2 * n)
        else:
            c = np.sqrt(2.0) * np.concatenate([drive.imag, -drive.real])
        for name, value in (("h", h), ("k_emit", k_emit), ("k_abs", k_abs),
                            ("drive", drive), ("drift", a), ("diffusion", d),
                            ("mean_drift", c)):
            object.__setattr__(self, name, value)

    @property
    def n_modes(self) -> int:
        return self.h.shape[0]


def _rate(spectrum: OhmicSpectrum, nu: float) -> float:
    """The decay rate gamma(nu) = pi J(nu); ValueError where it underflows to 0 or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = decay_rate(spectrum, nu)
    if not math.isfinite(gamma):
        raise ValueError(f"the Markov decay rate pi*J(nu) at nu = {nu!r} is not finite "
                         f"(alpha = {spectrum.alpha!r}, nu/omega_c = {nu / spectrum.omega_c!r})")
    if not gamma > 0:
        raise ValueError(f"the Markov decay rate pi*J(nu) underflows to 0 at nu = {nu!r} "
                         f"(nu/omega_c = {nu / spectrum.omega_c!r}, alpha = {spectrum.alpha!r})")
    return gamma


def _occupation(nu: float, temperature: float) -> float:
    """The Bose occupation nbar(nu, T); ValueError where it overflows."""
    nbar = bose_occupation(nu, temperature)
    if not math.isfinite(nbar):
        raise ValueError(f"the Bose occupation at nu = {nu!r}, T = {temperature!r} overflows: "
                         "1 - exp(-nu/T) rounds to 0")
    return nbar


def _locally_damped(h, gammas, nbars, drive=None) -> QuadraticLindblad:
    """Generator of Hamiltonian h with each mode j damped by a bath of its own:
    K^E = diag 2 gamma_j (nbar_j + 1), K^A = diag 2 gamma_j nbar_j."""
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma must be positive")
    if any(n < 0 for n in nbars):
        raise ValueError("nbar must be >= 0")
    return QuadraticLindblad(h, np.diag([2.0 * g * (n + 1.0) for g, n in zip(gammas, nbars)]),
                             np.diag([2.0 * g * n for g, n in zip(gammas, nbars)]), drive)


def flow_single(omega_bar: float, gamma: float, nbar: float) -> QuadraticLindblad:
    """Damped oscillator flow: A = [[-g, w],[-w, -g]], D = 2g(2nbar+1) I."""
    return _locally_damped([[omega_bar]], [gamma], [nbar])


def flow_two_small_beta(omega_bars, beta: float, gammas, nbars) -> QuadraticLindblad:
    """Two oscillators with local damping and bare exchange coupling beta."""
    w1, w2 = omega_bars
    return _locally_damped([[w1, beta], [beta, w2]], gammas, nbars)


def flow_two_large_beta(spectra, temperatures, omega: float,
                        beta: float) -> QuadraticLindblad:
    """Strong-coupling two-oscillator generator with cross-mode dissipation.

    Rates, occupations and shifts are evaluated per bath at the normal-mode
    frequencies Omega_pm = Omega +/- beta and give K^(E), K^(A) and
    h = [[Omega_bar, beta_bar], [beta_bar, Omega_bar]]; requires Omega > beta
    so that both normal modes are stable.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if omega <= beta:
        raise ValueError(
            f"Omega={omega} must exceed beta={beta}: the lower normal mode "
            "Omega - beta would be unstable")
    spec1, spec2 = spectra
    t1, t2 = temperatures
    max_alpha = max(spec1.alpha, spec2.alpha)
    if beta > 0 and beta < 10.0 * max_alpha:
        warnings.warn(
            f"beta={beta} is not large against the coupling alpha={max_alpha}; "
            "the secular approximation behind the strong-coupling equation is "
            "strained", SecularValidityWarning)

    def rates(nu):
        emit = absorb = shift = 0.0
        for spec, t in ((spec1, t1), (spec2, t2)):
            gam = _rate(spec, nu)
            occ = _occupation(nu, t)
            emit += gam * (occ + 1.0)
            absorb += gam * occ
            shift += lamb_shift(spec, nu)
        return emit, absorb, shift

    emit_p, abs_p, shift_p = rates(omega + beta)
    emit_m, abs_m, shift_m = rates(omega - beta)
    k_emit = 0.5 * np.array([[emit_p + emit_m, emit_p - emit_m],
                             [emit_p - emit_m, emit_p + emit_m]])
    k_abs = 0.5 * np.array([[abs_p + abs_m, abs_p - abs_m],
                            [abs_p - abs_m, abs_p + abs_m]])
    omega_bar = omega + (shift_p + shift_m) / 4.0
    beta_bar = beta + (shift_p - shift_m) / 4.0
    h = np.array([[omega_bar, beta_bar], [beta_bar, omega_bar]])
    return QuadraticLindblad(h, k_emit, k_abs)


def rabi_renormalizations(spectrum: OhmicSpectrum, omega: float, omega_l: float,
                          rabi: float, variant: str) -> complex:
    """Bath-renormalized Rabi frequency for the three driven-oscillator equations."""
    if variant not in DRIVE_VARIANTS:
        raise ValueError(f"variant must be one of {DRIVE_VARIANTS}")
    if variant == "plain":
        return complex(rabi)
    detuning = omega - omega_l
    if detuning == 0:
        raise ValueError(f"variant {variant!r} is undefined on exact resonance")
    if abs(detuning) < 10.0 * spectrum.alpha * max(1.0, rabi / abs(detuning)):
        warnings.warn(
            f"detuning {detuning} is not large against the perturbation scale; "
            "the renormalized-drive expansion is strained", SecularValidityWarning)
    corr = (lamb_shift(spectrum, omega) + 1j * _rate(spectrum, omega)) / detuning
    if variant == "no_secular":
        corr -= (lamb_shift(spectrum, omega_l) + 1j * _rate(spectrum, omega_l)) / detuning
    return rabi * (1.0 + corr)


def flow_driven(omega_bar: float, gamma: float, nbar: float, r_bar: complex,
                omega_l: float) -> QuadraticLindblad:
    """Driven damped oscillator in the frame rotating at omega_L.

    Same damping and diffusion as the undriven flow; the drift rotates at the
    detuning Omega_bar - omega_L and the coherent term enters the mean drift.
    """
    return _locally_damped([[omega_bar - omega_l]], [gamma], [nbar], [np.conj(r_bar)])


def markov_flows(point, labels) -> list[QuadraticLindblad]:
    """The master equations ``labels`` name at a config point, ValueError if one fails.

    ``labels`` are shift flags for ``single`` (True: the flow carries the
    bath-induced frequency shift), ``EQUATIONS`` entries for ``two_coupled``
    and ``DRIVE_VARIANTS`` for ``driven``.
    """
    spec = OhmicSpectrum(point.alpha, point.omega_c)
    omega, wl, (t1, t2) = point.omega, point.omega_l, point.bath_temperatures
    gamma = _rate(spec, omega)
    nbar = _occupation(omega, t1)
    omega_bar = omega + lamb_shift(spec, omega)
    if point.scenario == "single":
        return [flow_single(omega_bar if shifted else omega, gamma, nbar)
                for shifted in labels]
    if point.scenario == "two_coupled":
        return [flow_two_small_beta((omega_bar, omega_bar), point.beta, (gamma, gamma),
                                    (nbar, _occupation(omega, t2)))
                if eq == "small_beta" else
                flow_two_large_beta((spec, spec), (t1, t2), omega, point.beta)
                for eq in labels]
    return [flow_driven(omega_bar, gamma, nbar,
                        rabi_renormalizations(spec, omega, wl, point.rabi, v), wl)
            for v in labels]


def evolve_flow(flow: QuadraticLindblad, state: GaussianState, t) -> GaussianState:
    """Exact solution of the moment ODEs at times t of any shape:
    d(t) = Phi d(0) + r and C(t) = Phi C(0) Phi^T + Q (see :func:`_flow_maps`).

    All times are taken in one stacked call, for any t and any drift, damped or
    not.  The result has t's shape as leading axes, and its t = 0 entries are
    ``state``'s moments themselves.
    """
    if state.n_modes != flow.n_modes:
        raise ValueError("state and flow mode counts differ")
    t = np.asarray(t, dtype=float)
    phi, r, q = _flow_maps(flow, t.ravel())
    mean = phi @ state.mean + r
    cov = phi @ state.cov @ phi.mT + q
    at_zero = (t == 0).ravel()
    dim = 2 * flow.n_modes
    return GaussianState(
        flow.n_modes,
        np.where(at_zero[:, None], state.mean, mean).reshape(t.shape + (dim,)),
        np.where(at_zero[:, None, None], state.cov, cov).reshape(t.shape + (dim, dim)))


# The base step: _TERMS Taylor terms, whose remainder is below 2^-55 where h times
# 2 ||A||_1, a bound on the 1-norm of X -> A X + X A^T, is at most _THETA.  A larger
# _THETA takes more terms and fewer doublings; 2 was chosen against 40 digits.
_THETA = 2.0
_TERMS = 24


def _flow_maps(flow: QuadraticLindblad, t: np.ndarray):
    """Phi = exp(A t), r = int_0^t exp(A s) c ds and Q = int_0^t exp(A s) D exp(A^T s) ds
    at each time of the 1-D t (Van Loan, IEEE TAC 23, 395, 1978).

    Each time takes the fewest halvings s that bring h = 2^-s t to
    h 2 ||A||_1 <= theta.  At h, Phi and r are the top rows of
    exp([[A, c], [0, 0]] h) and Q = sum_k h^(k+1) L^k(D) / (k+1)! with
    L(X) = A X + X A^T, both by their Taylor series.  Then s doublings
    r <- r + Phi r, Q <- Q + Phi Q Phi^T and Phi <- Phi^2 carry them to t.
    Every product is of 2n-square matrices.  A damped flow's Phi decays to 0
    while Q settles at the steady covariance, so the error stops growing once
    t passes the relaxation time 1/gamma.  Before that each doubling compounds
    the rounding of Phi's decay, and the covariance's error obeys the law
    c eps (1 + ||A||_1 min(t, 1/gamma)) s, with s the larger of the start's
    and the steady state's covariance norm: 3e-14 at gamma = 1e-2, up to 3e-10
    at gamma = 1e-6.  :func:`rounding_bound` takes it with c = _ROUNDING_FACTOR.
    """
    a, c, d = flow.drift, flow.mean_drift, flow.diffusion
    dim = a.shape[0]
    with np.errstate(divide="ignore"):  # log2 of t = 0 or of a zero drift is -inf: s = 0
        s = np.ceil(np.log2(t) + np.log2(2.0 * np.abs(a).sum(axis=0).max() / _THETA))
    s = np.fmax(s, 0.0).astype(int)
    h = np.ldexp(t, -s)[:, None, None]
    ah = a * h
    # the top rows of ([[A, c], [0, 0]] h)^k / k!, and their sum from k = 0
    term = np.concatenate([ah, c[:, None] * h], axis=-1)
    top = term.copy()
    top[:, :, :dim] += np.eye(dim)
    part = d * h  # h^(k+1) L^k(D) / (k+1)!, each symmetric
    q = part.copy()
    for k in range(2, _TERMS + 1):
        term = ah @ term / k
        top += term
        x = ah @ part
        part = (x + x.mT) / k
        q += part
    phi, r = top[:, :, :dim], top[:, :, dim]
    for k in range(s.max(initial=0)):
        more = s > k
        p = phi[more]
        r[more] += (p @ r[more, :, None])[..., 0]
        q[more] += p @ q[more] @ p.mT
        phi[more] = p @ p
    return phi, r, q


# c of _flow_maps' law: against 50 digits, flow_single's covariance error from vacuum,
# thermal and squeezed starts reached 5.8 times rounding_bound at c = 1, over omega
# from 0.1 to 10, gamma/omega from 1e-9 to 0.1 and gamma t from 1e-3 to 1e3
_ROUNDING_FACTOR = 8.0


def rounding_bound(flow: QuadraticLindblad, t_max: float, start_scale: float) -> float:
    """A bound on the absolute error of ``evolve_flow``'s covariances at times up to
    t_max, from a start of covariance norm ``start_scale``: _flow_maps' law.

    gamma is the slowest decay rate, -max Re of A's eigenvalues (none if it is
    <= 0).  The steady covariance's norm is taken as ||D|| min(t_max, 1/gamma) / 2:
    ||C_inf|| = ||D|| / (2 gamma) for a normal drift, such as each of this module's
    equations has (2 nbar + 1 for one oscillator), and half the bound ||D|| t_max on
    ||Q(t_max)|| before the relaxation time.  _ROUNDING_FACTOR is measured with it.
    """
    gamma = -float(np.linalg.eigvals(flow.drift).real.max())
    relax = t_max if gamma * t_max <= 1.0 else 1.0 / gamma
    scale = max(start_scale, 0.5 * relax * float(np.linalg.norm(flow.diffusion, 2)))
    norm1 = float(np.abs(flow.drift).sum(axis=0).max())
    return _ROUNDING_FACTOR * float(np.finfo(float).eps) * (1.0 + norm1 * relax) * scale


def steady_state(flow: QuadraticLindblad) -> GaussianState:
    """Fixed point of the flow: A C + C A^T + D = 0 and A d + c = 0.

    Solved entry by entry in A's eigenbasis A = V diag(lam) V^-1, as C = V X V^T with
    X_ij = -(V^-1 D V^-T)_ij / (lam_i + lam_j): a weak damping gamma, which both sides
    of each entry carry, costs no digits (within 1e-14 down to gamma/omega = 1e-12).
    """
    a = flow.drift
    lam, v = np.linalg.eig(a)
    if lam.real.max() >= 0:
        raise ArithmeticError(
            f"drift matrix is not Hurwitz (max Re eigenvalue {lam.real.max():.3g}); "
            "no unique steady state")
    w = np.linalg.inv(v)
    x = -(w @ flow.diffusion @ w.T) / (lam[:, None] + lam)
    return GaussianState(flow.n_modes, -np.linalg.solve(a, flow.mean_drift),
                         (v @ x @ v.T).real)
