"""Markovian master equations as quadratic Lindblad generators and their moment flows.

Every implemented master equation is quadratic in ladder operators: a
one-particle Hamiltonian matrix h, emission/absorption rate matrices K and an
optional linear drive.  :class:`QuadraticLindblad` holds those coefficients,
checks them once, and derives the affine flow they induce on Gaussian moments,

    d' = A d + c,      C' = A C + C A^T + D.

Stacking the mean, the row-major vec(C) and a constant 1 into one vector s
turns that flow into the linear ODE s' = G s with

    G = [[A, 0, c], [0, A (+) A, vec D], [0, 0, 0]],

where A (+) A = A kron 1 + 1 kron A is the Kronecker sum.  G is built once
per generator; :func:`evolve_flow` takes one exponential of G t per time,
all times of a trajectory in one stacked call, and :func:`steady_state` is
G's fixed point.

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
from .gaussian import GaussianState

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
    Z = -i h - conj(K^E)/2 + K^A/2, which gives the drift A and mean drift c;
    the diffusion matrix follows from the covariance rate at the vacuum,
    D = dC/dt|_vac - (A + A^T).  ``moment_generator`` is G of the module
    docstring, the (2n + 4n^2 + 1)-square generator of the stacked moments.
    """

    h: np.ndarray
    k_emit: np.ndarray
    k_abs: np.ndarray
    drive: np.ndarray | None = None
    drift: np.ndarray = field(init=False, repr=False)
    diffusion: np.ndarray = field(init=False, repr=False)
    mean_drift: np.ndarray = field(init=False, repr=False)
    moment_generator: np.ndarray = field(init=False, repr=False)

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

        # 2x2 block matrices by slices: np.block and np.kron cost more than the
        # arithmetic on blocks this small, and slices copy the same floats
        x, p = slice(0, n), slice(n, 2 * n)
        z = -1j * h - 0.5 * k_emit.conj() + 0.5 * k_abs
        a = np.empty((2 * n, 2 * n))
        a[x, x] = a[p, p] = z.real
        a[x, p], a[p, x] = -z.imag, z.imag

        # at the vacuum N = M = 0 and dN/dt = conj(K^A), dM/dt = 0
        ndot = k_abs.conj()
        d = np.empty((2 * n, 2 * n))
        d[x, x] = d[p, p] = 2 * ndot.real
        d[x, p], d[p, x] = 2 * ndot.imag, 2 * ndot.imag.T
        d -= a + a.T
        scale = max(np.abs(d).max(), 1.0)
        if np.abs(d - d.T).max() > 1e-12 * scale:
            raise ValueError("diffusion matrix must be symmetric")
        d = 0.5 * (d + d.T)
        if np.linalg.eigvalsh(d).min() < -1e-12 * scale:
            raise ValueError("diffusion matrix must be positive semidefinite")
        if drive is None:
            c = np.zeros(2 * n)
        else:
            c = np.sqrt(2.0) * np.concatenate([drive.imag, -drive.real])
        dim = 2 * n
        eye = np.eye(dim)
        gen = np.zeros((dim + dim * dim + 1,) * 2)
        gen[:dim, :dim] = a
        gen[:dim, -1] = c
        # the Kronecker sum kron(a, eye) + kron(eye, a), entry (i dim + k, j dim + l) =
        # a_ij eye_kl + eye_ij a_kl, as np.kron forms its products
        gen[dim:-1, dim:-1] = (a[:, None, :, None] * eye[None, :, None, :]
                               + eye[:, None, :, None] * a[None, :, None, :]).reshape(dim * dim, -1)
        gen[dim:-1, -1] = d.ravel()
        for name, value in (("h", h), ("k_emit", k_emit), ("k_abs", k_abs),
                            ("drive", drive), ("drift", a), ("diffusion", d),
                            ("mean_drift", c), ("moment_generator", gen)):
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
    """Exact solution of the moment ODEs at times t of any shape: s(t) = exp(G t) s(0).

    One exponential of ``flow.moment_generator`` per time, all in one stacked
    call, carries the mean and the covariance of the single ``state`` together,
    for any t and any drift, damped or not.  The result has t's shape as
    leading axes, and its t = 0 entries are ``state``'s moments themselves.
    """
    if state.n_modes != flow.n_modes:
        raise ValueError("state and flow mode counts differ")
    t = np.asarray(t, dtype=float)
    gen = flow.moment_generator * t[..., None, None]
    # _expm takes its squarings from the 1-norm of G t.  An exact power-of-two
    # weight w on the constant coordinate keeps the (c, vec D) column from
    # setting that norm, which would cost a weakly damped flow 1e-11 by t = 1000.
    const = np.abs(gen[..., :-1, -1]).sum(axis=-1)
    dyn = np.abs(gen[..., :-1, :-1]).sum(axis=-2).max(axis=-1)
    ratio = np.divide(dyn, const, out=np.ones_like(dyn), where=(const > dyn) & (dyn > 0))
    w = 2.0 ** np.floor(np.log2(ratio))
    gen[..., :-1, -1] *= w[..., None]
    moments = np.concatenate([state.mean, state.cov.ravel()])
    s0 = np.concatenate([np.broadcast_to(moments, t.shape + moments.shape),
                         (1.0 / w)[..., None]], axis=-1)
    s = (_expm(gen)[..., :-1, :] @ s0[..., None])[..., 0]
    return _unstack(flow.n_modes, np.where((t == 0)[..., None], moments, s))


# Higham (2005), Table 2.3: the largest 1-norm theta_13 at which the [13/13]
# Pade approximant of exp is accurate to double precision, and its coefficients
_THETA_13 = 5.371920351148152
_B_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each real square matrix of a stack, by Pade scaling and squaring (Higham 2005).

    Order 13 on a / 2^s, squared s times, with s the fewest halvings that
    bring the 1-norm to theta_13 (none at or below theta_13, where the ratio
    may underflow to 0), each matrix its own.  The exact scaling by 2^-s comes
    before any product, so no power of the unscaled matrix can overflow.
    Replaces scipy.linalg.expm, whose import (with scipy.special's) is most of
    the command line's start-up.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.fmax(norm / _THETA_13, 1.0))).astype(int)
    eye = np.eye(a.shape[-1])
    a = np.ldexp(a, -s[..., None, None])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    b = _B_13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


def steady_state(flow: QuadraticLindblad) -> GaussianState:
    """Fixed point of the flow, G s = 0: A C + C A^T + D = 0 and A d + c = 0."""
    eig = np.linalg.eigvals(flow.drift)
    if eig.real.max() >= 0:
        raise ArithmeticError(
            f"drift matrix is not Hurwitz (max Re eigenvalue {eig.real.max():.3g}); "
            "no unique steady state")
    gen = flow.moment_generator
    return _unstack(flow.n_modes, -np.linalg.solve(gen[:-1, :-1], gen[:-1, -1]))


def _unstack(n_modes: int, s: np.ndarray) -> GaussianState:
    """The states whose stacked moments (mean, row-major vec C) lie along s's last axis."""
    dim = 2 * n_modes
    return GaussianState(n_modes, s[..., :dim], s[..., dim:].reshape(s.shape[:-1] + (dim, dim)))
