"""Ohmic bath model: spectral density, discretization, rates, shifts, correlations.

The continuous bath is J(omega) = alpha * omega * exp(-omega/omega_c).  A finite
simulation bath is a set of modes {omega_j, g_j} with g_j^2 = J(omega_j) * dw on
an equally spaced grid, so that sum_j g_j^2 delta(omega - omega_j) -> J(omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "OhmicSpectrum",
    "BathCouplings",
    "omega_range",
    "tail_mass",
    "discretize",
    "bose_occupation",
    "decay_rate",
    "lamb_shift",
    "corr_c0",
    "corr_ct",
    "trigamma",
    "fwhh",
]


@dataclass(frozen=True)
class OhmicSpectrum:
    """Ohmic spectral density alpha * omega * exp(-omega/omega_c)."""

    alpha: float
    omega_c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.omega_c <= 0:
            raise ValueError("alpha and omega_c must be positive")

    def j(self, omega):
        omega = np.asarray(omega, dtype=float)
        if np.any(omega < 0):
            raise ValueError("spectral density defined for omega >= 0")
        return self.alpha * omega * np.exp(-omega / self.omega_c)


@dataclass(frozen=True)
class BathCouplings:
    """Discretized bath: ascending frequencies omega_j and couplings g_j >= 0."""

    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        gs = np.asarray(self.couplings, dtype=float)
        if freqs.ndim != 1 or freqs.shape != gs.shape:
            raise ValueError("frequencies and couplings must be 1-d arrays of equal length")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("bath frequencies must be strictly increasing")
        if np.any(gs < 0):
            raise ValueError("couplings must be non-negative")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "couplings", gs)

    @property
    def size(self) -> int:
        return self.frequencies.size


def omega_range(spectrum: OhmicSpectrum, mode: str = "equal_tails", *,
                floor: float | None = None, omega_min: float | None = None):
    """Frequency window (omega_1, omega_max) covering the spectral density.

    ``equal_tails`` picks omega_max so that the neglected left tail
    (0, omega_1) and right tail (omega_max, inf) carry equal spectral weight;
    omega_1 defaults to omega_c / 1000.  ``floor`` sets omega_1 = floor and
    solves J(omega_max) = J(floor) on the decaying side omega_max > omega_c.
    """
    wc = spectrum.omega_c
    if mode == "equal_tails":
        w1 = wc * 1e-3 if omega_min is None else float(omega_min)
        if not 0 < w1 < wc:
            raise ValueError("omega_min must lie in (0, omega_c)")
        target = tail_mass(wc, w1)
        if not target > 0:
            raise ValueError(f"the spectral weight below omega_min = {w1!r} rounds to 0")
        fun = lambda w: (w + wc) * np.exp(-w / wc) - target
    elif mode == "floor":
        if floor is None or not 0 < floor < wc:
            raise ValueError("floor mode requires 0 < floor < omega_c")
        w1 = float(floor)
        jc = float(spectrum.j(w1))
        fun = lambda w: float(spectrum.j(w)) - jc
    else:
        raise ValueError(f"unknown range mode {mode!r}")

    lo, hi = wc, 2.0 * wc
    for _ in range(200):
        if fun(hi) < 0:
            break
        hi *= 1.5
    else:
        raise ArithmeticError(f"no sign change while bracketing omega_max in [{wc}, {hi}]")
    try:
        wmax = _brentq(fun, lo, hi, xtol=1e-14, rtol=1e-15)
    except (ValueError, RuntimeError) as exc:
        raise ArithmeticError(f"omega_max root-finding failed on bracket [{lo}, {hi}]") from exc
    return w1, float(wmax)


def tail_mass(omega_c: float, omega_min: float) -> float:
    """Spectral weight of (0, omega_min) divided by alpha*omega_c, as ``equal_tails`` takes it.

    It is omega_c - e^{-omega_min/omega_c} (omega_min + omega_c), and rounds to 0
    (or below) once omega_min/omega_c is below about 1e-8.
    """
    return omega_c - np.exp(-omega_min / omega_c) * (omega_min + omega_c)


def _brentq(f: Callable, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A statement-for-statement port of scipy's C ``brentq``
    (scipy/optimize/Zeros/brentq.c), so it returns the same float from the
    same evaluations; it spares every process the import of scipy.optimize.
    Raises ValueError on a NaN value or when f(xa) and f(xb) have the same
    sign, RuntimeError when ``maxiter`` steps do not converge.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.17g} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # where den is 0, C's step is infinite or NaN and fails the test below
            stry = num / den if den != 0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} iterations")


def discretize(spectrum: OhmicSpectrum, n_modes: int, rng: tuple[float, float]) -> BathCouplings:
    """Equally spaced bath modes on [omega_1, omega_max] with g_j^2 = J(omega_j) dw."""
    if n_modes < 2:
        raise ValueError("need at least 2 bath modes")
    w1, wmax = rng
    if not 0 < w1 < wmax:
        raise ValueError(f"invalid frequency range ({w1}, {wmax})")
    freqs = np.linspace(w1, wmax, n_modes)
    dw = (wmax - w1) / (n_modes - 1)
    gs = np.sqrt(spectrum.j(freqs) * dw)
    return BathCouplings(freqs, gs)


def bose_occupation(omega, temperature: float):
    """Bose-Einstein occupation 1/(exp(omega/T) - 1); zero at T = 0."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("bose_occupation requires omega > 0")
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0:
        out = np.zeros_like(omega)
        return float(out) if out.ndim == 0 else out
    # exp(-x)/(1 - exp(-x)) never overflows, unlike 1/expm1(x); at the limits
    # x -> inf (omega/T overflows) and 1 - exp(-x) == 0 it gives 0 and inf, silently
    with np.errstate(over="ignore", divide="ignore"):
        ex = np.exp(-omega / temperature)
        out = ex / (1.0 - ex)
    return float(out) if out.ndim == 0 else out


def decay_rate(spectrum: OhmicSpectrum, nu: float) -> float:
    """Golden-rule decay rate gamma(nu) = pi * J(nu)."""
    if nu <= 0:
        raise ValueError("decay_rate requires nu > 0")
    return float(np.pi * spectrum.j(nu))


def lamb_shift(spectrum: OhmicSpectrum, nu: float) -> float:
    """Frequency shift Delta(nu) = alpha*nu*exp(-nu/omega_c)*Ei(nu/omega_c) - alpha*omega_c.

    Closed form of the principal-value integral of J(omega)/(nu - omega); the
    temperature never enters.  Finite for every nu > 0: the exponential and Ei
    enter only through their product, ``_ei``.
    """
    if nu <= 0:
        raise ValueError("lamb_shift requires nu > 0")
    return float(spectrum.alpha * nu * _ei(nu / spectrum.omega_c)
                 - spectrum.alpha * spectrum.omega_c)


def _ei(x: float) -> float:
    """The scaled exponential integral e^{-x} Ei(x) for x > 0, finite for every x.

    Up to x = 40 the positive series Ei(x) = gamma + ln x + sum_k x^k/(k k!);
    beyond, the asymptotic series e^{-x} Ei(x) ~ sum_k k!/x^(k+1), cut before
    its terms grow, whose smallest term there is below 1e-16 of the sum.  It
    spares every process the import of scipy.special (for ``expi``), and unlike
    e^{-x} * expi(x) it does not overflow past x = 709.
    """
    x = float(x)
    if x <= 40.0:
        power = total = x  # power = x^k / k!
        k = 1
        while power > 1e-17 * k * total:
            k += 1
            power *= x / k
            total += power / k
        return math.exp(-x) * (np.euler_gamma + math.log(x) + total)
    term = total = 1.0 / x
    k = 1
    while k < x and term > 1e-17 * total:
        term *= k / x
        total += term
        k += 1
    return total


def corr_c0(spectrum: OhmicSpectrum, s):
    """Zero-temperature bath correlation C0(s) = alpha*omega_c^2/(1 + i*s*omega_c)^2.

    Taken as (alpha omega_c)(omega_c u^2) with u = 1/(1 + i s omega_c): omega_c^2
    and (1 + i s omega_c)^2 overflow long before the kernel, and |u| <= 1.  Where
    s omega_c overflows, u is its limit 0.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):
        u = 1.0 / (1j * s * spectrum.omega_c + 1.0)
    out = spectrum.alpha * spectrum.omega_c * (spectrum.omega_c * u**2)
    return complex(out) if out.ndim == 0 else out


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def trigamma(q):
    """Trigamma psi'(q) = zeta(2, q) for complex q with Re q > 0.

    Recurrence psi'(q) = psi'(q+1) + 1/q^2 until Re q >= 10, then the
    asymptotic Bernoulli series; relative accuracy ~1e-15 on that domain.
    """
    scalar = np.ndim(q) == 0
    q = np.atleast_1d(np.asarray(q, dtype=complex)).copy()
    if np.any(q.real <= 0):
        raise ValueError("trigamma implemented for Re q > 0 only")
    acc = np.zeros_like(q)
    shifts = np.maximum(0, np.ceil(10.0 - q.real)).astype(int)
    for j in range(int(shifts.max(initial=0))):
        mask = j < shifts
        acc[mask] += (1.0 / q[mask]) ** 2  # q^2 overflows at |q| > 1e154
        q[mask] += 1.0
    # in powers of r = 1/q, which underflow where powers of a large q would overflow
    r = 1.0 / q
    tail = r + 0.5 * r**2
    rpow = r**3
    for b in _BERNOULLI:
        tail += b * rpow
        rpow *= r**2
    out = acc + tail
    return complex(out[0]) if scalar else out


def corr_ct(spectrum: OhmicSpectrum, s, temperature: float):
    """Finite-temperature correlation C(s,T) = alpha*T^2*zeta(2, 1 + i*s*T + T/omega_c).

    Expanding the Bose factor in exp(-k*omega/T) and integrating term by term
    gives the Hurwitz zeta with argument 1 + T/omega_c + i*s*T; this carries
    Im C < 0 for s > 0, consistent with the e^{-i omega s} transform of J
    (and with corr_c0), and is checked against direct quadrature in the tests.
    """
    if temperature <= 0:
        raise ValueError("corr_ct requires T > 0")
    s = np.asarray(s, dtype=float)
    q = 1.0 + 1j * s * temperature + temperature / spectrum.omega_c
    # (alpha T)(T psi'), not alpha T^2 psi': T^2 overflows long before the kernel,
    # which tends to alpha T omega_c / (1 + i s omega_c) as T -> inf
    out = spectrum.alpha * temperature * (temperature * trigamma(q))
    return complex(out) if np.ndim(s) == 0 else out


def fwhh(f: Callable, search_bound: float) -> float:
    """Full width at half height of |f|: twice the first s > 0 with |f(s)| = f(0)/2.

    ``f`` must accept an array of s as well as a scalar: it is evaluated once
    on a 4097-point grid over [0, search_bound] to bracket the first crossing,
    which Brent's method then refines with scalar calls.
    """
    f0 = abs(f(0.0))
    if f0 <= 0:
        raise ValueError("fwhh requires f(0) > 0")
    half = 0.5 * f0
    g = lambda s: abs(f(s)) - half
    grid = np.linspace(0.0, search_bound, 4097)
    vals = np.abs(f(grid)) - half
    below = np.nonzero(vals < 0)[0]
    if below.size == 0:
        raise ArithmeticError(f"|f| never crosses half height within [0, {search_bound}]")
    i = below[0]
    root = _brentq(g, grid[i - 1], grid[i], xtol=1e-14, rtol=1e-15)
    return 2.0 * float(root)
