import warnings
from functools import partial
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from oscbath import bath
from oscbath.bath import (BathCouplings, OhmicSpectrum, bose_occupation, corr_c0,
                          corr_ct, decay_rate, discretize, fwhh, lamb_shift,
                          omega_range, trigamma)

SPEC = OhmicSpectrum(alpha=1.0, omega_c=3.0)


def pv_oracle(f, nu, upper):
    """Independent principal-value quadrature via the built-in Cauchy weight."""
    val, _ = quad(f, 0.0, upper, weight="cauchy", wvar=nu, limit=400)
    return -val  # f/(nu - w) = -f/(w - nu)


class TestSpectralDensity:
    def test_zero_at_origin(self):
        assert SPEC.j(0.0) == 0.0

    def test_maximum_at_cutoff(self):
        jc = SPEC.j(SPEC.omega_c)
        assert jc == pytest.approx(SPEC.alpha * SPEC.omega_c * np.exp(-1.0), rel=1e-15)
        for w in (0.5 * SPEC.omega_c, 0.9 * SPEC.omega_c, 1.1 * SPEC.omega_c, 2 * SPEC.omega_c):
            assert SPEC.j(w) < jc

    def test_total_weight(self):
        val, _ = quad(lambda w: SPEC.j(w), 0.0, 60 * SPEC.omega_c, limit=200)
        assert val == pytest.approx(SPEC.alpha * SPEC.omega_c**2, rel=1e-10)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            SPEC.j(-0.1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            OhmicSpectrum(-1.0, 3.0)
        with pytest.raises(ValueError):
            OhmicSpectrum(1.0, 0.0)


class TestOmegaRange:
    def test_floor_mode_reference_value(self):
        # omega_max solving w e^{-w/3} = 0.1 e^{-0.1/3}, bisected reference
        _, wmax = omega_range(SPEC, "floor", floor=0.1)
        assert wmax == pytest.approx(15.1646580571629865182446, rel=1e-12)

    def test_floor_mode_diverges_as_floor_vanishes(self):
        prev = 0.0
        for c in (0.2, 0.1, 0.05, 0.01, 0.001):
            _, wmax = omega_range(SPEC, "floor", floor=c)
            assert wmax > prev
            prev = wmax
        assert prev > 10 * SPEC.omega_c

    def test_equal_tails_balance(self):
        w1, wmax = omega_range(SPEC, "equal_tails")
        assert w1 == SPEC.omega_c / 1000
        left, _ = quad(lambda w: SPEC.j(w), 0.0, w1)
        right, _ = quad(lambda w: SPEC.j(w), wmax, wmax + 80 * SPEC.omega_c, limit=200)
        assert abs(left - right) <= 1e-10

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            omega_range(SPEC, "nope")


class TestDiscretize:
    def test_total_coupling_weight_converges(self):
        bath = discretize(SPEC, 2000, (1e-4, 20 * SPEC.omega_c))
        total = np.sum(bath.couplings**2)
        weight = SPEC.alpha * SPEC.omega_c**2  # the integral of J over (0, inf)
        assert abs(total - weight) / weight < 0.005

    def test_two_modes_sit_at_endpoints(self):
        bath = discretize(SPEC, 2, (0.5, 4.0))
        np.testing.assert_allclose(bath.frequencies, [0.5, 4.0])

    def test_positive_couplings(self):
        bath = discretize(SPEC, 50, (0.01, 12.0))
        assert np.all(bath.couplings > 0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            discretize(SPEC, 10, (2.0, 1.0))

    @pytest.mark.parametrize("omega_c", [1e-318, 5e-324])
    def test_vanishing_tail_mass_is_refused(self, omega_c):
        # below omega_c ~ 1e-318 the subnormal weight of (0, omega_c/1000) rounds to 0
        # (at 5e-324, omega_c/1000 itself does), and no omega_max carries it: refused
        # by name, not by a failed bracket, while omega_c = 1e-316 still has a window
        with pytest.raises(ValueError, match=f"rounds to 0 at omega_c = {omega_c!r}"):
            omega_range(OhmicSpectrum(1.0, omega_c), "equal_tails")
        omega_range(OhmicSpectrum(1.0, 1e-316), "equal_tails")

    def test_bath_couplings_validation(self):
        with pytest.raises(ValueError):
            BathCouplings(np.array([1.0, 1.0]), np.array([0.1, 0.1]))


class TestRatesAndOccupation:
    def test_bose_zero_temperature(self):
        assert bose_occupation(1.0, 0.0) == 0.0

    def test_bose_log2_point(self):
        assert bose_occupation(np.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_bose_reference_value(self):
        assert bose_occupation(1.0, 10.0) == pytest.approx(
            9.508331944775049624046077, rel=1e-14)

    def test_bose_limits_are_silent(self):
        # omega/T overflows at a subnormal T, and 1 - exp(-omega/T) rounds to 0 at T/omega = 1e20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bose_occupation(1.0, 5e-324) == 0.0
            assert bose_occupation(1.0, 1e20) == np.inf

    def test_bose_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)

    def test_decay_rate_at_cutoff(self):
        assert decay_rate(SPEC, SPEC.omega_c) == pytest.approx(
            np.pi * SPEC.alpha * SPEC.omega_c * np.exp(-1.0), rel=1e-15)

    def test_decay_rate_linear_in_alpha(self):
        a = decay_rate(OhmicSpectrum(0.004, 3.0), 1.0)
        b = decay_rate(OhmicSpectrum(0.008, 3.0), 1.0)
        assert b == pytest.approx(2 * a, rel=1e-14)

    def test_decay_rate_is_pi_times_j(self):
        rng = np.random.default_rng(1)
        for nu in rng.uniform(0.1, 10.0, 5):
            assert decay_rate(SPEC, nu) / SPEC.j(nu) == pytest.approx(np.pi, rel=1e-14)


class TestShifts:
    def test_small_frequency_limit(self):
        # Delta -> -alpha*omega_c as nu -> 0+
        assert lamb_shift(SPEC, 1e-8) == pytest.approx(-SPEC.alpha * SPEC.omega_c, rel=1e-6)

    def test_against_pv_quadrature(self):
        for nu in (0.5 * SPEC.omega_c, SPEC.omega_c, 2.0 * SPEC.omega_c):
            ref = pv_oracle(lambda w: SPEC.j(w), nu, nu + 60 * SPEC.omega_c)
            assert lamb_shift(SPEC, nu) == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("x", [720.0, 1e4])
    def test_finite_far_in_the_tail(self, x):
        # Ei(720) > 1e308, but the shift alpha*omega_c*(x e^{-x} Ei(x) - 1) -> alpha*omega_c/x
        with mp.workdps(50):
            xm = mp.mpf(x)
            ref = float(SPEC.alpha * SPEC.omega_c * (xm * mp.exp(-xm) * mp.ei(xm) - 1))
        shift = lamb_shift(SPEC, x * SPEC.omega_c)
        assert np.isfinite(shift)
        assert abs(shift - ref) <= 1e-14 * SPEC.alpha * SPEC.omega_c


EI_FIXTURES = (
    # (x, Ei(x)) at 30 significant digits
    (0.05, -2.3678845985793744659022387555),
    (0.2, -0.821760587902400247851837647395),
    (1 / 3, -0.158092108971155787785629695407),
    (0.5, 0.454219904863173579920523812663),
    (1.0, 1.89511781635593675546652093433),
    (2.0, 4.95423435600189016337950513023),
    (3.3333333, 12.4381168885031899952975178165),
    (7.5, 289.388398200144607915358569722),
    (20.0, 25615652.6640565888204811208041),
    (55.0, 14254686649887505153945.4605762),
)

TRIGAMMA_FIXTURES = (
    # (Re q, Im q, Re psi', Im psi') at 30 significant digits
    (1.0, 0.0, 1.64493406684822643647241516665, 0.0),
    (0.5, 0.0, 4.93480220054467930941724549994, 0.0),
    (2.75, 0.0, 0.437571257648930761436211633252, 0.0),
    (1.1, -3.0, 0.0658284068237916709296764951921, 0.32298841590567015099027230978),
    (0.9, 12.5, 0.00256147858143885000455918768191, -0.0799606635793173323786357088838),
    (4.0, -0.25, 0.282427646496782986781373689754, 0.0199127388380434954051291309382),
    (4 / 3, -40.0, 0.00052068866744945893700095593501, 0.0249904529923021366238176742088),
    (10.0, 10.0, 0.0499583751477562221802854346136, -0.0525417081834941730331185534154),
    (0.2, 0.7, -0.849515706530718784163329288266, -1.643707290088633492837826627),
    (1.05, -0.001, 1.53235464795776888458527979047, 0.00210815475629271277085862700919),
)


class TestSpecialFunctionKernels:
    def test_expi_against_reference(self):
        for x, ref in EI_FIXTURES:
            assert np.exp(x) * bath._ei(x) == pytest.approx(ref, rel=1e-12)

    def test_trigamma_against_reference(self):
        for re, im, ref_re, ref_im in TRIGAMMA_FIXTURES:
            val = trigamma(complex(re, im))
            ref = complex(ref_re, ref_im)
            assert abs(val - ref) / abs(ref) < 1e-12

    def test_trigamma_riemann_value(self):
        assert trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-14)

    def test_trigamma_domain(self):
        with pytest.raises(ValueError):
            trigamma(-1.0 + 0.5j)


def _mp_trigamma(q) -> mp.mpc:
    """psi'(q) at 40 digits, q taken exactly as given."""
    with mp.workdps(40):
        return mp.psi(1, mp.mpc(q.real, q.imag))


def _signed_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """0 and n log-spaced magnitudes in [lo, hi] of each sign."""
    mags = np.geomspace(lo, hi, n)
    return np.concatenate([-mags[::-1], [0.0], mags])


# the one positive root of Ei, where e^{-x} Ei(x) is a difference of O(1) terms
EI_ROOT = 0.37250741078136663


class TestHighPrecisionReferee:
    """trigamma, lamb_shift and corr_ct against 40-digit mpmath values, Ei against 50."""

    def test_scaled_ei(self):
        # both series and their handover at x = 40; near the root the error is absolute
        xs = [*np.geomspace(1e-6, 1e4, 241), EI_ROOT, 40.0, np.nextafter(40.0, 41.0)]
        for x in xs:
            with mp.workdps(50):
                ref = float(mp.exp(-mp.mpf(x)) * mp.ei(mp.mpf(x)))
            err = abs(bath._ei(x) - ref)
            if abs(x - EI_ROOT) < 0.1:
                assert err <= 1e-15, x
            else:
                assert err <= 1e-14 * abs(ref), x

    @pytest.mark.parametrize("re_q", np.linspace(9.0, 11.0, 21))
    def test_trigamma_across_series_handover(self, re_q):
        # Re q = 10 is where the recurrence hands over to the asymptotic series
        for im_q in _signed_grid(1e-3, 50.0, 6):
            q = complex(re_q, im_q)
            ref = complex(_mp_trigamma(q))
            assert abs(trigamma(q) - ref) <= 1e-14 * abs(ref), q

    @pytest.mark.parametrize("re_q", np.geomspace(1e-3, 1e3, 13))
    def test_trigamma_broad_grid(self, re_q):
        qs = re_q + 1j * _signed_grid(1e-3, 1e3, 7)
        got = trigamma(qs)
        for q, value in zip(qs, got):
            ref = complex(_mp_trigamma(q))
            assert abs(value - ref) <= 1e-14 * abs(ref), q

    @pytest.mark.parametrize("alpha, omega_c", [(0.002, 3.0), (1.0, 3.0), (0.01, 0.5),
                                                (0.05, 20.0)])
    def test_lamb_shift(self, alpha, omega_c):
        spec = OhmicSpectrum(alpha, omega_c)
        for nu in omega_c * np.geomspace(1e-4, 40.0, 30):
            with mp.workdps(40):
                x = mp.mpf(nu) / omega_c
                ref = alpha * mp.mpf(nu) * mp.exp(-x) * mp.ei(x) - mp.mpf(alpha) * omega_c
            assert abs(lamb_shift(spec, nu) - float(ref)) <= 1e-14 * alpha * omega_c, nu

    @pytest.mark.parametrize("temperature", [0.01, 0.1, 1.0, 3.0, 30.0])
    def test_corr_ct(self, temperature):
        for alpha, omega_c in ((0.002, 3.0), (1.0, 0.5)):
            spec = OhmicSpectrum(alpha, omega_c)
            for s in _signed_grid(1e-3, 100.0, 6):
                with mp.workdps(40):
                    t = mp.mpf(temperature)
                    ref = complex(alpha * t**2 * mp.psi(
                        1, mp.mpc(1 + t / omega_c, mp.mpf(s) * t)))
                got = corr_ct(spec, s, temperature)
                assert abs(got - ref) <= 1e-14 * abs(ref), (alpha, omega_c, s)


class TestCorrelations:
    def test_c0_at_zero(self):
        assert corr_c0(SPEC, 0.0) == pytest.approx(SPEC.alpha * SPEC.omega_c**2)

    def test_c0_conjugate_symmetry(self):
        for s in (0.3, 1.7, 12.0):
            assert corr_c0(SPEC, -s) == pytest.approx(np.conj(corr_c0(SPEC, s)), rel=1e-15)

    def test_c0_against_quadrature(self):
        upper = 60 * SPEC.omega_c
        for s in (0.1, 1.0, 10.0):
            re, _ = quad(lambda w: SPEC.j(w), 0, upper, weight="cos", wvar=s, limit=400)
            im, _ = quad(lambda w: SPEC.j(w), 0, upper, weight="sin", wvar=s, limit=400)
            assert corr_c0(SPEC, s) == pytest.approx(re - 1j * im, abs=1e-8)

    @pytest.mark.parametrize("s", [0.5, [0.5], [0.5, 1.0], [[0.5]]],
                             ids=["scalar", "one", "two", "one_by_one"])
    def test_kernels_keep_the_shape_of_s(self, s):
        # a one-element array is an array, not a scalar
        for kernel in (partial(corr_c0, SPEC), partial(corr_ct, SPEC, temperature=1.0)):
            out = kernel(np.array(s) if isinstance(s, list) else s)
            assert np.shape(out) == np.shape(s)
            assert isinstance(out, complex) == (np.ndim(s) == 0)

    def test_ct_vanishes_at_low_temperature(self):
        assert abs(corr_ct(SPEC, 1.0, 1e-3)) < 1e-5 * abs(corr_ct(SPEC, 1.0, 1.0))

    def test_ct_against_quadrature(self):
        for s, temp in ((0.0, 1.0), (1.0, 1.0), (1.0, 0.1)):
            f = lambda w: (SPEC.j(w) * bose_occupation(w, temp)
                           if w > 0 else SPEC.alpha * temp)
            upper = 60 * SPEC.omega_c
            if s == 0.0:
                re, _ = quad(f, 0, upper, limit=400)
                im = 0.0
            else:
                re, _ = quad(f, 0, upper, weight="cos", wvar=s, limit=400)
                im, _ = quad(f, 0, upper, weight="sin", wvar=s, limit=400)
            assert corr_ct(SPEC, s, temp) == pytest.approx(re - 1j * im, abs=1e-7)

    def test_ct_conjugate_symmetry(self):
        for s, temp in ((0.4, 1.0), (2.0, 0.3)):
            assert corr_ct(SPEC, -s, temp) == pytest.approx(
                np.conj(corr_ct(SPEC, s, temp)), rel=1e-13)

    def test_discretized_sum_converges_to_kernels(self):
        # sum g_j^2 e^{-i w_j s} (nbar_j + 1) -> C0(s) + C(s, T); errors are
        # measured against the kernel height (the endpoint nodes of the
        # Riemann grid carry an O(dw) offset that dominates the decayed tail)
        temp = 1.0
        height = abs(corr_c0(SPEC, 0.0) + corr_ct(SPEC, 0.0, temp))
        for n_modes, tol in ((250, 0.04), (1000, 0.01)):
            bath = discretize(SPEC, n_modes, (1e-4, 25 * SPEC.omega_c))
            occ = bose_occupation(bath.frequencies, temp)
            worst = 0.0
            for s in np.linspace(0.0, 5.0, 21):
                disc = np.sum(bath.couplings**2
                              * np.exp(-1j * bath.frequencies * s) * (occ + 1))
                cont = corr_c0(SPEC, s) + corr_ct(SPEC, s, temp)
                worst = max(worst, abs(disc - cont) / height)
            assert worst < tol


class TestFwhh:
    def test_gaussian(self):
        assert fwhh(lambda s: np.exp(-s * s), 5.0) == pytest.approx(
            2.0 * np.sqrt(np.log(2.0)), rel=1e-12)

    def test_c0_closed_form(self):
        width = fwhh(lambda s: abs(corr_c0(SPEC, s)), 10.0)
        assert width == pytest.approx(2.0 / SPEC.omega_c, abs=1e-10)

    def test_ct_width_decreases_then_flattens(self):
        temps = (1.0, 2.0, 5.0, 10.0, 20.0)
        widths = [fwhh(lambda s: abs(corr_ct(SPEC, s, t)), 50.0) for t in temps]
        for w1, w2 in zip(widths, widths[1:]):
            assert w2 <= w1 + 1e-9
        # plateau: changes little at large T
        assert widths[-1] > 0.5 * widths[-2]

    def test_no_crossing_raises(self):
        with pytest.raises(ArithmeticError):
            fwhh(lambda s: 1.0 + 0.0 * s, 3.0)


class TestBrentPort:
    """bath's Brent root finder against scipy.optimize.brentq, of which it is a port.

    Every root must be the same float, reached through the same evaluation points.
    """

    @staticmethod
    def _roots(call) -> list:
        """Run ``call`` with each bath root search done by the port and by scipy."""
        port, found = bath._brentq, []

        def both(f, a, b, **tols):
            xs_port, xs_scipy = [], []
            mine = port(lambda x: xs_port.append(x) or f(x), a, b, **tols)
            ref = brentq(lambda x: xs_scipy.append(x) or f(x), a, b, **tols)
            found.append((mine, ref, xs_port, xs_scipy))
            return mine

        with mock.patch.object(bath, "_brentq", both):
            call()
        assert found
        return found

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-4.0, 1.0), st.floats(-1.0, 1.5), st.booleans(),
           st.one_of(st.none(), st.floats(-5.0, -0.01)))
    def test_omega_range(self, log_alpha, log_wc, floor_mode, log_frac):
        spec = OhmicSpectrum(10.0**log_alpha, 10.0**log_wc)
        if floor_mode:
            lower = spec.omega_c * (1e-3 if log_frac is None else 10.0**log_frac)
            call = lambda: omega_range(spec, "floor", floor=lower)
        else:  # the window from omega_c / 1000, which log_frac does not move
            call = lambda: omega_range(spec, "equal_tails")
        for mine, ref, xs_port, xs_scipy in self._roots(call):
            assert mine == ref
            assert xs_port == xs_scipy

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3.0, 0.0), st.floats(-0.5, 1.0), st.floats(-2.0, 1.5))
    def test_fwhh(self, log_alpha, log_wc, log_temp):
        spec, temp = OhmicSpectrum(10.0**log_alpha, 10.0**log_wc), 10.0**log_temp
        bound = max(20.0 / spec.omega_c, 10.0 / temp)
        for kernel in (lambda s: abs(corr_c0(spec, s)), lambda s: abs(corr_ct(spec, s, temp))):
            for mine, ref, xs_port, xs_scipy in self._roots(lambda: fwhh(kernel, bound)):
                assert mine == ref
                assert xs_port == xs_scipy

    @pytest.mark.parametrize("search", [
        lambda: bath._brentq(lambda x: 1e-160 * (x - 0.3) ** 3, 0.0, 1.0,
                             xtol=1e-14, rtol=1e-15),
        lambda: fwhh(lambda s: abs(corr_ct(OhmicSpectrum(0.01, 3.0), s, 1e-100)),
                     10.0 / 1e-100),
    ], ids=["cubic", "corr_ct_half_height"])
    def test_tiny_function_values(self, search):
        # the interpolation denominator underflows to 0 here; scipy's C code divides
        # anyway, and its infinite step fails the step test, so it bisects
        for mine, ref, xs_port, xs_scipy in self._roots(search):
            assert mine == ref
            assert xs_port == xs_scipy

    def test_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            bath._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14, rtol=1e-15)
        with pytest.raises(ValueError, match="NaN"):
            bath._brentq(lambda x: np.nan if x > 0.5 else x, -1.0, 1.0,
                         xtol=1e-14, rtol=1e-15)
        slow = lambda x: np.tanh(x - 0.3)
        with pytest.raises(RuntimeError):
            brentq(slow, -1.0, 2.0, xtol=1e-14, rtol=1e-15, maxiter=2)
        with pytest.raises(RuntimeError, match="converge"):
            bath._brentq(slow, -1.0, 2.0, xtol=1e-14, rtol=1e-15, maxiter=2)
