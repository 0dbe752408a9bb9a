import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (build_single, build_two, dense_states, propagator,
                      random_physical_state, recurrence_time_estimate, sector_cache)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oscbath
from oscbath import exact
from oscbath.bath import BathCouplings, OhmicSpectrum, discretize, omega_range
from oscbath.exact import FullPropagator, ReducedPropagator, RwaValidityWarning
from oscbath.gaussian import (GaussianState, make_coherent, make_squeezed_vacuum, make_thermal,
                              make_vacuum, symplectic_form, tensor_product)

SPEC = OhmicSpectrum(0.01, 3.0)


def small_bath(m=8, lo=0.2, hi=6.0):
    return discretize(SPEC, m, (lo, hi))


def random_bath(rng, m=30, scale=0.2):
    return BathCouplings(np.sort(rng.uniform(0.1, 8.0, m)), rng.uniform(0.0, scale, m))


def arrowhead_cache(omega, bath, **kwargs):
    """(lam, Q) of W from the sector spectra that the reduced states use."""
    return sector_cache(ReducedPropagator.build(omega, bath, **kwargs))


def dense_driven(coupling, rabi, omega_l, state0, t):
    """Full state under the drive, by eigh of W - omega_L: M(t) s0 plus the affine term.

    The mean gains sqrt(2)((cos(W0 t) - 1) w ; -sin(W0 t) w) with w = W0^{-1} b
    and b = rabi on the first system mode (mode 0); the drive cancels from the
    covariance.
    """
    n = coupling.shape[0]
    w0 = coupling - omega_l * np.eye(n)
    m = propagator(*np.linalg.eigh(w0), t)
    b = np.zeros(n)
    b[0] = rabi
    w = np.linalg.solve(w0, b)
    shift = np.sqrt(2.0) * np.concatenate([m[:n, :n] @ w - w, m[n:, :n] @ w])
    cov = m @ state0.cov @ m.T
    return GaussianState(n, m @ state0.mean + shift, 0.5 * (cov + cov.T))


class TestBuilders:
    def test_single_no_bath(self):
        np.testing.assert_array_equal(build_single(2.5, None), [[2.5]])

    def test_single_one_mode(self):
        bath = BathCouplings(np.array([1.3]), np.array([0.2]))
        np.testing.assert_allclose(build_single(1.0, bath), [[1.0, 0.2], [0.2, 1.3]])

    def test_single_symmetry(self):
        w = build_single(1.0, small_bath())
        np.testing.assert_array_equal(w, w.T)

    def test_two_uncoupled_is_block_diagonal(self):
        bath = small_bath(4)
        w = build_two(1.0, 0.0, bath)
        np.testing.assert_array_equal(w[:5, 5:], np.zeros((5, 5)))
        np.testing.assert_array_equal(w[:5, :5], build_single(1.0, bath))
        np.testing.assert_array_equal(w[5:, 5:], build_single(1.0, bath))

    def test_two_bare(self):
        np.testing.assert_allclose(build_two(1.0, 0.05, None), [[1.0, 0.05], [0.05, 1.0]])

    def test_two_warns_when_rwa_strained(self):
        with pytest.warns(RwaValidityWarning):
            ReducedPropagator.build(1.0, None, beta=0.5)
        with pytest.raises(ValueError, match="beta"):
            ReducedPropagator.build(1.0, None, beta=-0.1)


class TestPropagator:
    def test_identity_at_zero(self):
        lam, q = arrowhead_cache(1.0, small_bath())
        np.testing.assert_allclose(propagator(lam, q, 0.0), np.eye(2 * lam.size),
                                   atol=1e-15)

    def test_symplectic_orthogonal(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            lam, q = arrowhead_cache(1.0, random_bath(rng, m=50))
            sigma = symplectic_form(lam.size)
            for t in (0.7, 13.0, 100.0):
                m = propagator(lam, q, t)
                assert np.abs(m @ sigma @ m.T - sigma).max() <= 1e-10
                assert np.abs(m @ m.T - np.eye(2 * lam.size)).max() <= 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(6)
        lam, q = arrowhead_cache(1.0, random_bath(rng, m=25))
        t1, t2 = 3.3, 7.9
        m12 = propagator(lam, q, t1 + t2)
        np.testing.assert_allclose(m12, propagator(lam, q, t1) @ propagator(lam, q, t2),
                                   atol=1e-11)

    def test_resonant_pair_swaps_excitation(self):
        # Omega = omega_1, coupling g: full swap with period pi/g
        g = 0.1
        bath = BathCouplings(np.array([1.0]), np.array([g]))
        hot = make_thermal([1.0], 5.0)
        nu = hot.cov[0, 0]
        times = (0.0, np.pi / (4 * g), np.pi / (2 * g), np.pi / g)
        # C11(t) = cos^2(gt) nu + sin^2(gt): closed two-mode Rabi solution
        for t, red in zip(times, ReducedPropagator.build(1.0, bath).states(times, hot, [0.0])):
            expect = np.cos(g * t) ** 2 * nu + np.sin(g * t) ** 2
            assert red.cov[0, 0] == pytest.approx(expect, abs=1e-10)

    def test_bath_rows_match_full_propagator(self):
        # the Cauchy product of the batched path against the system row of an eigh propagator
        bath = small_bath()
        (sector,) = ReducedPropagator.build(1.0, bath).sectors
        times = np.array([4.2, 11.0])
        lt = np.outer(times, sector.eigenvalues)
        rows = sector.bath_rows(bath.frequencies, np.concatenate(
            [sector.weight * np.cos(lt), -sector.weight * np.sin(lt)]))
        n = bath.size + 1
        for i, t in enumerate(times):
            full = propagator(*np.linalg.eigh(build_single(1.0, bath)), t)
            np.testing.assert_allclose(rows[i], full[0, 1:n], rtol=0, atol=1e-14)  # cos(Wt)
            np.testing.assert_allclose(rows[2 + i], -full[0, n + 1:], rtol=0, atol=1e-14)

    def test_bath_rows_do_not_depend_on_the_blas_thread_count(self):
        # more roots than the 10 000 entries above which OpenBLAS splits one ddot
        # over its threads, and a split sum rounds differently
        code = ("import sys, numpy as np; from oscbath.exact import _Sector; "
                "rng = np.random.default_rng(0); n = 20001; "
                "sector = _Sector(np.sort(rng.uniform(0.0, 10.0, n)), np.zeros(n), "
                "rng.uniform(0.1, 1.0, 3), rng.uniform(0.0, 1.0, n), 0); "
                "rows = sector.bath_rows(np.array([2.5, 5.0, 7.5]) + 1e-3 * np.pi, "
                "rng.standard_normal((4, n))); "
                "sys.stdout.write(rows.tobytes().hex())")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(oscbath.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))}
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**env, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert len(outs[0]) == 2 * 8 * 4 * 3 and outs[0] == outs[1]


class TestCovarianceEvolution:
    def test_global_vacuum_invariant(self):
        lam, q = arrowhead_cache(1.0, small_bath())
        eye = np.eye(2 * lam.size)
        m = propagator(lam, q, 9.1)
        np.testing.assert_allclose(m @ eye @ m.T, eye, atol=1e-12)

    def test_uniform_thermal_invariant(self):
        # all mode frequencies equal: c*I stays c*I
        bath = BathCouplings(np.array([1.0, 1.0 + 1e-12]), np.array([0.1, 0.12]))
        lam, q = arrowhead_cache(1.0, bath)
        c0 = 3.7 * np.eye(2 * lam.size)
        m = propagator(lam, q, 5.0)
        np.testing.assert_allclose(m @ c0 @ m.T, c0, atol=1e-10)

    def test_reduced_matches_explicit_double_sum(self):
        # element-wise sums of M_1k M_1l C_kl(0) at M = 20, t = 3
        bath = small_bath(20, 0.1, 9.0)
        lam, q = arrowhead_cache(1.0, bath)
        sys0 = make_thermal([1.0], 30.0)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 1.0))
        t = 3.0
        m = propagator(lam, q, t)
        n = lam.size
        c0 = global0.cov
        rows = (0, n)  # x and p of the system oscillator
        expect = np.empty((2, 2))
        for a, ra in enumerate(rows):
            for b, rb in enumerate(rows):
                acc = 0.0
                for k in range(2 * n):
                    for l in range(2 * n):
                        acc += m[ra, k] * m[rb, l] * c0[k, l]
                expect[a, b] = acc
        (red,) = ReducedPropagator.build(1.0, bath).states([t], sys0, [1.0])
        np.testing.assert_allclose(red.cov, expect, atol=1e-12)

    def test_determinant_preserved(self):
        bath = small_bath(6)
        lam, q = arrowhead_cache(1.0, bath)
        global0 = tensor_product(make_squeezed_vacuum(0.7),
                                 make_thermal(bath.frequencies, 0.5))
        sign0, logdet0 = np.linalg.slogdet(global0.cov)
        m = propagator(lam, q, 17.0)
        sign1, logdet1 = np.linalg.slogdet(m @ global0.cov @ m.T)
        assert sign0 == sign1
        assert logdet1 == pytest.approx(logdet0, abs=1e-8)

    @pytest.mark.parametrize("hot", [1e6, 1e10, 1e14, 1e16])
    def test_uncoupled_pair_is_two_lone_oscillators(self, hot):
        # at beta = 0 the hot bath never reaches the cold oscillator: its half of the
        # pair must be the lone oscillator's state to rounding, not to rounding of T2
        spec = OhmicSpectrum(0.001, 1.8)
        bath = discretize(spec, 40, omega_range(spec, "equal_tails"))
        times = np.linspace(0.0, 50.0, 26)
        cold0, hot0 = make_coherent(0.8 - 0.3j), make_squeezed_vacuum(0.4)
        pair = ReducedPropagator.build(1.2, bath, beta=0.0).states(
            times, tensor_product(cold0, hot0), [0.2, hot])
        cold = ReducedPropagator.build(1.2, bath).states(times, cold0, [0.2])
        lone = ReducedPropagator.build(1.2, bath).states(times, hot0, [hot])
        c, h = [0, 2], [1, 3]  # (x1, x2, p1, p2): the cold and the hot oscillator
        np.testing.assert_allclose(pair.mean[:, c], cold.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.mean[:, h], lone.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.cov[np.ix_(range(26), c, c)], cold.cov, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(pair.cov[np.ix_(range(26), c, h)], 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pair.cov[np.ix_(range(26), h, h)], lone.cov, rtol=0,
                                   atol=1e-12 * np.abs(lone.cov).max())


class TestFullStates:
    """FullPropagator, the one dense eigh: its system block is the reduced state, invariants hold."""

    def test_system_block_is_the_reduced_state(self):
        bath = small_bath(20, 0.1, 9.0)
        sys0 = random_physical_state(np.random.default_rng(8), 1)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 0.7))
        times = [0.0, 2.5, 31.0]
        full = FullPropagator.build(1.0, bath).states(times, global0)
        n = bath.size + 1
        for f, red in zip(full, ReducedPropagator.build(1.0, bath).states(times, sys0, [0.7])):
            np.testing.assert_allclose(f.mean[[0, n]], red.mean, rtol=0, atol=1e-12)
            np.testing.assert_allclose(f.cov[np.ix_([0, n], [0, n])], red.cov, rtol=0, atol=1e-12)

    def test_invariants(self):
        # t = 0 gives state0; det C and the global vacuum are conserved
        bath = small_bath(6)
        global0 = tensor_product(make_squeezed_vacuum(0.7), make_thermal(bath.frequencies, 0.5))
        first, later = FullPropagator.build(1.0, bath).states([0.0, 17.0], global0)
        np.testing.assert_allclose(first.cov, global0.cov, rtol=0, atol=1e-13)
        assert (np.linalg.slogdet(later.cov)[1]
                == pytest.approx(np.linalg.slogdet(global0.cov)[1], abs=1e-8))
        (vac,) = FullPropagator.build(1.0, bath).states([9.1], make_vacuum(bath.size + 1))
        np.testing.assert_allclose(vac.cov, np.eye(2 * bath.size + 2), rtol=0, atol=1e-12)


class TestDriven:
    def test_zero_rabi_matches_undriven_covariance(self):
        # a drive of zero strength still frames the state at omega_L, and adds no mean
        bath = small_bath()
        sys0 = make_squeezed_vacuum(0.4)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 0.2))
        (out,) = ReducedPropagator.build(1.0, bath, drive=(0.0, 0.83)).states([6.0], sys0, [0.2])
        full = dense_driven(build_single(1.0, bath), 0.0, 0.83, global0, 6.0)
        n = bath.size + 1
        np.testing.assert_allclose(out.cov, full.cov[np.ix_([0, n], [0, n])], atol=1e-12)
        np.testing.assert_array_equal(out.mean, np.zeros(2))

    def test_identity_at_zero(self):
        bath = small_bath()
        sys0 = make_vacuum(1)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 0.0))
        out = dense_driven(build_single(1.0, bath), 0.3, 0.83, global0, 0.0)
        np.testing.assert_allclose(out.mean, global0.mean, atol=1e-14)
        np.testing.assert_allclose(out.cov, global0.cov, atol=1e-13)
        (red,) = ReducedPropagator.build(1.0, bath, drive=(0.3, 0.83)).states([0.0], sys0, [0.0])
        assert red.mean.tobytes() == sys0.mean.tobytes() and red.cov.tobytes() == sys0.cov.tobytes()

    def test_bare_oscillator_matches_closed_form(self):
        # <a~(t)> = r (e^{-i wL t} - e^{-i W t})/(wL - W) in the lab frame;
        # rotating frame values differ by e^{+i wL t}
        omega, omega_l, r = 1.0, 0.8, 0.25
        times = (0.9, 4.4, 21.0)
        states = ReducedPropagator.build(omega, None, drive=(r, omega_l)).states(
            times, make_vacuum(1), [0.0])
        for t, out in zip(times, states):
            a_lab = r * (np.exp(-1j * omega_l * t) - np.exp(-1j * omega * t)) / (omega_l - omega)
            a_rot = np.exp(1j * omega_l * t) * a_lab
            np.testing.assert_allclose(out.mean,
                                       [np.sqrt(2) * a_rot.real, np.sqrt(2) * a_rot.imag],
                                       atol=1e-12)

    def test_covariance_independent_of_rabi(self):
        bath = small_bath()
        sys0 = make_thermal([1.0], 2.0)
        covs = [ReducedPropagator.build(1.0, bath, drive=(r, 0.77)).states(
                    [8.0], sys0, [0.3])[0].cov for r in (0.0, 0.2, 1.5)]
        np.testing.assert_allclose(covs[1], covs[0], atol=1e-12)
        np.testing.assert_allclose(covs[2], covs[0], atol=1e-12)

    def test_resonant_drive_frequency_rejected(self):
        bath = small_bath()
        resonant = float(np.linalg.eigvalsh(build_single(1.0, bath))[2])
        with pytest.raises(ArithmeticError, match="resonant"):
            ReducedPropagator.build(1.0, bath, drive=(0.1, resonant))

    def test_reduced_driven_matches_full(self):
        bath = small_bath()
        sys0 = make_vacuum(1)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 0.1))
        t = 5.5
        full = dense_driven(build_single(1.0, bath), 0.4, 0.9, global0, t)
        n = bath.size + 1
        (red,) = ReducedPropagator.build(1.0, bath, drive=(0.4, 0.9)).states([t], sys0, [0.1])
        np.testing.assert_allclose(red.mean, full.mean[[0, n]], atol=1e-13)
        np.testing.assert_allclose(red.cov, full.cov[np.ix_([0, n], [0, n])], atol=1e-13)


def dense_initial_state(sys0, bath, temperatures):
    """system state (x) thermal baths as one dense state, in ``build_two``'s mode order.

    One copy of ``bath`` (None: no bath) per oscillator, at its temperature.
    ``tensor_product`` puts both oscillators first, (osc1, osc2, bath1..., bath2...);
    the rows and columns are then permuted to (osc1, bath1..., osc2, bath2...).
    """
    state = sys0
    if bath is not None:
        for temp in temperatures:
            state = tensor_product(state, make_thermal(bath.frequencies, temp))
    if len(temperatures) == 1:
        return state
    m, n = (state.n_modes - 2) // 2, state.n_modes
    order = np.concatenate([[0], 2 + np.arange(m), [1], 2 + m + np.arange(m)])
    idx = np.concatenate([order, order + n])
    return GaussianState(n, state.mean[idx], state.cov[np.ix_(idx, idx)])


class TestReducedStateReferee:
    """The batched reduced states against dense full-state evolution by eigh."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.one_of(st.just(0), st.integers(2, 40)),
           st.sampled_from(("single", "driven", "pair")), st.booleans(),
           st.floats(0.0, 3.0), st.floats(0.0, 50.0))
    def test_matches_dense_evolution(self, seed, m, scenario, decoupled, temp, t):
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.5, 2.0)
        bath = None
        if m:
            g = rng.uniform(0.0, 0.1, m)
            if decoupled:
                g[rng.integers(m)] = 0.0  # an exactly decoupled mode
            bath = BathCouplings(np.sort(rng.uniform(0.1, 5.0, m)), g)
        pair = scenario == "pair"
        temps = [temp, rng.uniform(0.0, 3.0)] if pair else [temp]
        sys0 = random_physical_state(rng, len(temps))
        global0 = dense_initial_state(sys0, bath, temps)
        times = [0.5 * t, 0.0, t]  # t = 0 inside the grid, not only at its start
        if pair:
            beta = rng.uniform(0.0, 0.1)
            coupling = build_two(omega, beta, bath)
            reduced = ReducedPropagator.build(omega, bath, beta=beta)
            full = dense_states(coupling, global0, times)
        else:
            coupling = build_single(omega, bath)
            if scenario == "driven":
                rabi, omega_l = rng.uniform(0.0, 1.0), rng.uniform(0.1, 6.0)
                assume(np.abs(np.linalg.eigvalsh(coupling) - omega_l).min() > 1e-2)
                reduced = ReducedPropagator.build(omega, bath, drive=(rabi, omega_l))
                full = [dense_driven(coupling, rabi, omega_l, global0, s) for s in times]
            else:
                reduced = ReducedPropagator.build(omega, bath)
                full = dense_states(coupling, global0, times)

        n = coupling.shape[0]
        sys_idx = [0, n // 2] if pair else [0]  # (osc1, bath..., osc2, bath...)
        idx = sys_idx + [i + n for i in sys_idx]
        for red, ref in zip(reduced.states(times, sys0, temps), full):
            np.testing.assert_allclose(red.mean, ref.mean[idx], rtol=0, atol=1e-10)
            np.testing.assert_allclose(red.cov, ref.cov[np.ix_(idx, idx)], rtol=0, atol=1e-10)


def assert_eigh_referee(w, cache, t=7.3):
    """(lam, Q) assembled from sector spectra against np.linalg.eigh of W, and its propagator."""
    scale = max(np.abs(w).max(), 1.0)
    evals, q = cache
    dim = w.shape[0]
    assert np.abs(np.sort(evals) - np.linalg.eigh(w)[0]).max() <= 1e-12 * scale
    assert np.abs(q.T @ q - np.eye(dim)).max() <= 1e-13
    assert np.abs(w @ q - q * evals).max() <= 1e-12 * scale
    m = propagator(evals, q, t)
    sigma = symplectic_form(dim)
    assert np.abs(m @ sigma @ m.T - sigma).max() <= 1e-12


def random_arrowhead(seed, m, where, log_gap):
    """System frequency and bath: poles with gaps down to 10^log_gap, omega below/inside/above."""
    rng = np.random.default_rng(seed)
    # ascending poles with gaps down to 1e-12: clusters as well as spread bands
    gaps = 10.0 ** rng.uniform(log_gap, 0.0, m)
    freqs = 0.1 + np.cumsum(gaps)
    assume(np.all(np.diff(freqs) > 0))
    g = 10.0 ** rng.uniform(-4.0, -0.5, m)
    lo, hi = freqs[0], freqs[-1]
    omega = {"below": lo - rng.uniform(0.0, 3.0),
             "inside": rng.uniform(lo, hi),
             "above": hi + rng.uniform(0.0, 3.0)}[where]
    return rng, omega, BathCouplings(freqs, g)


class TestArrowheadSolver:
    """The secular solver behind ReducedPropagator, refereed by the dense eigh."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60),
           st.sampled_from(("below", "inside", "above")), st.floats(-12.0, 0.0),
           st.booleans())
    # without the Loewner couplings these lose orthogonality (2e-13)
    @example(2930367297, 22, "below", -3.795787519925476, True)
    @example(2274482886, 55, "inside", -3.772502209303628, False)
    # these stalled in the secular solver ("did not converge"): the model step
    # fell back onto t, or cycled between the two ends of a float-width bracket
    @example(4551, 2, "inside", 0.0, False)
    @example(27057, 2, "inside", -1.0, False)
    def test_matches_eigh(self, seed, m, where, log_gap, shifted):
        rng, omega, bath = random_arrowhead(seed, m, where, log_gap)
        coupling = build_single(omega, bath)
        drive = None
        if shifted:  # W - omega_L as a drive frames it, omega_L inside the band
            omega_l = rng.uniform(bath.frequencies[0], bath.frequencies[-1])
            coupling = coupling - omega_l * np.eye(coupling.shape[0])
            drive = (0.0, omega_l)
        try:
            cache = arrowhead_cache(omega, bath, drive=drive)
        except ArithmeticError as exc:
            assume("resonant" not in str(exc))  # such a drive is refused before any solve is used
            raise
        assert_eigh_referee(coupling, cache)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40),
           st.sampled_from(("below", "inside", "above")), st.floats(-12.0, 0.0),
           st.floats(0.0, 0.5))
    def test_pair_matches_eigh(self, seed, m, where, log_gap, beta):
        # two oscillators on copies of one bath: Q assembled from the Omega +- beta sectors
        _, omega, bath = random_arrowhead(seed, m, where, log_gap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RwaValidityWarning)
            cache = arrowhead_cache(omega, bath, beta=beta)
        assert_eigh_referee(build_two(omega, beta, bath), cache)

    @pytest.mark.parametrize("range_mode", ["equal_tails", "floor"])
    def test_large_ohmic_bath(self, range_mode):
        spec = OhmicSpectrum(0.01, 3.0)
        bath = discretize(spec, 600, omega_range(spec, range_mode, floor=0.1))
        assert_eigh_referee(build_single(1.0, bath), arrowhead_cache(1.0, bath))

    def test_initial_row_does_not_depend_on_the_eigensolver(self):
        # Q Q^T differs from 1 by the solver's own rounding; t = 0 must not see it
        bath = small_bath(40)
        rng = np.random.default_rng(1)
        for reduced, modes in ((ReducedPropagator.build(1.0, bath), 1),
                               (ReducedPropagator.build(1.0, bath, drive=(0.2, 1.1)), 1),
                               (ReducedPropagator.build(1.0, bath, beta=0.05), 2)):
            sys0 = random_physical_state(rng, modes)
            states = reduced.states([0.0, 2.0, 0.0], sys0, [0.7] * modes)
            for state in states[::2]:
                np.testing.assert_array_equal(state.cov, sys0.cov)
                np.testing.assert_array_equal(state.mean, sys0.mean)

    def test_other_couplings_reduce_to_arrowheads(self):
        # bath-less W and decoupled modes need no other solver than the sector solve
        (bare,) = ReducedPropagator.build(1.3, None).sectors
        np.testing.assert_array_equal(bare.eigenvalues, [1.3])
        np.testing.assert_array_equal(bare.weight, [1.0])
        pair = ReducedPropagator.build(1.0, None, beta=0.05)
        np.testing.assert_array_equal([s.eigenvalues[0] for s in pair.sectors], [1.05, 0.95])
        bath = small_bath()
        zero_g = BathCouplings(bath.frequencies, np.r_[bath.couplings[:3], 0.0,
                                                       bath.couplings[4:]])
        kept = BathCouplings(np.delete(bath.frequencies, 3), np.delete(bath.couplings, 3))
        dropped = ReducedPropagator.build(1.0, zero_g)
        reference = ReducedPropagator.build(1.0, kept)
        np.testing.assert_array_equal(dropped.freqs, kept.frequencies)
        np.testing.assert_array_equal(dropped.sectors[0].eigenvalues,
                                      reference.sectors[0].eigenvalues)

    def test_root_at_its_midpoint_starts_there(self):
        # poles 1 and 2 with equal couplings and omega = 1.5: the middle root is the
        # midpoint itself, so f(mid) = 0 and the two-pole model's root lands on the
        # end of the bracket; the solver then starts that root at mid instead
        for g in (0.05, 1.0):  # weak and strong coupling
            for poles, omega in (([1.0, 2.0], 1.5), ([1.0, 2.0, 3.0, 4.0], 2.5)):
                bath = BathCouplings(np.array(poles), np.full(len(poles), g))
                assert_eigh_referee(build_single(omega, bath), arrowhead_cache(omega, bath))
                assert omega in ReducedPropagator.build(omega, bath).sectors[0].eigenvalues

    def test_two_pole_start_needs_few_evaluations(self):
        # started at the two-pole model's root, a root of the M = 1600 bath is found
        # after 2.4 evaluations of f on average (4.1 from the midpoint); every
        # evaluation is one pass over the roots' N-wide rows
        bath = discretize(SPEC, 1600, omega_range(SPEC, "equal_tails"))
        (sector,) = ReducedPropagator.build(1.0, bath).sectors
        assert sector.evaluations <= 3 * sector.eigenvalues.size

    def test_block_size_does_not_move_the_spectrum(self, monkeypatch):
        # the solver's workspace is reused across blocks and iterations: at 5 and 64
        # the last block of the 151 roots is partial and at 4096 one block exceeds n,
        # so a stale or aliased row as the active set shrinks would move these
        bath = discretize(SPEC, 150, omega_range(SPEC, "equal_tails"))
        times = np.linspace(0.0, 40.0, 6)
        rng = np.random.default_rng(3)
        cases = [((1.0, bath), random_physical_state(rng, 1), [0.7]),
                 ((1.0, bath, 0.05), random_physical_state(rng, 2), [0.7, 1.3])]
        runs = []
        for block in (64, 5, 4096):
            monkeypatch.setattr(exact, "_SECULAR_BLOCK", block)
            runs.append([(p.sectors, p.states(times, sys0, temps)) for p, sys0, temps in
                         ((ReducedPropagator.build(*args), sys0, temps)
                          for args, sys0, temps in cases)])
        for run in runs[1:]:
            for (sectors, states), (ref_sectors, ref_states) in zip(run, runs[0]):
                for sector, ref in zip(sectors, ref_sectors):
                    for name in ("eigenvalues", "g_hat", "weight"):
                        np.testing.assert_allclose(getattr(sector, name), getattr(ref, name),
                                                   rtol=1e-14, atol=0, err_msg=name)
                for state, ref in zip(states, ref_states):
                    np.testing.assert_allclose(state.mean, ref.mean, rtol=1e-14, atol=0)
                    np.testing.assert_allclose(state.cov, ref.cov, rtol=1e-14, atol=0)


class TestMemory:
    def test_large_bath_trajectory_needs_no_dense_matrix(self):
        # M = 3000: one dense 3001^2 float64 array is 72 MB; the batched path
        # stores roots, couplings and (times x modes) amplitudes
        spec = OhmicSpectrum(0.01, 3.0)
        bath = discretize(spec, 3000, omega_range(spec, "equal_tails"))
        times = np.linspace(0.0, 60.0, 16)
        tracemalloc.start()
        try:
            states = ReducedPropagator.build(1.0, bath).states(
                times, make_thermal([1.0], 20.0), [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states.mean) == times.size
        assert peak < 36e6, f"peak {peak / 1e6:.1f} MB"


class TestRecurrenceEstimate:
    def test_doubling_modes_doubles_estimate(self):
        b1 = discretize(SPEC, 100, (0.1, 15.0))
        b2 = discretize(SPEC, 199, (0.1, 15.0))
        est1 = recurrence_time_estimate(b1)
        est2 = recurrence_time_estimate(b2)
        assert est2 / est1 == pytest.approx(2.0, rel=1e-10)

    def test_estimate_grows_unbounded(self):
        ests = [recurrence_time_estimate(discretize(SPEC, m, (0.1, 15.0)))
                for m in (50, 200, 800)]
        assert ests[0] < ests[1] < ests[2]

    def test_exceeds_study_horizon_at_reference_spacing(self):
        # 175 modes over a floor-style window keeps echoes beyond t = 50
        bath = discretize(SPEC, 175, (0.1, 15.16))
        assert recurrence_time_estimate(bath) > 50.0
