import numpy as np
import pytest
from conftest import random_physical_state
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscbath.bath import BathCouplings, OhmicSpectrum, discretize, omega_range
from oscbath.exact import (CouplingMatrix, PropagatorCache, RwaValidityWarning,
                           _is_arrowhead, build_drive, build_single, build_two,
                           evolve_driven, initial_variances, propagator,
                           recurrence_time_estimate, reduced_state)
from oscbath.gaussian import (GaussianState, make_squeezed_vacuum, make_thermal,
                              make_vacuum, symplectic_form, tensor_product)

SPEC = OhmicSpectrum(0.01, 3.0)


def small_bath(m=8, lo=0.2, hi=6.0):
    return discretize(SPEC, m, (lo, hi))


def random_coupling(rng, m=30, scale=0.2):
    freqs = np.sort(rng.uniform(0.1, 8.0, m))
    gs = rng.uniform(0.0, scale, m)
    return build_single(1.0, BathCouplings(freqs, gs))


class TestBuilders:
    def test_single_no_bath(self):
        w = build_single(2.5, None)
        np.testing.assert_array_equal(w.matrix, [[2.5]])
        assert w.system_indices == (0,)

    def test_single_one_mode(self):
        bath = BathCouplings(np.array([1.3]), np.array([0.2]))
        w = build_single(1.0, bath)
        np.testing.assert_allclose(w.matrix, [[1.0, 0.2], [0.2, 1.3]])

    def test_single_symmetry(self):
        w = build_single(1.0, small_bath())
        np.testing.assert_array_equal(w.matrix, w.matrix.T)

    def test_two_uncoupled_is_block_diagonal(self):
        b1, b2 = small_bath(4), small_bath(4)
        w = build_two(1.0, 1.1, 0.0, b1, b2)
        np.testing.assert_array_equal(w.matrix[:5, 5:], np.zeros((5, 5)))
        np.testing.assert_allclose(w.matrix[:5, :5], build_single(1.0, b1).matrix)
        np.testing.assert_allclose(w.matrix[5:, 5:], build_single(1.1, b2).matrix)
        assert w.system_indices == (0, 5)

    def test_two_bare(self):
        w = build_two(1.0, 1.2, 0.05, None, None)
        np.testing.assert_allclose(w.matrix, [[1.0, 0.05], [0.05, 1.2]])

    def test_two_warns_when_rwa_strained(self):
        with pytest.warns(RwaValidityWarning):
            build_two(1.0, 1.0, 0.5, None, None)


class TestPropagator:
    def test_identity_at_zero(self):
        cache = PropagatorCache.build(build_single(1.0, small_bath()))
        np.testing.assert_allclose(propagator(cache, 0.0), np.eye(2 * cache.dim),
                                   atol=1e-15)

    def test_symplectic_orthogonal(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            w = random_coupling(rng, m=50)
            cache = PropagatorCache.build(w)
            sigma = symplectic_form(cache.dim)
            for t in (0.7, 13.0, 100.0):
                m = propagator(cache, t)
                assert np.abs(m @ sigma @ m.T - sigma).max() <= 1e-10
                assert np.abs(m @ m.T - np.eye(2 * cache.dim)).max() <= 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(6)
        w = random_coupling(rng, m=25)
        cache = PropagatorCache.build(w)
        t1, t2 = 3.3, 7.9
        m12 = propagator(cache, t1 + t2)
        np.testing.assert_allclose(m12, propagator(cache, t1) @ propagator(cache, t2),
                                   atol=1e-11)

    def test_resonant_pair_swaps_excitation(self):
        # Omega = omega_1, coupling g: full swap with period pi/g
        g = 0.1
        bath = BathCouplings(np.array([1.0]), np.array([g]))
        coupling = build_single(1.0, bath)
        cache = PropagatorCache.build(coupling)
        hot = make_thermal([1.0], 5.0)
        nu = hot.cov[0, 0]
        variances = initial_variances(coupling, [bath], [0.0])
        # C11(t) = cos^2(gt) nu + sin^2(gt): closed two-mode Rabi solution
        for t in (0.0, np.pi / (4 * g), np.pi / (2 * g), np.pi / g):
            red = reduced_state(cache, t, hot, variances)
            expect = np.cos(g * t) ** 2 * nu + np.sin(g * t) ** 2
            assert red.cov[0, 0] == pytest.approx(expect, abs=1e-10)

    def test_rows_match_full_propagator(self):
        cache = PropagatorCache.build(build_single(1.0, small_bath()))
        t = 4.2
        full = propagator(cache, t)
        rows = cache.rows(t, [0])
        np.testing.assert_allclose(rows, full[[0, cache.dim], :], atol=1e-14)


class TestCovarianceEvolution:
    def test_global_vacuum_invariant(self):
        cache = PropagatorCache.build(build_single(1.0, small_bath()))
        eye = np.eye(2 * cache.dim)
        m = propagator(cache, 9.1)
        np.testing.assert_allclose(m @ eye @ m.T, eye, atol=1e-12)

    def test_uniform_thermal_invariant(self):
        # all mode frequencies equal: c*I stays c*I
        bath = BathCouplings(np.array([1.0, 1.0 + 1e-12]), np.array([0.1, 0.12]))
        cache = PropagatorCache.build(build_single(1.0, bath))
        c0 = 3.7 * np.eye(2 * cache.dim)
        m = propagator(cache, 5.0)
        np.testing.assert_allclose(m @ c0 @ m.T, c0, atol=1e-10)

    def test_reduced_matches_explicit_double_sum(self):
        # element-wise sums of M_1k M_1l C_kl(0) at M = 20, t = 3
        bath = small_bath(20, 0.1, 9.0)
        coupling = build_single(1.0, bath)
        cache = PropagatorCache.build(coupling)
        sys0 = make_thermal([1.0], 30.0)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 1.0))
        t = 3.0
        m = propagator(cache, t)
        n = cache.dim
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
        red = reduced_state(cache, t, sys0, initial_variances(coupling, [bath], [1.0]))
        np.testing.assert_allclose(red.cov, expect, atol=1e-12)

    def test_determinant_preserved(self):
        bath = small_bath(6)
        coupling = build_single(1.0, bath)
        cache = PropagatorCache.build(coupling)
        global0 = tensor_product(make_squeezed_vacuum(0.7),
                                 make_thermal(bath.frequencies, 0.5))
        sign0, logdet0 = np.linalg.slogdet(global0.cov)
        m = propagator(cache, 17.0)
        sign1, logdet1 = np.linalg.slogdet(m @ global0.cov @ m.T)
        assert sign0 == sign1
        assert logdet1 == pytest.approx(logdet0, abs=1e-8)


class TestDriven:
    def test_zero_rabi_matches_undriven_covariance(self):
        bath = small_bath()
        coupling = build_single(1.0, bath)
        drive = build_drive(coupling, 0.0, 0.83)
        global0 = tensor_product(make_squeezed_vacuum(0.4),
                                 make_thermal(bath.frequencies, 0.2))
        out = evolve_driven(drive, global0, 6.0)
        m0 = propagator(drive, 6.0)
        np.testing.assert_allclose(out.cov, m0 @ global0.cov @ m0.T, atol=1e-12)
        np.testing.assert_allclose(out.mean, np.zeros_like(out.mean), atol=1e-14)

    def test_identity_at_zero(self):
        bath = small_bath()
        coupling = build_single(1.0, bath)
        drive = build_drive(coupling, 0.3, 0.83)
        global0 = tensor_product(make_vacuum(1), make_thermal(bath.frequencies, 0.0))
        out = evolve_driven(drive, global0, 0.0)
        np.testing.assert_allclose(out.mean, global0.mean, atol=1e-14)
        np.testing.assert_allclose(out.cov, global0.cov, atol=1e-13)

    def test_bare_oscillator_matches_closed_form(self):
        # <a~(t)> = r (e^{-i wL t} - e^{-i W t})/(wL - W) in the lab frame;
        # rotating frame values differ by e^{+i wL t}
        omega, omega_l, r = 1.0, 0.8, 0.25
        coupling = build_single(omega, None)
        drive = build_drive(coupling, r, omega_l)
        vac = make_vacuum(1)
        for t in (0.9, 4.4, 21.0):
            out = reduced_state(drive, t, vac, initial_variances(coupling, [None], [0.0]))
            a_lab = r * (np.exp(-1j * omega_l * t) - np.exp(-1j * omega * t)) / (omega_l - omega)
            a_rot = np.exp(1j * omega_l * t) * a_lab
            np.testing.assert_allclose(out.mean,
                                       [np.sqrt(2) * a_rot.real, np.sqrt(2) * a_rot.imag],
                                       atol=1e-12)

    def test_covariance_independent_of_rabi(self):
        bath = small_bath()
        coupling = build_single(1.0, bath)
        global0 = tensor_product(make_thermal([1.0], 2.0),
                                 make_thermal(bath.frequencies, 0.3))
        covs = []
        for r in (0.0, 0.2, 1.5):
            drive = build_drive(coupling, r, 0.77)
            covs.append(evolve_driven(drive, global0, 8.0).cov)
        np.testing.assert_allclose(covs[1], covs[0], atol=1e-12)
        np.testing.assert_allclose(covs[2], covs[0], atol=1e-12)

    def test_resonant_drive_frequency_rejected(self):
        bath = small_bath()
        coupling = build_single(1.0, bath)
        resonant = float(np.linalg.eigvalsh(coupling.matrix)[2])
        with pytest.raises(ArithmeticError, match="resonant"):
            build_drive(coupling, 0.1, resonant)

    def test_reduced_driven_matches_full(self):
        bath = small_bath()
        coupling = build_single(1.0, bath)
        drive = build_drive(coupling, 0.4, 0.9)
        sys0 = make_vacuum(1)
        global0 = tensor_product(sys0, make_thermal(bath.frequencies, 0.1))
        t = 5.5
        full = evolve_driven(drive, global0, t)
        n = coupling.dim
        red = reduced_state(drive, t, sys0, initial_variances(coupling, [bath], [0.1]))
        np.testing.assert_allclose(red.mean, full.mean[[0, n]], atol=1e-13)
        np.testing.assert_allclose(red.cov, full.cov[np.ix_([0, n], [0, n])], atol=1e-13)


def dense_initial_state(sys0, baths, temperatures):
    """system state (x) thermal baths as one dense state, in ``build_two``'s mode order.

    ``tensor_product`` puts both oscillators first, (osc1, osc2, bath1..., bath2...);
    the rows and columns are then permuted to (osc1, bath1..., osc2, bath2...).
    """
    state = sys0
    for bath, temp in zip(baths, temperatures):
        state = tensor_product(state, make_thermal(bath.frequencies, temp))
    if len(baths) == 1:
        return state
    m1, n = baths[0].size, state.n_modes
    order = np.concatenate([[0], 2 + np.arange(m1), [1], 2 + m1 + np.arange(n - 2 - m1)])
    idx = np.concatenate([order, order + n])
    return GaussianState(n, state.mean[idx], state.cov[np.ix_(idx, idx)])


class TestReducedStateReferee:
    """The product-state reduced evolution against the dense full-state evolution."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from((1, 2)),
           st.booleans(), st.floats(0.0, 3.0), st.floats(0.0, 50.0))
    def test_matches_dense_evolution(self, seed, m, oscillators, driven, temp, t):
        rng = np.random.default_rng(seed)

        def random_bath():
            return BathCouplings(np.sort(rng.uniform(0.1, 5.0, m)),
                                 rng.uniform(0.0, 0.1, m))

        omega = rng.uniform(0.5, 2.0)
        baths = [random_bath() for _ in range(oscillators)]
        temps = [temp, rng.uniform(0.0, 3.0)][:oscillators]
        if oscillators == 1:
            coupling = build_single(omega, baths[0])
            sys0 = random_physical_state(rng, 1)
        else:
            coupling = build_two(omega, omega, rng.uniform(0.0, 0.1), *baths)
            sys0 = random_physical_state(rng, 2)
        if driven:
            omega_l = rng.uniform(0.1, 6.0)
            assume(np.abs(np.linalg.eigvalsh(coupling.matrix) - omega_l).min() > 1e-2)
            cache = build_drive(coupling, rng.uniform(0.0, 1.0), omega_l)
        else:
            cache = PropagatorCache.build(coupling)

        full = evolve_driven(cache, dense_initial_state(sys0, baths, temps), t)
        red = reduced_state(cache, t, sys0, initial_variances(coupling, baths, temps))
        sys_idx = list(coupling.system_indices)
        idx = sys_idx + [i + coupling.dim for i in sys_idx]
        np.testing.assert_allclose(red.mean, full.mean[idx], rtol=0, atol=1e-10)
        np.testing.assert_allclose(red.cov, full.cov[np.ix_(idx, idx)], rtol=0, atol=1e-10)


def assert_eigh_referee(coupling, cache, t=7.3):
    """The cache of an arrowhead W against np.linalg.eigh, and its propagator."""
    w = coupling.matrix
    scale = max(np.abs(w).max(), 1.0)
    evals, q = cache.eigenvalues, cache.eigenvectors
    assert np.abs(evals - np.linalg.eigh(w)[0]).max() <= 1e-12 * scale
    assert np.abs(q.T @ q - np.eye(coupling.dim)).max() <= 1e-13
    assert np.abs(w @ q - q * evals).max() <= 1e-12 * scale
    m = propagator(cache, t)
    sigma = symplectic_form(coupling.dim)
    assert np.abs(m @ sigma @ m.T - sigma).max() <= 1e-12


class TestArrowheadSolver:
    """The secular solver behind PropagatorCache.build, refereed by the dense eigh."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60),
           st.sampled_from(("below", "inside", "above")), st.floats(-12.0, 0.0),
           st.booleans())
    # without the Loewner couplings these lose orthogonality (2e-13)
    @example(2930367297, 22, "below", -3.795787519925476, True)
    @example(2274482886, 55, "inside", -3.772502209303628, False)
    def test_matches_eigh(self, seed, m, where, log_gap, shifted):
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
        coupling = build_single(omega, BathCouplings(freqs, g))
        if shifted:  # W - omega_L as build_drive forms it, omega_L inside the band
            w0 = coupling.matrix - rng.uniform(lo, hi) * np.eye(coupling.dim)
            coupling = CouplingMatrix(w0, coupling.system_indices)
        assert _is_arrowhead(coupling)
        assert_eigh_referee(coupling, PropagatorCache.build(coupling))

    @pytest.mark.parametrize("range_mode", ["equal_tails", "floor"])
    def test_large_ohmic_bath(self, range_mode):
        spec = OhmicSpectrum(0.01, 3.0)
        bath = discretize(spec, 600, omega_range(spec, range_mode, floor=0.1))
        coupling = build_single(1.0, bath)
        assert _is_arrowhead(coupling)
        assert_eigh_referee(coupling, PropagatorCache.build(coupling))

    def test_initial_row_does_not_depend_on_the_eigensolver(self):
        # Q Q^T differs from 1 by the solver's own rounding; t = 0 must not see it
        coupling = build_single(1.0, small_bath(40))
        sys0 = random_physical_state(np.random.default_rng(1), 1)
        var = initial_variances(coupling, [small_bath(40)], [0.7])
        for cache in (PropagatorCache.build(coupling), PropagatorCache.from_eigh(coupling),
                      build_drive(coupling, 0.2, 1.1)):
            state = reduced_state(cache, 0.0, sys0, var)
            np.testing.assert_array_equal(state.cov, sys0.cov)
            np.testing.assert_array_equal(state.mean, sys0.mean)

    def test_other_couplings_are_not_arrowheads(self):
        bath = small_bath()
        assert not _is_arrowhead(build_single(1.0, None))
        assert not _is_arrowhead(build_two(1.0, 1.0, 0.01, bath, bath))
        zero_g = BathCouplings(bath.frequencies, np.r_[0.0, bath.couplings[1:]])
        assert not _is_arrowhead(build_single(1.0, zero_g))
        w = build_single(1.0, bath).matrix
        order = np.r_[0, np.arange(w.shape[0] - 1, 0, -1)]  # bath descending
        assert not _is_arrowhead(CouplingMatrix(w[np.ix_(order, order)], (0,)))
        w = w.copy()
        w[2, 3] = w[3, 2] = 1e-3
        assert not _is_arrowhead(CouplingMatrix(w, (0,)))


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
