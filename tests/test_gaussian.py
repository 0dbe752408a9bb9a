import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (fidelity_one_mode, fock_partial_trace_first, fock_uhlmann_fidelity,
                      random_physical_state, random_symplectic_orthogonal,
                      squeezed_vacuum_rho)

from oscbath import fock, gaussian
from oscbath.flows import QuadraticLindblad, evolve_flow
from oscbath.gaussian import (PHYSICALITY_TOL, GaussianState, db_distance, fidelity_multi,
                              make_coherent, make_squeezed_vacuum, make_thermal,
                              make_vacuum, partial_trace, physicality_violation,
                              symplectic_form, tensor_product)


class TestConstructors:
    def test_vacuum_one_mode(self):
        st = make_vacuum(1)
        np.testing.assert_array_equal(st.mean, np.zeros(2))
        np.testing.assert_array_equal(st.cov, np.eye(2))

    def test_vacuum_three_modes(self):
        st = make_vacuum(3)
        np.testing.assert_array_equal(st.cov, np.eye(6))

    def test_vacuum_physicality_eigenvalues(self):
        st = make_vacuum(1)
        eig = np.linalg.eigvalsh(st.cov + 1j * symplectic_form(1))
        np.testing.assert_allclose(np.sort(eig), [0.0, 2.0], atol=1e-14)
        assert physicality_violation(st) >= PHYSICALITY_TOL

    def test_thermal_zero_temperature_is_vacuum(self):
        st = make_thermal([1.0, 2.0, 0.3], 0.0)
        np.testing.assert_array_equal(st.cov, np.eye(6))

    def test_thermal_high_temperature_asymptote(self):
        # C_jj -> 2T; coth(omega/2T) is the exact value
        st = make_thermal([1.0], 100.0)
        assert abs(st.cov[0, 0] - 200.0) / 200.0 < 0.01
        np.testing.assert_allclose(st.cov[0, 0], 1.0 / np.tanh(1.0 / 200.0), rtol=1e-14)

    def test_thermal_unit_values(self):
        st = make_thermal([1.0], 1.0)
        np.testing.assert_allclose(st.cov[0, 0], 2.163953413738652848770004, rtol=1e-14)

    def test_thermal_subnormal_temperature_is_vacuum_silently(self):
        # omega / 2T overflows to inf for a subnormal T; tanh(inf) = 1 is the limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = make_thermal([1.0, 2.0], 1e-310)
        np.testing.assert_array_equal(st.cov, np.eye(4))

    def test_thermal_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            make_thermal([1.0, -0.5], 1.0)

    def test_squeezed_zero_is_vacuum(self):
        st = make_squeezed_vacuum(0.0)
        np.testing.assert_array_equal(st.cov, np.eye(2))

    def test_squeezed_half(self):
        st = make_squeezed_vacuum(0.5)
        np.testing.assert_allclose(np.diag(st.cov), [np.exp(-1.0), np.exp(1.0)], rtol=1e-15)
        assert np.linalg.det(st.cov) == pytest.approx(1.0, rel=1e-13)
        assert physicality_violation(st) >= PHYSICALITY_TOL

    def test_constructors_are_physical(self):
        rng = np.random.default_rng(11)
        states = [make_vacuum(2), make_thermal([0.5, 1.5], 2.0),
                  make_squeezed_vacuum(1.2), make_coherent(0.7 - 0.3j)]
        states += [random_physical_state(rng, n) for n in (1, 2, 3)]
        for st in states:
            assert physicality_violation(st) >= -1e-10

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-3
        with pytest.raises(ValueError):
            GaussianState(1, np.zeros(2), cov)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        st = random_physical_state(rng, 3)
        out = partial_trace(st, {0, 1, 2})
        np.testing.assert_allclose(out.cov, st.cov, atol=1e-15)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-15)

    def test_two_mode_vacuum_reduces_to_vacuum(self):
        out = partial_trace(make_vacuum(2), {0})
        np.testing.assert_array_equal(out.cov, np.eye(2))

    def test_invalid_keep_sets(self):
        st = make_vacuum(2)
        with pytest.raises(ValueError):
            partial_trace(st, set())
        with pytest.raises(ValueError):
            partial_trace(st, {2})

    def test_correlated_state_against_fock_partial_trace(self):
        # beamsplitter-correlate thermal x squeezed, then reduce to mode 1
        cutoff = 20
        dim = cutoff + 1
        rho0 = np.kron(fock.thermal_rho(0.3, cutoff),
                       squeezed_vacuum_rho(0.4, cutoff))
        h = np.array([[0.0, 0.35], [0.35, 0.0]])
        unitary = QuadraticLindblad(h, np.zeros((2, 2)), np.zeros((2, 2)))
        rho_t = fock.integrate(unitary, cutoff, rho0, [1.3])[0]
        mean2, cov2 = fock.moments(rho_t, 2, cutoff)
        full = GaussianState(2, mean2, cov2)

        reduced_fock = fock_partial_trace_first(rho_t, dim)
        mean_ref, cov_ref = fock.moments(reduced_fock, 1, cutoff)
        reduced = partial_trace(full, {0})
        np.testing.assert_allclose(reduced.mean, mean_ref, atol=1e-8)
        np.testing.assert_allclose(reduced.cov, cov_ref, atol=1e-8)
        # same rows/columns {1, 3} of the covariance (1-indexed) survive
        np.testing.assert_allclose(reduced.cov, full.cov[np.ix_([0, 2], [0, 2])],
                                   atol=1e-15)

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(9)
        st = random_physical_state(rng, 4)
        a = partial_trace(st, {1, 3})
        b = partial_trace(st, [3, 1])
        np.testing.assert_array_equal(a.cov, b.cov)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            st = random_physical_state(rng, 1)
            assert fidelity_one_mode(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_thermal_closed_form(self):
        for nbar in (0.2, 1.0, 3.5):
            omega, temp = 1.0, 1.0 / np.log(1.0 / nbar + 1.0)
            vac = make_vacuum(1)
            th = make_thermal([omega], temp)
            assert fidelity_one_mode(vac, th) == pytest.approx(1.0 / (1.0 + nbar), rel=1e-12)

    def test_vacuum_thermal_against_fock_overlap(self):
        # F(|0><0|, rho_th) = <0|rho_th|0> = 1/(1+nbar)
        nbar = 0.8
        rho = fock.thermal_rho(nbar, 200)
        overlap = rho[0, 0].real
        th = GaussianState(1, np.zeros(2), (2 * nbar + 1) * np.eye(2))
        assert fidelity_one_mode(make_vacuum(1), th) == pytest.approx(overlap, rel=1e-8)

    def test_displaced_vacuum(self):
        delta = np.array([0.7, -0.4])
        disp = GaussianState(1, delta, np.eye(2))
        expect = np.exp(-0.5 * delta @ delta)
        assert fidelity_one_mode(make_vacuum(1), disp) == pytest.approx(expect, rel=1e-13)
        assert fidelity_multi(make_vacuum(1), disp) == pytest.approx(expect, rel=1e-13)

    def test_multi_self_fidelity_five_mode_thermal(self):
        st = make_thermal([0.5, 1.0, 1.5, 2.0, 2.5], 1.3)
        assert fidelity_multi(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_multi_agrees_with_one_mode_on_random_pairs(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            a = random_physical_state(rng, 1)
            b = random_physical_state(rng, 1)
            worst = max(worst, abs(fidelity_one_mode(a, b) - fidelity_multi(a, b)))
        assert worst < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_physical_state(rng, 1)
            b = random_physical_state(rng, 1)
            assert abs(fidelity_one_mode(a, b) - fidelity_one_mode(b, a)) <= 1e-12
            assert abs(fidelity_multi(a, b) - fidelity_multi(b, a)) <= 1e-12

    def test_multiplicativity_on_products(self):
        rng = np.random.default_rng(8)
        a1, a2 = (random_physical_state(rng, 1) for _ in range(2))
        b1, b2 = (random_physical_state(rng, 1) for _ in range(2))
        f_prod = fidelity_multi(tensor_product(a1, a2), tensor_product(b1, b2))
        f_sep = fidelity_one_mode(a1, b1) * fidelity_one_mode(a2, b2)
        assert f_prod == pytest.approx(f_sep, rel=1e-11)

    def test_two_mode_against_fock_uhlmann(self):
        # low-occupancy correlated states, cutoff 15
        cutoff = 15
        h = np.array([[0.0, 0.3], [0.3, 0.0]])
        uni = QuadraticLindblad(h, np.zeros((2, 2)), np.zeros((2, 2)))
        rho_a = fock.integrate(
            uni, cutoff, np.kron(fock.thermal_rho(0.15, cutoff),
                                 fock.coherent_rho(0.25, cutoff)), [0.9])[0]
        rho_b = fock.integrate(
            uni, cutoff, np.kron(squeezed_vacuum_rho(0.2, cutoff),
                                 fock.thermal_rho(0.1, cutoff)), [1.7])[0]
        sa = GaussianState(2, *fock.moments(rho_a, 2, cutoff))
        sb = GaussianState(2, *fock.moments(rho_b, 2, cutoff))
        f_ref = fock_uhlmann_fidelity(rho_a, rho_b)
        assert fidelity_multi(sa, sb) == pytest.approx(f_ref, abs=1e-6)

    def test_symplectic_orthogonal_invariance(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            a = random_physical_state(rng, n)
            b = random_physical_state(rng, n)
            f0 = fidelity_multi(a, b)
            s = random_symplectic_orthogonal(rng, n)
            at = GaussianState(n, s @ a.mean, s @ a.cov @ s.T)
            bt = GaussianState(n, s @ b.mean, s @ b.cov @ s.T)
            assert fidelity_multi(at, bt) == pytest.approx(f0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_multi(make_vacuum(1), make_vacuum(2))


@st.composite
def state_pairs(draw):
    """Two random physical n-mode states (n <= 3) and a random passive map.

    Each state's symplectic eigenvalues stay >= 1.05, yet composite modes of
    the pair come within 7e-4 of purity (see test_near_unit_composite_spectrum).
    Near-pure states with hot modes beside them are the territory of a
    high-precision referee, where fidelity_multi's rounding is known to grow.
    """
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    min_nu = draw(st.floats(1.05, 3.0))
    max_nu = min_nu + draw(st.floats(0.0, 5.0))
    mean_scale = draw(st.floats(0.0, 3.0))
    a, b = (random_physical_state(rng, n, min_nu, max_nu, mean_scale) for _ in range(2))
    return a, b, random_symplectic_orthogonal(rng, n)


# worst |deviation| measured over 9000 seeded draws of state_pairs (each range
# parameter at its lower end, its upper end or uniform, a third each) and 3000
# hypothesis examples: 4.3e-15
PROPERTY_ATOL = 1e-13


class TestFidelityProperties:
    @settings(max_examples=100, deadline=None)
    @given(state_pairs())
    def test_symmetric(self, case):
        a, b, _ = case
        assert fidelity_multi(a, b) == pytest.approx(fidelity_multi(b, a), abs=PROPERTY_ATOL)

    @settings(max_examples=100, deadline=None)
    @given(state_pairs())
    def test_within_unit_interval(self, case):
        a, b, _ = case
        for f in (fidelity_multi(a, b), fidelity_multi(a, a)):
            assert 0.0 <= f <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(state_pairs())
    def test_invariant_under_common_passive_map(self, case):
        a, b, s = case
        n = a.n_modes
        at = GaussianState(n, s @ a.mean, s @ a.cov @ s.T)
        bt = GaussianState(n, s @ b.mean, s @ b.cov @ s.T)
        assert fidelity_multi(at, bt) == pytest.approx(fidelity_multi(a, b), abs=PROPERTY_ATOL)

    def test_near_unit_composite_spectrum(self):
        # A draw of state_pairs whose composite nu_k - 1 are 7.4e-4 to 1.1e-3.
        # Through the eigenvalues of W alone, F was off by 7e-14 and moved by
        # 1.2e-13 under the passive map; through P it is right to 6e-16.
        rng = np.random.default_rng(41423)
        a, b = (random_physical_state(rng, 3, 1.05, 1.05, 0.0) for _ in range(2))
        s = random_symplectic_orthogonal(rng, 3)
        at = GaussianState(3, s @ a.mean, s @ a.cov @ s.T)
        bt = GaussianState(3, s @ b.mean, s @ b.cov @ s.T)
        for x, y in ((a, b), (at, bt)):
            assert fidelity_multi(x, y) == pytest.approx(_mp_fidelity(x, y), abs=1e-14)
        assert fidelity_multi(at, bt) == pytest.approx(fidelity_multi(a, b), abs=PROPERTY_ATOL)


def _mp_fidelity(a, b):
    """fidelity_multi's closed form on W's spectrum, in 50-digit arithmetic (zero means)."""
    with mp.workdps(50):
        n = a.n_modes
        s = mp.matrix(symplectic_form(n).tolist()) * 1j
        v1 = mp.matrix(a.cov.tolist()) * s
        v2 = mp.matrix(b.cov.tolist()) * s
        w = (v1 * v2 + mp.eye(2 * n)) * mp.inverse(v1 + v2)
        nu = [x.real for x in mp.eig(w, left=False, right=False) if x.real > 0]
        logf = (n * mp.log(2) - mp.log(mp.det(mp.matrix((a.cov + b.cov).tolist()))) / 2
                + sum(mp.acosh(x) for x in nu))
        return float(mp.exp(logf))


class TestDistances:
    def test_identical_states_zero(self):
        st = make_thermal([1.0], 2.0)
        assert db_distance(st, st) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_limit(self):
        # far-displaced vacuum: F ~ exp(-400) ~ 0
        far = GaussianState(1, np.array([40.0, 0.0]), np.eye(2))
        assert db_distance(make_vacuum(1), far) == pytest.approx(1.0, abs=1e-12)

    def test_db_monotone_in_fidelity(self):
        vac = make_vacuum(1)
        shifts = np.linspace(0.0, 3.0, 12)
        dists = [db_distance(vac, GaussianState(1, np.array([s, 0.0]), np.eye(2)))
                 for s in shifts]
        assert all(d2 >= d1 - 1e-14 for d1, d2 in zip(dists, dists[1:]))


class TestFlowPhysicalityInterplay:
    def test_unitary_flow_preserves_physicality(self):
        # passive rotation keeps C + i sigma >= 0
        flow = QuadraticLindblad([[1.0]], [[0.0]], [[0.0]])
        st = make_squeezed_vacuum(0.8)
        for t in (0.3, 1.7, 9.2):
            out = evolve_flow(flow, st, t)
            assert physicality_violation(out) >= -1e-10


@st.composite
def mixed_branch_stacks(draw):
    """A stack of random physical one- or two-mode pairs, cold and hot.

    Moderately mixed pairs are evaluated through P, pairs with hot modes
    through W; the stack interleaves the two kinds in a drawn order.
    """
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hot = draw(st.lists(st.booleans(), min_size=2, max_size=6))
    hot[:2] = [False, True]
    rng.shuffle(hot)
    pairs = [[random_physical_state(rng, n, *((100.0, 400.0) if h else (1.05, 1.5)))
              for _ in range(2)] for h in hot]
    return [GaussianState(n, np.array([p[i].mean for p in pairs]),
                          np.array([p[i].cov for p in pairs])) for i in (0, 1)]


class TestStacks:
    """A stack of states is scored as each of its states alone."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_branch_stacks())
    def test_stacked_calls_equal_each_state_alone(self, case):
        a, b = case
        branches = []
        spectrum = gaussian._real_spectrum

        def recorded(m):
            branches.append(len(m))
            return spectrum(m)

        gaussian._real_spectrum = recorded
        try:
            stacked = fidelity_multi(a, b)
        finally:
            gaussian._real_spectrum = spectrum
        assert len(branches) == 2 and min(branches) > 0  # both branches, one call each
        alone = [fidelity_multi(a[i], b[i]) for i in range(len(a.mean))]
        assert stacked.tolist() == alone
        assert db_distance(a, b).tolist() == [db_distance(a[i], b[i])
                                              for i in range(len(a.mean))]
        for s in (a, b):
            assert physicality_violation(s).tolist() == [physicality_violation(s[i])
                                                         for i in range(len(s.mean))]

    def test_single_state_against_a_stack_broadcasts(self):
        rng = np.random.default_rng(5)
        a = random_physical_state(rng, 2)
        stack = GaussianState(2, np.array([a.mean, a.mean]), np.array([a.cov, a.cov]))
        assert fidelity_multi(a, stack).tolist() == [fidelity_multi(a, a)] * 2
        product = tensor_product(stack, make_thermal([1.0, 2.0], 0.5))
        assert product.cov.shape == (2, 8, 8)
        assert partial_trace(product, {0, 1}).cov.tolist() == stack.cov.tolist()
