import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from conftest import squeezed_vacuum_rho
from scipy.linalg import expm

from oscbath import flows, fock
from oscbath.bath import OhmicSpectrum, bose_occupation, decay_rate, lamb_shift
from oscbath.flows import (QuadraticLindblad, SecularValidityWarning, _flow_maps,
                           evolve_flow, flow_driven, flow_single,
                           flow_two_large_beta, flow_two_small_beta,
                           rabi_renormalizations, steady_state)
from oscbath.gaussian import (GaussianState, make_coherent, make_squeezed_vacuum,
                              make_thermal, make_vacuum, physicality_violation,
                              tensor_product)


def fock_state(lindblad, cutoff, rho):
    mean, cov = fock.moments(rho, lindblad.n_modes, cutoff)
    return GaussianState(lindblad.n_modes, mean, cov)


def assert_matches_fock(flow, lindblad, cutoff, rho0, times, tol):
    state0 = fock_state(lindblad, cutoff, rho0)
    means, covs, _traces = fock.evolve_moments(lindblad, cutoff, rho0, times)
    for t, mean, cov in zip(times, means, covs):
        ref = GaussianState(lindblad.n_modes, mean, cov)
        out = evolve_flow(flow, state0, t)
        assert np.abs(out.mean - ref.mean).max() < tol
        assert np.abs(out.cov - ref.cov).max() < tol


class TestQuadraticLindblad:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QuadraticLindblad([[1.0, 0.2], [0.0, 1.0]], np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuadraticLindblad([[1.0]], [[-0.1]], [[0.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            QuadraticLindblad([[1.0]], [[0.1]], [[-0.1]])
        with pytest.raises(ValueError, match="2x2"):
            QuadraticLindblad(np.eye(2), [[0.1]], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1x1"):
            QuadraticLindblad([[1.0, 0.0]], [[0.1]], [[0.0]])
        with pytest.raises(ValueError, match="drive"):
            QuadraticLindblad([[1.0]], [[0.1]], [[0.0]], drive=[0.1, 0.2])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="drive must be finite"):
                QuadraticLindblad([[1.0]], [[0.1]], [[0.0]], drive=[bad])


_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def generators_and_states(draw, hurwitz=False):
    """A random 1- or 2-mode generator with K = 0.1 B B^dag, and a physical state.

    With ``hurwitz``, K^E = conj(K^A) + 0.1 (B B^dag + delta 1) instead, so the
    drift's complex form -i h - conj(K^E)/2 + K^A/2 = -i h - conj(K^E - conj(K^A))/2
    has a negative definite Hermitian part and the flow is damped.
    """
    n = draw(st.sampled_from((1, 2)))

    def complex_matrix():
        return (draw(arrays(float, (n, n), elements=_ENTRIES))
                + 1j * draw(arrays(float, (n, n), elements=_ENTRIES)))

    a = complex_matrix()
    b_emit, b_abs = complex_matrix(), complex_matrix()
    drive = draw(arrays(float, (n,), elements=_ENTRIES)) + 0j
    k_emit = 0.1 * b_emit @ b_emit.conj().T
    k_abs = 0.1 * b_abs @ b_abs.conj().T
    if hurwitz:
        k_emit = k_abs.conj() + k_emit + 0.1 * draw(st.floats(0.01, 1.0)) * np.eye(n)
    lindblad = QuadraticLindblad(0.5 * (a + a.conj().T), k_emit, k_abs, drive=drive)
    state = make_squeezed_vacuum(draw(st.floats(-1.0, 1.0)))
    if n == 2:
        state = tensor_product(state, make_coherent(draw(st.floats(-1.0, 1.0))))
    return lindblad, state


class TestGeneratorProperties:
    @settings(max_examples=60, deadline=None)
    @given(generators_and_states())
    def test_diffusion_symmetric_psd(self, case):
        lindblad, _ = case
        d = lindblad.diffusion
        np.testing.assert_array_equal(d, d.T)
        assert np.linalg.eigvalsh(d).min() >= -1e-12 * max(np.abs(d).max(), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(generators_and_states())
    def test_diffusion_is_the_vacuum_rate_less_the_drift(self, case):
        # D = R(K^A + conj K^E) must be the covariance rate at the vacuum less A + A^T.
        # The rate is the generator applied to the Fock vacuum; the drive, which moves
        # only the mean, is left out.  The h part of A cancels in A + A^T only up to its
        # own rounding, and the rate's identity in the rate only up to its, so the
        # tolerance is in ulps of the largest term, 1 or more
        lindblad, _ = case
        undriven = QuadraticLindblad(lindblad.h, lindblad.k_emit, lindblad.k_abs)
        n, cutoff = lindblad.n_modes, 4
        vacuum = fock.vacuum_rho(cutoff)
        if n == 2:
            vacuum = np.kron(vacuum, vacuum)
        rate_rho = (fock.build_superoperator(undriven, cutoff) @ vacuum.ravel())
        _, rate = fock.moments(rate_rho.reshape(vacuum.shape), n, cutoff)
        rate -= np.eye(2 * n)  # moments adds the identity of a unit trace; the rate's is 0
        a, d = lindblad.drift, lindblad.diffusion
        scale = max(1.0, np.abs(a).max(), np.abs(d).max())
        np.testing.assert_allclose(d, rate - (a + a.T), rtol=0,
                                   atol=8 * np.finfo(float).eps * scale)

    @settings(max_examples=60, deadline=None)
    @given(generators_and_states(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @example(case=(flow_single(1.0, 0.05, 0.2), make_vacuum(1)), t1=5e-324, t2=0.0)
    # a subnormal h against a unit drive: the drift's 1-norm, which sets the
    # halvings, is subnormal while the mean still moves by c t
    @example(case=(QuadraticLindblad([[5e-324]], [[0.0]], [[0.0]], drive=[1.0]),
                   make_vacuum(1)), t1=0.0, t2=1.0)
    def test_semigroup_and_physicality(self, case, t1, t2):
        lindblad, state = case
        once = evolve_flow(lindblad, state, t1 + t2)
        twice = evolve_flow(lindblad, evolve_flow(lindblad, state, t1), t2)
        np.testing.assert_allclose(once.mean, twice.mean, rtol=0, atol=1e-9)
        np.testing.assert_allclose(once.cov, twice.cov, rtol=0, atol=1e-9)
        assert physicality_violation(once) >= -1e-8


def mp_lyapunov(a):
    """The matrix of X -> A X + X A^T on the row-major vec X, for an mpmath A."""
    dim = a.rows
    lyap = mp.matrix(dim * dim, dim * dim)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lyap[i * dim + j, k * dim + j] += a[i, k]
                lyap[i * dim + j, i * dim + k] += a[j, k]
    return lyap


def mp_moments(flow, state, t=None):
    """Mean and covariance of the flow at t, or at its fixed point, to 40 digits.

    Independent of :func:`evolve_flow`: the fixed point solves
    A C + C A^T + D = 0 and A d + c = 0 in mpmath, and with Phi = exp(A t)
    the solution is d(t) = d_inf + Phi (d0 - d_inf),
    C(t) = C_inf + Phi (C0 - C_inf) Phi^T.
    """
    with mp.workdps(40):
        a = mp.matrix(flow.drift.tolist())
        dim = a.rows
        vec = mp.lu_solve(mp_lyapunov(a), mp.matrix((-flow.diffusion.ravel()).tolist()))
        cov = mp.matrix([[vec[i * dim + j] for j in range(dim)] for i in range(dim)])
        mean = -mp.lu_solve(a, mp.matrix(flow.mean_drift.tolist()))
        if t is not None:
            phi = mp.expm(a * t)
            mean += phi * (mp.matrix(state.mean.tolist()) - mean)
            cov += phi * (mp.matrix(state.cov.tolist()) - cov) * phi.T
        return (np.array(mean.tolist(), dtype=float).ravel(),
                np.array(cov.tolist(), dtype=float))


def mp_moments_by_exponentials(flow, state, t):
    """Mean and covariance of the flow at t to 40 digits, for any drift.

    Needs no fixed point, so it holds where A or A (+) A is singular: the top
    rows of exp([[A, c], [0, 0]] t) are (Phi, r), the last column of
    exp([[A (+) A, vec D], [0, 0]] t) is vec Q, and d(t) = Phi d0 + r,
    C(t) = Phi C0 Phi^T + Q.  At two modes the second is 17-square, so it is slow.
    """
    with mp.workdps(40):
        a = mp.matrix(flow.drift.tolist())
        dim = a.rows
        top = mp.zeros(dim + 1)
        top[:dim, :dim] = a
        top[:dim, dim] = mp.matrix(flow.mean_drift.tolist())
        kron = mp.zeros(dim * dim + 1)
        kron[:dim * dim, :dim * dim] = mp_lyapunov(a)
        kron[:dim * dim, dim * dim] = mp.matrix(flow.diffusion.ravel().tolist())
        top, kron = mp.expm(top * t), mp.expm(kron * t)
        phi = top[:dim, :dim]
        mean = phi * mp.matrix(state.mean.tolist()) + top[:dim, dim]
        cov = phi * mp.matrix(state.cov.tolist()) * phi.T + mp.matrix(
            [[kron[i * dim + j, dim * dim] for j in range(dim)] for i in range(dim)])
        return (np.array(mean.tolist(), dtype=float).ravel(),
                np.array(cov.tolist(), dtype=float))


def mp_error(out, mean, cov):
    """The larger of out's mean and covariance errors, each relative to its moment scale."""
    return max(np.abs(out.mean - mean).max() / max(1.0, np.abs(mean).max()),
               np.abs(out.cov - cov).max() / max(1.0, np.abs(cov).max()))


def assert_matches_mp(out, mean, cov):
    assert mp_error(out, mean, cov) <= 1e-11


class TestHighPrecisionReferee:
    @settings(max_examples=30, deadline=None)
    @given(generators_and_states(hurwitz=True))
    @example(case=(QuadraticLindblad([[1.0]], [[0.00625]], [[0.0]]), make_vacuum(1)))
    # hot and weakly damped: the steady covariance is 4001 times the vacuum's
    @example(case=(QuadraticLindblad([[1.0]], [[2.001]], [[2.0]], drive=[0.25]),
                   make_coherent(0.5)))
    def test_evolve_and_steady_state_against_mpmath(self, case):
        lindblad, state = case
        for t in (0.5, 40.0, 1000.0, 1e6):
            assert_matches_mp(evolve_flow(lindblad, state, t),
                              *mp_moments(lindblad, state, t))
        assert_matches_mp(steady_state(lindblad), *mp_moments(lindblad, state))

    def test_error_does_not_grow_with_t(self):
        # weakly damped (gamma = 0.023) and far past relaxation, out to t = 1e20
        flow, vacuum = flow_single(1.0, 0.01 * np.pi * np.exp(-1 / 3), 0.2), make_vacuum(1)
        for t in (1e3, 1e6, 1e10, 1e20):
            mean, cov = mp_moments(flow, vacuum, t)
            out = evolve_flow(flow, vacuum, t)
            assert np.abs(out.mean - mean).max() <= 1e-13, t
            assert np.abs(out.cov - cov).max() <= 1e-13, t


    @pytest.mark.parametrize("gamma", [1e-2, 1e-4, 1e-6])
    def test_error_at_weak_damping_is_bounded_by_the_relaxation_time(self, gamma):
        # each doubling compounds the rounding of |Phi|'s decay e^{-gamma t}, so the
        # error grows like eps omega_bar min(t, 1/gamma) (2 nbar + 1): measured up to
        # 1.9 times that for gamma from 1e-2 to 1e-8.  From the vacuum,
        # C(t) = (2 nbar + 1) - 2 nbar e^{-2 gamma t} times the identity
        omega_bar, nbar = 1.0, 0.2
        t = np.array([0.1, 1.0, 10.0, 100.0]) / gamma
        out = evolve_flow(flow_single(omega_bar, gamma, nbar), make_vacuum(1), t)
        exact = (2 * nbar + 1) - 2 * nbar * np.exp(-2 * gamma * t)
        error = np.abs(out.cov - exact[:, None, None] * np.eye(2)).max(axis=(1, 2))
        scale = np.finfo(float).eps * omega_bar * np.minimum(t, 1 / gamma) * (2 * nbar + 1)
        assert (error <= 4 * scale).all(), error / scale


class TestFlowMaps:
    @settings(max_examples=60, deadline=None)
    @given(generators_and_states())
    @example(case=(QuadraticLindblad([[1.0]], [[2.001]], [[2.0]], drive=[0.25]),
                   make_coherent(0.5)))
    def test_moments_against_mpmath(self, case):
        # any drift, growing ones too.  The fixed-point referee is fast, but fails
        # or loses its digits where A or A (+) A is (nearly) singular, so a
        # disagreement with it is settled by the exponentials, which hold for any A
        lindblad, state = case
        for t in (0.5, 40.0, 1000.0):
            with np.errstate(over="ignore", invalid="ignore"):
                out = evolve_flow(lindblad, state, t)
            try:
                ref = mp_moments(lindblad, state, t)
            except (ZeroDivisionError, TypeError):  # mpmath's LU on a zero pivot column
                ref = None
            if ref is None or not mp_error(out, *ref) <= 1e-11:
                ref = mp_moments_by_exponentials(lindblad, state, t)
            if not all(np.isfinite(m).all() for m in ref):
                continue  # a growing flow that outgrows double precision by t
            assert_matches_mp(out, *ref)

    @pytest.mark.parametrize("flow, state", [
        (flow_single(1.0, 0.05, 0.3), make_squeezed_vacuum(0.4)),
        (flow_driven(1.0, 0.07, 0.4, 0.2 + 0.1j, 0.6), make_coherent(0.5 - 0.3j)),
        (flow_two_small_beta((1.0, 1.2), 0.1, (0.05, 0.08), (0.2, 0.5)),
         tensor_product(make_coherent(0.3), make_thermal([1.2], 0.7))),
    ], ids=["single", "driven", "two_small"])
    def test_each_time_gets_the_bits_it_gets_alone(self, flow, state):
        # a (3, 5) grid whose doublings run from 0 past 8: stacking the times and
        # masking the doublings leave each time's moments as a call of its own gives
        times = np.array([[0.0, 0.3, 7.0, 40.0, 2.5], [250.0, 0.0, 600.0, 900.0, 1.0],
                          [3.0, 11.0, 0.01, 77.0, 5e3]])
        stacked = evolve_flow(flow, state, times)
        assert stacked.mean.shape == times.shape + (2 * flow.n_modes,)
        for index, t in np.ndenumerate(times):
            alone = evolve_flow(flow, state, t)
            assert stacked[index].mean.tobytes() == alone.mean.tobytes(), t
            assert stacked[index].cov.tobytes() == alone.cov.tobytes(), t


class TestExpm:
    @pytest.mark.parametrize("budget", [1, 50, 3 * 21 ** 2])
    def test_blocks_equal_one_stack_bit_for_bit(self, budget):
        # Phi = exp(A t), r and Q of a two-mode flow (4 x 4) on a (3, 5) grid whose
        # doublings run from 0 past 8: blocks of at most `budget` entries of Phi,
        # one, three or all fifteen times, give the bits of one stack
        flow = flow_two_small_beta((1.0, 1.2), 0.1, (0.05, 0.08), (0.2, 0.5))
        times = np.array([[0.0, 0.3, 7.0, 40.0, 2.5], [250.0, 0.0, 600.0, 900.0, 1.0],
                          [3.0, 11.0, 0.01, 77.0, 5e3]]).ravel()
        whole = _flow_maps(flow, times)
        step = max(1, budget // (2 * flow.n_modes) ** 2)
        blocks = [_flow_maps(flow, times[start:start + step])
                  for start in range(0, times.size, step)]
        for got, ref in zip(map(np.concatenate, zip(*blocks)), whole):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestFlowSingle:
    def test_drift_and_diffusion_structure(self):
        flow = flow_single(1.3, 0.05, 0.4)
        np.testing.assert_allclose(flow.drift, [[-0.05, 1.3], [-1.3, -0.05]])
        np.testing.assert_allclose(flow.diffusion, 2 * 0.05 * 1.8 * np.eye(2))

    def test_zero_damping_limit_preserves_trace(self):
        flow = QuadraticLindblad([[1.0]], [[0.0]], [[0.0]])
        st = make_squeezed_vacuum(0.9)
        for t in (0.4, 2.7):
            out = evolve_flow(flow, st, t)
            assert np.trace(out.cov) == pytest.approx(np.trace(st.cov), rel=1e-12)

    def test_steady_state_is_thermal(self):
        nbar = 0.8
        ss = steady_state(flow_single(1.0, 0.05, nbar))
        np.testing.assert_allclose(ss.cov, (2 * nbar + 1) * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(ss.mean, [0, 0], atol=1e-14)

    def test_against_fock_oracle(self):
        gamma, nbar, omega = 0.05, 0.5, 1.0
        lindblad = QuadraticLindblad(
            [[omega]], [[2 * gamma * (nbar + 1)]], [[2 * gamma * nbar]])
        rho0 = squeezed_vacuum_rho(0.5, 40)
        assert_matches_fock(flow_single(omega, gamma, nbar), lindblad, 40, rho0,
                            (0.5, 3.0, 9.0, 20.0), 1e-6)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            flow_single(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            flow_single(1.0, 0.1, -0.2)


class TestFlowTwoSmallBeta:
    def test_beta_zero_is_two_independent_oscillators(self):
        f2 = flow_two_small_beta((1.0, 1.4), 0.0, (0.05, 0.08), (0.3, 0.1))
        fa = flow_single(1.0, 0.05, 0.3)
        fb = flow_single(1.4, 0.08, 0.1)
        idx_a = np.ix_([0, 2], [0, 2])
        idx_b = np.ix_([1, 3], [1, 3])
        np.testing.assert_allclose(f2.drift[idx_a], fa.drift)
        np.testing.assert_allclose(f2.drift[idx_b], fb.drift)
        np.testing.assert_allclose(f2.diffusion[idx_a], fa.diffusion)
        np.testing.assert_allclose(f2.diffusion[idx_b], fb.diffusion)

    def test_against_fock_oracle(self):
        omega, beta, gamma, nbar = 1.0, 0.01, 0.06, 0.25
        cutoff = 12
        lindblad = QuadraticLindblad(
            [[omega, beta], [beta, omega]],
            np.diag([2 * gamma * (nbar + 1)] * 2), np.diag([2 * gamma * nbar] * 2))
        rho0 = np.kron(fock.coherent_rho(0.4, cutoff),
                       fock.thermal_rho(0.2, cutoff))
        flow = flow_two_small_beta((omega, omega), beta, (gamma, gamma), (nbar, nbar))
        assert_matches_fock(flow, lindblad, cutoff, rho0, (1.0, 8.0, 30.0), 1e-6)

    def test_excitation_exchange_at_twice_beta(self):
        # negligible damping: C_xx of mode 1 oscillates with period pi/beta
        beta = 0.05
        flow = flow_two_small_beta((1.0, 1.0), beta, (1e-12, 1e-12), (0.0, 0.0))
        hot = make_thermal([1.0], 4.0)
        nu = hot.cov[0, 0]
        st = tensor_product(hot, make_vacuum(1))
        idx = np.ix_([0, 2], [0, 2])
        half = evolve_flow(flow, st, np.pi / (2 * beta))
        np.testing.assert_allclose(half.cov[idx], np.eye(2), atol=1e-6)
        full = evolve_flow(flow, st, np.pi / beta)
        np.testing.assert_allclose(full.cov[idx], nu * np.eye(2), atol=1e-6)


SPEC_OHMIC = OhmicSpectrum(0.01, 3.0)


def normal_mode_flow(lindblad: QuadraticLindblad):
    """Independent re-derivation: diagonal damping of the normal modes b_pm,
    rotated back to the local modes by the fixed pi/4 beam splitter.

    Returns the local-mode (drift, diffusion)."""
    k_emit, k_abs, h = lindblad.k_emit, lindblad.k_abs, lindblad.h
    gamma_e = {"+": k_emit[0, 0] + k_emit[0, 1], "-": k_emit[0, 0] - k_emit[0, 1]}
    gamma_a = {"+": k_abs[0, 0] + k_abs[0, 1], "-": k_abs[0, 0] - k_abs[0, 1]}
    omega_p = (h[0, 0] + h[0, 1]).real
    omega_m = (h[0, 0] - h[0, 1]).real
    flow_b = QuadraticLindblad(
        np.diag([omega_p, omega_m]),
        np.diag([gamma_e["+"].real, gamma_e["-"].real]),
        np.diag([gamma_a["+"].real, gamma_a["-"].real]))
    r = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])
    # b = R a  =>  flow matrices transform by the orthogonal congruence S
    return s.T @ flow_b.drift @ s, s.T @ flow_b.diffusion @ s


class TestKMatrices:
    def test_beta_zero_limit_equal_baths(self):
        temp = 1.0
        lindblad = flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (temp, temp), 1.0, 0.0)
        gamma = decay_rate(SPEC_OHMIC, 1.0)
        nbar = bose_occupation(1.0, temp)
        assert lindblad.k_emit[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert lindblad.k_abs[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert lindblad.k_emit[0, 0] == pytest.approx(2 * gamma * (nbar + 1), rel=1e-12)
        assert lindblad.k_abs[0, 0] == pytest.approx(2 * gamma * nbar, rel=1e-12)

    def test_psd_across_parameter_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            omega = rng.uniform(0.5, 3.0)
            beta = rng.uniform(0.0, 0.4) * omega
            temps = rng.uniform(0.0, 5.0, 2)
            alphas = rng.uniform(0.001, 0.05, 2)
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore", SecularValidityWarning)
                lindblad = flow_two_large_beta((OhmicSpectrum(alphas[0], 3.0),
                                                OhmicSpectrum(alphas[1], 4.0)),
                                               tuple(temps), omega, beta)
            assert np.linalg.eigvalsh(lindblad.k_emit).min() >= -1e-12
            assert np.linalg.eigvalsh(lindblad.k_abs).min() >= -1e-12

    def test_unstable_coupling_rejected(self):
        with pytest.raises(ValueError, match="normal mode"):
            flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (1.0, 1.0), 1.0, 1.2)

    def test_decay_rate_underflow_at_upper_normal_mode_rejected(self):
        # gamma(Omega - beta) at nu/omega_c = 630 is positive; at 770 it underflows
        tail = OhmicSpectrum(0.001, 1.0)
        assert decay_rate(tail, 630.0) > 0 and decay_rate(tail, 770.0) == 0
        with pytest.raises(ValueError, match="underflows to 0 at nu = 770"):
            flow_two_large_beta((tail, tail), (0.0, 0.0), 700.0, 70.0)

    def test_asymmetric_offdiagonal_against_normal_mode_rederivation(self):
        flow = flow_two_large_beta((SPEC_OHMIC, OhmicSpectrum(0.02, 4.0)), (2.0, 0.3),
                                   1.0, 0.3)
        # off-diagonal of K^(A) is half the normal-mode absorption difference
        gamma_a_plus = sum(decay_rate(s, 1.3) * bose_occupation(1.3, t)
                           for s, t in ((SPEC_OHMIC, 2.0), (OhmicSpectrum(0.02, 4.0), 0.3)))
        gamma_a_minus = sum(decay_rate(s, 0.7) * bose_occupation(0.7, t)
                            for s, t in ((SPEC_OHMIC, 2.0), (OhmicSpectrum(0.02, 4.0), 0.3)))
        assert flow.k_abs[0, 1] == pytest.approx(
            (gamma_a_plus - gamma_a_minus) / 2, rel=1e-12)
        drift, diffusion = normal_mode_flow(flow)
        np.testing.assert_allclose(flow.drift, drift, atol=1e-12)
        np.testing.assert_allclose(flow.diffusion, diffusion, atol=1e-12)

    def test_secular_warning_when_beta_comparable_to_alpha(self):
        with pytest.warns(SecularValidityWarning):
            flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (1.0, 1.0), 1.0, 0.05)


class TestFlowTwoLargeBeta:
    def test_equal_bath_steady_state_is_coupled_thermal(self):
        temp, beta, omega = 1.0, 0.2, 1.0
        ss = steady_state(flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (temp, temp),
                                              omega, beta))
        # normal-mode thermal covariance rotated to the local modes
        nu_p = 1 + 2 * bose_occupation(omega + beta, temp)
        nu_m = 1 + 2 * bose_occupation(omega - beta, temp)
        r = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        s = np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])
        ref = s.T @ np.diag([nu_p, nu_m, nu_p, nu_m]) @ s
        np.testing.assert_allclose(ss.cov, ref, atol=1e-10)

    def test_approaches_small_beta_flow_linearly(self):
        temp = 0.8
        diffs = []
        for beta in (1e-3, 1e-4):
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore", SecularValidityWarning)
                large = flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (temp, temp),
                                            1.0, beta)
            gamma = decay_rate(SPEC_OHMIC, 1.0)
            nbar = bose_occupation(1.0, temp)
            shift = lamb_shift(SPEC_OHMIC, 1.0)
            small = flow_two_small_beta((1.0 + shift, 1.0 + shift), beta,
                                        (gamma, gamma), (nbar, nbar))
            diffs.append(max(np.abs(large.drift - small.drift).max(),
                             np.abs(large.diffusion - small.diffusion).max()))
        assert diffs[1] < diffs[0]
        assert diffs[1] / diffs[0] == pytest.approx(0.1, rel=0.35)

    def test_against_fock_oracle_asymmetric_temperatures(self):
        omega, beta = 1.0, 0.3
        spectrum = OhmicSpectrum(0.02, 3.0)
        flow = flow_two_large_beta((spectrum, spectrum), (1.2, 0.2), omega, beta)
        cutoff = 12
        lindblad = QuadraticLindblad(
            [[flow.h[0, 0], flow.h[0, 1]], [flow.h[0, 1], flow.h[0, 0]]],
            flow.k_emit, flow.k_abs)
        rho0 = np.kron(fock.coherent_rho(0.3, cutoff),
                       squeezed_vacuum_rho(0.2, cutoff))
        assert_matches_fock(flow, lindblad, cutoff, rho0, (1.5, 7.0, 25.0), 1e-5)


class TestRabiRenormalizations:
    def test_vanishing_coupling(self):
        tiny = OhmicSpectrum(1e-12, 3.0)
        for variant in ("plain", "off_resonant", "no_secular"):
            rbar = rabi_renormalizations(tiny, 1.0, 0.7, 0.2, variant)
            assert rbar == pytest.approx(0.2, abs=1e-10)

    def test_variant_difference_closed_form(self):
        omega, omega_l, r = 1.0, 0.6, 0.3
        off = rabi_renormalizations(SPEC_OHMIC, omega, omega_l, r, "off_resonant")
        nos = rabi_renormalizations(SPEC_OHMIC, omega, omega_l, r, "no_secular")
        expect = -(lamb_shift(SPEC_OHMIC, omega_l)
                   + 1j * decay_rate(SPEC_OHMIC, omega_l)) / (omega - omega_l) * r
        assert nos - off == pytest.approx(expect, rel=1e-12)

    def test_far_detuning_limit(self):
        for variant in ("off_resonant", "no_secular"):
            rbar = rabi_renormalizations(SPEC_OHMIC, 1.0, 500.0, 0.2, variant)
            assert abs(rbar - 0.2) / 0.2 < 1e-3

    def test_resonance_rejected_for_corrected_variants(self):
        with pytest.raises(ValueError):
            rabi_renormalizations(SPEC_OHMIC, 1.0, 1.0, 0.2, "off_resonant")
        assert rabi_renormalizations(SPEC_OHMIC, 1.0, 1.0, 0.2, "plain") == 0.2

    def test_warns_near_resonance(self):
        with pytest.warns(SecularValidityWarning):
            rabi_renormalizations(SPEC_OHMIC, 1.0, 0.99, 0.2, "no_secular")

    def test_no_secular_decay_rate_underflow_at_omega_l_rejected(self):
        tail = OhmicSpectrum(0.01, 1.0)
        assert decay_rate(tail, 800.0) == 0
        assert rabi_renormalizations(tail, 1.0, 800.0, 0.2, "off_resonant") != 0.2
        with pytest.raises(ValueError, match="underflows to 0 at nu = 800"):
            rabi_renormalizations(tail, 1.0, 800.0, 0.2, "no_secular")


class TestFlowDriven:
    def test_zero_drive_reduces_to_rotating_single(self):
        flow = flow_driven(1.0, 0.05, 0.3, 0.0, 0.8)
        ref = flow_single(1.0 - 0.8, 0.05, 0.3)
        np.testing.assert_allclose(flow.drift, ref.drift)
        np.testing.assert_allclose(flow.diffusion, ref.diffusion)
        np.testing.assert_allclose(flow.mean_drift, np.zeros(2))

    def test_steady_mean_is_displaced_fixed_point(self):
        omega_bar, gamma, wl = 1.0, 0.02, 0.7
        r_bar = 0.1 + 0.03j
        flow = flow_driven(omega_bar, gamma, 0.0, r_bar, wl)
        ss = steady_state(flow)
        det = omega_bar - wl
        a_ss = -1j * np.conj(r_bar) / (1j * det + gamma)
        np.testing.assert_allclose(
            ss.mean, [np.sqrt(2) * a_ss.real, np.sqrt(2) * a_ss.imag], atol=1e-12)
        # fixed point diverges as gamma -> 0 on resonance
        flow_res = flow_driven(1.0, 1e-8, 0.0, 0.1, 1.0)
        assert np.linalg.norm(steady_state(flow_res).mean) > 1e6

    def test_against_fock_oracle(self):
        omega_bar, gamma, nbar, wl = 2.0, 0.01, 0.0, 1.0
        r_bar = complex(rabi_renormalizations(SPEC_OHMIC, omega_bar, wl, 0.1,
                                              "off_resonant"))
        flow = flow_driven(omega_bar, gamma, nbar, r_bar, wl)
        cutoff = 30
        lindblad = QuadraticLindblad(
            [[omega_bar - wl]], [[2 * gamma * (nbar + 1)]],
            [[2 * gamma * nbar]], drive=[np.conj(r_bar)])
        rho0 = fock.vacuum_rho(cutoff)
        assert_matches_fock(flow, lindblad, cutoff, rho0, (2.0, 10.0, 40.0), 1e-6)


class TestEvolveAndSteady:
    @pytest.mark.parametrize("flow, state", [
        (flow_single(1.0, 0.05, 0.3), make_squeezed_vacuum(0.4)),
        (flow_driven(1.0, 0.07, 0.4, 0.2 + 0.1j, 0.6), make_coherent(0.5 - 0.3j)),
        (flow_two_small_beta((1.0, 1.2), 0.1, (0.05, 0.08), (0.2, 0.5)),
         tensor_product(make_coherent(0.3), make_thermal([1.2], 0.7))),
    ], ids=["single", "driven", "two_small"])
    def test_stacked_times_match_scipy_per_time(self, flow, state, monkeypatch):
        # one _flow_maps call for a (2, 4) grid of times whose doublings s run from 0
        # past 8, each time with its own s; t = 0 returns the input bits.  The
        # reference is scipy's exponential of the stacked generator of
        # (mean, vec C, 1), [[A, 0, c], [0, A (+) A, vec D], [0, 0, 0]], built here
        inputs = []

        def recorded(lindblad, t):
            inputs.append(t.copy())
            return _flow_maps(lindblad, t)

        monkeypatch.setattr(flows, "_flow_maps", recorded)
        times = np.array([[0.0, 0.3, 7.0, 40.0], [250.0, 0.0, 600.0, 900.0]])
        out = evolve_flow(flow, state, times)
        (stack,) = inputs
        assert stack.shape == (times.size,)
        bound = 2 * np.abs(flow.drift).sum(axis=0).max() / flows._THETA
        doublings = np.ceil(np.log2(np.maximum(stack * bound, 1e-300))).clip(0)
        assert doublings.min() == 0 and doublings.max() >= 8
        assert out.mean.shape == (2, 4, 2 * flow.n_modes)
        a, dim = flow.drift, 2 * flow.n_modes
        gen = np.zeros((dim + dim * dim + 1,) * 2)
        gen[:dim, :dim], gen[:dim, -1] = a, flow.mean_drift
        gen[dim:-1, dim:-1] = np.kron(a, np.eye(dim)) + np.kron(np.eye(dim), a)
        gen[dim:-1, -1] = flow.diffusion.ravel()
        s0 = np.concatenate([state.mean, state.cov.ravel(), [1.0]])
        for index, t in np.ndenumerate(times):
            if t == 0:
                assert out[index].mean.tobytes() == state.mean.tobytes()
                assert out[index].cov.tobytes() == state.cov.tobytes()
                continue
            ref = (expm(gen * t) @ s0)[:-1]
            got = np.concatenate([out[index].mean, out[index].cov.ravel()])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), t

    def test_identity_at_zero(self):
        flow = flow_single(1.0, 0.1, 0.2)
        st = make_coherent(0.4 + 0.2j)
        out = evolve_flow(flow, st, 0.0)
        np.testing.assert_allclose(out.mean, st.mean, atol=1e-15)
        np.testing.assert_allclose(out.cov, st.cov, atol=1e-15)

    def test_semigroup_property(self):
        flow = flow_driven(1.0, 0.07, 0.4, 0.2 + 0.1j, 0.6)
        st = make_squeezed_vacuum(0.6)
        t1, t2 = 2.3, 5.1
        once = evolve_flow(flow, st, t1 + t2)
        twice = evolve_flow(flow, evolve_flow(flow, st, t1), t2)
        np.testing.assert_allclose(once.mean, twice.mean, atol=1e-10)
        np.testing.assert_allclose(once.cov, twice.cov, atol=1e-10)

    def test_long_time_reaches_steady_state(self):
        gamma = 0.5
        flow = flow_driven(1.0, gamma, 0.3, 0.05, 0.9)
        ss = steady_state(flow)
        out = evolve_flow(flow, make_squeezed_vacuum(0.5), 20.0 / gamma)
        np.testing.assert_allclose(out.cov, ss.cov, atol=1e-8)
        np.testing.assert_allclose(out.mean, ss.mean, atol=1e-8)

    def test_steady_state_residual(self):
        flow = flow_two_small_beta((1.0, 1.1), 0.04, (0.03, 0.05), (0.6, 0.1))
        ss = steady_state(flow)
        resid = flow.drift @ ss.cov + ss.cov @ flow.drift.T + flow.diffusion
        assert np.abs(resid).max() <= 1e-10

    def test_non_hurwitz_rejected(self):
        flow = QuadraticLindblad([[1.0]], [[0.0]], [[0.0]])
        with pytest.raises(ArithmeticError):
            steady_state(flow)

    def test_complete_positivity_consequence(self):
        # every implemented flow keeps cov + i sigma >= -1e-8 along the way
        flows_and_states = [
            (flow_single(1.0, 0.05, 0.3), make_squeezed_vacuum(1.0)),
            (flow_two_small_beta((1.0, 1.0), 0.02, (0.05, 0.02), (0.4, 0.0)),
             tensor_product(make_squeezed_vacuum(0.8), make_coherent(0.5))),
            (flow_two_large_beta((SPEC_OHMIC, SPEC_OHMIC), (1.5, 0.1), 1.0, 0.25),
             tensor_product(make_thermal([1.0], 3.0), make_vacuum(1))),
            (flow_driven(1.0, 0.03, 0.2, 0.15 + 0.05j, 0.8),
             make_squeezed_vacuum(-0.7)),
        ]
        for flow, st in flows_and_states:
            for t in (0.0, 0.5, 2.0, 10.0, 50.0, 100.0):
                out = evolve_flow(flow, st, t)
                assert physicality_violation(out) >= -1e-8
