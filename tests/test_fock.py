import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from oscbath import fock
from oscbath.flows import QuadraticLindblad


def purity(rho):
    return float(np.trace(rho @ rho).real)


class TestSuperoperator:
    def test_zero_rates_pure_commutator(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.0]], [[0.0]])
        rho0 = fock.coherent_rho(0.6, 10)
        rho = fock.integrate(lindblad, 10, rho0, [2.4])[0]
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert purity(rho) == pytest.approx(purity(rho0), abs=1e-9)

    def test_vacuum_fixed_point_at_zero_temperature(self):
        lind = fock.build_superoperator(QuadraticLindblad([[1.0]], [[0.1]], [[0.0]]), 8)
        vac = fock.vacuum_rho(8)
        assert np.abs(lind @ vac.ravel()).max() < 1e-14

    def test_action_matches_hand_assembled_instance(self):
        # damped oscillator on a test matrix, expanded by hand with the
        # sqrt(n) ladder elements: (a rho a^dag)_{nm} = sqrt((n+1)(m+1)) rho_{n+1,m+1}
        cutoff = 4
        omega, ge, ga = 1.3, 0.22, 0.06
        lind = fock.build_superoperator(QuadraticLindblad([[omega]], [[ge]], [[ga]]), cutoff)
        rng = np.random.default_rng(0)
        rho = np.zeros((5, 5), complex)
        block = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho[:3, :3] = block + block.T.conj()  # support below the truncation edge

        out = (lind @ rho.ravel()).reshape(5, 5)
        nvec = np.arange(5.0)
        expect = np.zeros((5, 5), complex)
        for n in range(5):
            for m in range(5):
                val = -1j * omega * (n - m) * rho[n, m]
                if n + 1 < 5 and m + 1 < 5:
                    val += ge * np.sqrt((n + 1) * (m + 1)) * rho[n + 1, m + 1]
                val -= 0.5 * ge * (nvec[n] + nvec[m]) * rho[n, m]
                if n >= 1 and m >= 1:
                    val += ga * np.sqrt(n * m) * rho[n - 1, m - 1]
                val -= 0.5 * ga * ((n + 1) + (m + 1)) * rho[n, m]
                expect[n, m] = val
        np.testing.assert_allclose(out, expect, atol=1e-13)

    def test_literal_plus_sign_breaks_trace_preservation(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.1]], [[0.02]])
        lind_ok = fock.build_superoperator(lindblad, 8)
        # the literal form g (L . R^dag + {R^dag L, .}/2) of each dissipator term
        a = sp.csr_matrix(fock.destroy(9))
        eye = sp.identity(9, format="csr")
        lind = lind_ok
        for g, left in ((0.1, a), (0.02, a.T)):
            rdl = left.T @ left  # R = L (diagonal rates) and real ladders: R^dag L = L^T L
            lind = lind + g * (sp.kron(rdl, eye) + sp.kron(eye, rdl.T))
        rho = fock.thermal_rho(0.5, 8)
        trace_rate = np.trace((lind @ rho.ravel()).reshape(9, 9))
        assert abs(trace_rate) > 1e-3  # the canonical form keeps this at 0
        assert abs(np.trace((lind_ok @ rho.ravel()).reshape(9, 9))) < 1e-14

    def test_spec_validation(self):
        # the referee's own limits; the generator's checks live in QuadraticLindblad
        with pytest.raises(ValueError, match="1 or 2 modes"):
            fock.build_superoperator(
                QuadraticLindblad(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))), 8)
        with pytest.raises(ValueError, match="cutoff"):
            fock.build_superoperator(QuadraticLindblad([[1.0]], [[0.1]], [[0.0]]), 3)
        with pytest.raises(ValueError, match="rho0"):
            fock.integrate(QuadraticLindblad([[1.0]], [[0.1]], [[0.0]]), 8,
                           fock.vacuum_rho(6), [1.0])


class TestIntegrate:
    def test_zero_time_returns_input(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.1]], [[0.0]])
        rho0 = fock.coherent_rho(0.3, 6)
        np.testing.assert_array_equal(fock.integrate(lindblad, 6, rho0, [0.0])[0], rho0)

    def test_single_excitation_decay(self):
        # <n>(t) = exp(-2 gamma t) from the adjoint equation at nbar = 0
        gamma = 0.15
        cutoff = 6
        lindblad = QuadraticLindblad([[1.0]], [[2 * gamma]], [[0.0]])
        rho0 = np.zeros((7, 7), complex)
        rho0[1, 1] = 1.0
        num = np.diag(np.arange(7.0))
        for t in (0.5, 2.0, 6.0):
            rho = fock.integrate(lindblad, cutoff, rho0, [t])[0]
            n_t = np.trace(rho @ num).real
            assert n_t == pytest.approx(np.exp(-2 * gamma * t), abs=1e-9)

    def test_trace_preserved_along_integration(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.2]], [[0.05]])
        rho0 = fock.squeezed_vacuum_rho(0.4, 10)
        for t in (1.0, 10.0):
            rho = fock.integrate(lindblad, 10, rho0, [t])[0]
            assert abs(np.trace(rho).real - 1.0) < 1e-9 * max(t, 1.0)

    def test_positivity_maintained(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.3]], [[0.09]])
        rho0 = fock.coherent_rho(0.8, 12)
        for t in (0.7, 5.0):
            rho = fock.integrate(lindblad, 12, rho0, [t])[0]
            fock.assert_density_matrix(rho, herm_tol=1e-11, trace_tol=1e-9,
                                       eig_tol=-1e-7)

    def test_cutoff_convergence(self):
        gamma, nbar = 0.1, 0.3
        moments_by_cutoff = []
        lindblad = QuadraticLindblad([[1.0]], [[2 * gamma * (nbar + 1)]],
                                     [[2 * gamma * nbar]])
        for cutoff in (14, 28):
            rho = fock.integrate(lindblad, cutoff, fock.coherent_rho(0.3, cutoff), [4.0])[0]
            moments_by_cutoff.append(fock.moments(rho, 1, cutoff))
        (m1, c1), (m2, c2) = moments_by_cutoff
        assert np.abs(m1 - m2).max() < 1e-7
        assert np.abs(c1 - c2).max() < 1e-7


class TestMoments:
    def test_vacuum(self):
        mean, cov = fock.moments(fock.vacuum_rho(8), 1, 8)
        np.testing.assert_allclose(mean, np.zeros(2), atol=1e-14)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-12)

    def test_coherent_state(self):
        # our quadrature normalization carries sqrt(2) * (Re, Im) means
        beta_c = 0.4 - 0.25j
        mean, cov = fock.moments(fock.coherent_rho(beta_c, 25), 1, 25)
        np.testing.assert_allclose(
            mean, [np.sqrt(2) * beta_c.real, np.sqrt(2) * beta_c.imag], atol=1e-10)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-9)

    def test_thermal_state(self):
        nbar = 0.6
        mean, cov = fock.moments(fock.thermal_rho(nbar, 60), 1, 60)
        np.testing.assert_allclose(cov, (2 * nbar + 1) * np.eye(2), atol=1e-8)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation"):
            fock.moments(fock.coherent_rho(2.5, 6), 1, 6)


def random_generator(rng, n_modes, drive=False):
    """Drive-free (or driven) generator with unequal frequencies and full K matrices."""
    a = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    h = 0.3 * (a + a.T.conj()) + np.diag(1.0 + np.arange(n_modes))
    ks = []
    for scale in (0.1, 0.04):
        b = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
        ks.append(scale * b @ b.T.conj())
    f = 0.2 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)) if drive else None
    return QuadraticLindblad(h, ks[0], ks[1], drive=f)


def random_rho(rng, d):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = b @ b.T.conj()
    return rho / np.trace(rho).real


class TestRotatingFrame:
    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    def test_drive_free_generator_conserves_number_difference(self, n_modes, cutoff):
        # the premise of the frame split: every stored entry of L links vec
        # entries with equal n_row - n_col; levels from arange, not from diag(a^dag a)
        levels = np.arange(cutoff + 1)
        if n_modes == 2:
            levels = np.add.outer(levels, levels).ravel()
        grade = np.subtract.outer(levels, levels).ravel()
        rng = np.random.default_rng(5)
        lind = fock.build_superoperator(random_generator(rng, n_modes), cutoff).tocoo()
        assert lind.nnz > 0
        np.testing.assert_array_equal(grade[lind.row], grade[lind.col])
        # a drive breaks the grading, which is why driven runs use no frame
        driven = fock.build_superoperator(
            random_generator(rng, n_modes, drive=True), cutoff).tocoo()
        assert np.any(grade[driven.row] != grade[driven.col])

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("drive", [False, True])
    def test_matches_dense_exponential(self, n_modes, cutoff, drive):
        rng = np.random.default_rng(11 + n_modes + 2 * drive)
        lindblad = random_generator(rng, n_modes, drive)
        d = (cutoff + 1) ** n_modes
        rho0 = random_rho(rng, d)
        dense = fock.build_superoperator(lindblad, cutoff).toarray()
        times = [0.3, 1.1, 2.5]
        rhos = fock.integrate(lindblad, cutoff, rho0, times)
        for t, rho in zip(times, rhos):
            ref = (expm(t * dense) @ rho0.ravel()).reshape(d, d)
            assert np.abs(rho - ref).max() < 1e-9


class TestTimeGrid:
    @pytest.mark.parametrize("drive", [False, True])
    def test_grid_matches_separate_calls(self, drive):
        rng = np.random.default_rng(23)
        lindblad = random_generator(rng, 2, drive)
        rho0 = np.kron(fock.coherent_rho(0.3, 6), fock.thermal_rho(0.2, 6))
        times = [0.0, 0.4, 1.5, 1.5, 4.0]
        rhos = fock.integrate(lindblad, 6, rho0, times)
        assert rhos.shape == (5, 49, 49)
        np.testing.assert_array_equal(rhos[0], rho0)
        np.testing.assert_array_equal(rhos[2], rhos[3])
        for t, rho in zip(times, rhos):
            assert np.abs(rho - fock.integrate(lindblad, 6, rho0, [t])[0]).max() < 1e-9

    @pytest.mark.parametrize("times", [[-0.5], [0.0, -1.0], [2.0, 1.0], [[1.0, 2.0]],
                                       [np.nan], 1.0])
    def test_bad_times_rejected(self, times):
        lindblad = QuadraticLindblad([[1.0]], [[0.1]], [[0.0]])
        with pytest.raises(ValueError, match="times"):
            fock.integrate(lindblad, 6, fock.vacuum_rho(6), times)
