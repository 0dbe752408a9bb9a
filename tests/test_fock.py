import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import (alarm_after, assert_density_matrix, destroy, mode_operators,
                      squeezed_vacuum_rho)
from scipy.linalg import expm

from oscbath import fock
from oscbath.bath import OhmicSpectrum
from oscbath.flows import (QuadraticLindblad, flow_driven, flow_single, flow_two_large_beta,
                           flow_two_small_beta)


def purity(rho):
    return float(np.trace(rho @ rho).real)


def reference_superoperator(lindblad, cutoff):
    """The generator on row-major vec(rho) assembled from scipy.sparse Kronecker products.

    vec(A rho B) = (A kron B^T) vec(rho), so -i[H, .] maps to
    -i(H kron 1 - 1 kron H^T) and each dissipator term
    g (L . R^dag - {R^dag L, .}/2) to its three Kronecker pieces.  The
    reference that ``fock.build_superoperator``'s band-wise assembly is checked against.
    """
    n = lindblad.n_modes
    ops = [sp.csr_matrix(a) for a in mode_operators(n, cutoff)]
    d = (cutoff + 1) ** n
    eye = sp.identity(d, dtype=complex, format="csr")
    ham = sp.csr_matrix((d, d), dtype=complex)
    for j in range(n):
        for k in range(n):
            if lindblad.h[j, k] != 0:
                ham = ham + lindblad.h[j, k] * (ops[j].T.conj() @ ops[k])
    if lindblad.drive is not None:
        for j in range(n):
            ham = (ham + lindblad.drive[j] * ops[j].T.conj()
                   + np.conj(lindblad.drive[j]) * ops[j])

    lind = -1j * (sp.kron(ham, eye) - sp.kron(eye, ham.T))
    terms = []
    for j in range(n):
        for k in range(n):
            if lindblad.k_emit[j, k] != 0:
                terms.append((lindblad.k_emit[j, k], ops[j], ops[k]))
            if lindblad.k_abs[j, k] != 0:
                terms.append((lindblad.k_abs[j, k], ops[j].T.conj(), ops[k].T.conj()))
    for g, left, right in terms:
        rdl = right.T.conj() @ left
        lind = lind + g * (sp.kron(left, right.conj())
                           - 0.5 * (sp.kron(rdl, eye) + sp.kron(eye, rdl.T)))
    return sp.csr_matrix(lind)


def reference_moments(rho, n_modes, cutoff):
    """Mean and covariance from traces of rho times dense ladder products.

    The reference that ``fock.moments``, which reads them off diagonals of
    rho, is checked against.
    """
    ops = mode_operators(n_modes, cutoff)
    amps = np.array([np.trace(rho @ op) for op in ops])
    mean = np.concatenate([np.sqrt(2.0) * amps.real, np.sqrt(2.0) * amps.imag])
    nmat = np.zeros((n_modes, n_modes), dtype=complex)
    mmat = np.zeros((n_modes, n_modes), dtype=complex)
    for j in range(n_modes):
        for k in range(n_modes):
            nmat[j, k] = np.trace(rho @ ops[j].T.conj() @ ops[k]) - np.conj(amps[j]) * amps[k]
            mmat[j, k] = np.trace(rho @ ops[j] @ ops[k]) - amps[j] * amps[k]
    cxx = np.eye(n_modes) + 2.0 * (nmat.real + mmat.real)
    cpp = np.eye(n_modes) + 2.0 * (nmat.real - mmat.real)
    cxp = 2.0 * (mmat.imag + nmat.imag)
    cov = np.block([[cxx, cxp], [cxp.T, cpp]])
    return mean, 0.5 * (cov + cov.T)


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
        # adds g {R^dag L, .} to the canonical one
        a = sp.csr_matrix(destroy(9))
        eye = sp.identity(9, format="csr")
        extra = sp.csr_matrix((81, 81))
        for g, left in ((0.1, a), (0.02, a.T)):
            rdl = left.T @ left  # R = L (diagonal rates) and real ladders: R^dag L = L^T L
            extra = extra + g * (sp.kron(rdl, eye) + sp.kron(eye, rdl.T))
        vec = fock.thermal_rho(0.5, 8).ravel()
        trace_rate = np.trace((lind_ok @ vec + extra @ vec).reshape(9, 9))
        assert abs(trace_rate) > 1e-3  # the canonical form keeps this at 0
        assert abs(np.trace((lind_ok @ vec).reshape(9, 9))) < 1e-14

    def test_spec_validation(self):
        # the referee's own limits; the generator's checks live in QuadraticLindblad
        with pytest.raises(ValueError, match="1 or 2 modes"):
            fock.build_superoperator(
                QuadraticLindblad(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))), 8)
        with pytest.raises(ValueError, match="cutoff"):
            fock.build_superoperator(QuadraticLindblad([[1.0]], [[0.1]], [[0.0]]), 3)
        with pytest.raises(ValueError, match="above the referee"):
            fock.build_superoperator(
                QuadraticLindblad(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))), 30)
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
        rho0 = squeezed_vacuum_rho(0.4, 10)
        for t in (1.0, 10.0):
            rho = fock.integrate(lindblad, 10, rho0, [t])[0]
            assert abs(np.trace(rho).real - 1.0) < 1e-9 * max(t, 1.0)

    def test_positivity_maintained(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.3]], [[0.09]])
        rho0 = fock.coherent_rho(0.8, 12)
        for t in (0.7, 5.0):
            rho = fock.integrate(lindblad, 12, rho0, [t])[0]
            assert_density_matrix(rho, herm_tol=1e-11, trace_tol=1e-9, eig_tol=-1e-7)

    @pytest.mark.parametrize("case", ["nan_state", "overflowing_generator"])
    def test_non_finite_integration_raises(self, case):
        lindblad = QuadraticLindblad([[1.0]], [[0.1]], [[0.0]])
        rho0 = fock.coherent_rho(0.3, 6)
        if case == "nan_state":
            rho0[1, 2] = np.nan
        else:  # a finite absorption rate whose superoperator entries overflow
            lindblad = QuadraticLindblad([[1.0]], [[0.0]], [[5e307]])
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            fock.integrate(lindblad, 6, rho0, [0.5])

    def test_endless_integration_is_refused_at_once(self):
        # t = 1e300 would plan ~1e300 Taylor substeps; the alarm ends the test if any are taken
        with alarm_after(10), pytest.raises(ValueError, match="substeps"):
            fock.integrate(QuadraticLindblad([[1]], [[0.1]], [[0]]), 6,
                           fock.vacuum_rho(6), [1e300])

    def test_oracle_cap_case_on_all_of_vec_rho_is_refused_at_once(self, monkeypatch):
        # the oracle's cap case (two_small, gamma = 5, t = 14 at cutoff 14) plans
        # 1 724 substeps; on all 50 625 entries of vec(rho) that is above
        # MAX_WORK, so integrate refuses it before taking any substep
        planned = []

        def count(lind, h, steps, y):
            planned.append(steps)
            return y

        monkeypatch.setattr(fock, "_taylor_action", count)
        lindblad = flow_two_small_beta((1.0, 1.0), 0.05, (5.0, 5.0), (0.2, 0.2))
        rho0 = np.kron(fock.coherent_rho(0.3, 14), fock.thermal_rho(0.2, 14))
        with pytest.raises(ValueError, match="1.72e\\+03 Taylor substeps on 50625 entries"):
            fock.integrate(lindblad, 14, rho0, [14.0])
        assert planned == []

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

    def test_coherent_rho_is_the_displaced_vacuum(self):
        # closed-form amplitudes against D(alpha)|0> from a much larger
        # truncation, where the edge does not reach the kept levels
        alpha = 0.7 + 0.4j
        a = destroy(80)
        ket = expm(alpha * a.T - np.conj(alpha) * a)[:21, 0]
        ket /= np.linalg.norm(ket)
        np.testing.assert_allclose(fock.coherent_rho(alpha, 20), np.outer(ket, ket.conj()),
                                   atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 2.0 + 1.0j, -10.0j, 25.0, -17.0 + 18.0j])
    def test_coherent_rho_matches_the_direct_product(self, alpha):
        # the log-space amplitudes against e^{-|alpha|^2/2} alpha^n / sqrt(n!) by
        # running products, where those are finite
        amps = np.ones(21, dtype=complex)
        for n in range(1, 21):
            amps[n] = amps[n - 1] * alpha / np.sqrt(n)
        amps *= np.exp(-0.5 * abs(alpha) ** 2)
        amps /= np.linalg.norm(amps)
        np.testing.assert_allclose(fock.coherent_rho(alpha, 20), np.outer(amps, amps.conj()),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("alpha", [30.0, 100.0, 1e5 - 1e5j])
    def test_coherent_rho_at_large_amplitude(self, alpha):
        # e^{-|alpha|^2/2} and the squared norm underflow here; the state must not
        rho = fock.coherent_rho(alpha, 20)
        assert np.isfinite(rho).all()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.abs(np.diagonal(rho)).argmax() == 20  # weight piles at the edge

    def test_thermal_state(self):
        nbar = 0.6
        mean, cov = fock.moments(fock.thermal_rho(nbar, 60), 1, 60)
        np.testing.assert_allclose(cov, (2 * nbar + 1) * np.eye(2), atol=1e-8)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation"):
            fock.moments(fock.coherent_rho(2.5, 6), 1, 6)

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    def test_matches_dense_reference(self, n_modes, cutoff):
        rng = np.random.default_rng(31 + n_modes)
        levels = np.arange(cutoff + 1)
        weight = np.exp(-5.0 * (np.add.outer(levels, levels) if n_modes == 2 else levels))
        rho = random_rho(rng, (cutoff + 1) ** n_modes)
        rho *= np.sqrt(np.outer(weight.ravel(), weight.ravel()))  # little weight at the edge
        rho /= np.trace(rho).real
        mean, cov = fock.moments(rho, n_modes, cutoff)
        ref_mean, ref_cov = reference_moments(rho, n_modes, cutoff)
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", [0, 1])
    def test_truncation_warning_names_the_mode(self, mode):
        # the top level of one mode of a product state, and only that one
        states = [fock.vacuum_rho(5), fock.vacuum_rho(5)]
        states[mode] = np.zeros((6, 6), complex)
        states[mode][5, 5] = 1.0
        with pytest.warns(UserWarning) as record:
            fock.moments(np.kron(*states), 2, 5)
        assert [str(w.message).split(" occupies")[0] for w in record] == [f"mode {mode}"]


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


class TestBandedAssembly:
    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("drive", [False, True])
    def test_action_matches_kronecker_reference(self, n_modes, cutoff, drive):
        rng = np.random.default_rng(3 + n_modes + 2 * drive)
        lindblad = random_generator(rng, n_modes, drive)
        lind = fock.build_superoperator(lindblad, cutoff)
        ref = reference_superoperator(lindblad, cutoff)
        for _ in range(3):
            vec = rng.normal(size=ref.shape[0]) + 1j * rng.normal(size=ref.shape[0])
            expect = ref @ vec
            assert np.abs(lind @ vec - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    def test_norm1_matches_reference(self, n_modes, cutoff):
        rng = np.random.default_rng(9)
        lindblad = random_generator(rng, n_modes, drive=True)
        ref = abs(reference_superoperator(lindblad, cutoff)).sum(axis=0).max()
        assert fock.build_superoperator(lindblad, cutoff).norm1() == pytest.approx(ref, rel=1e-14)


def linked_grades(lind, grade):
    """Grades of the row and column of every nonzero entry of a banded L."""
    band, i = np.nonzero(lind.values)
    return grade[lind.keep[i]], grade[lind.keep[lind.reads[band, i]]]


class TestNumberDifferenceGrading:
    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    def test_drive_free_generator_conserves_number_difference(self, n_modes, cutoff):
        # the premise of the block evolve_moments evolves: every nonzero entry
        # of every stored band links vec entries with equal n_row - n_col;
        # levels from arange, not from diag(a^dag a)
        levels = np.arange(cutoff + 1)
        if n_modes == 2:
            levels = np.add.outer(levels, levels).ravel()
        grade = np.subtract.outer(levels, levels).ravel()
        rng = np.random.default_rng(5)
        lind = fock.build_superoperator(random_generator(rng, n_modes), cutoff)
        row_grade, col_grade = linked_grades(lind, grade)
        assert row_grade.size > 0
        np.testing.assert_array_equal(row_grade, col_grade)
        # a drive breaks the grading, which is why driven runs evolve all of vec(rho)
        driven = fock.build_superoperator(random_generator(rng, n_modes, drive=True), cutoff)
        row_grade, col_grade = linked_grades(driven, grade)
        assert np.any(row_grade != col_grade)

    @pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("drive", [False, True])
    def test_matches_dense_exponential(self, n_modes, cutoff, drive):
        rng = np.random.default_rng(11 + n_modes + 2 * drive)
        lindblad = random_generator(rng, n_modes, drive)
        d = (cutoff + 1) ** n_modes
        rho0 = random_rho(rng, d)
        dense = reference_superoperator(lindblad, cutoff).toarray()
        times = [0.3, 1.1, 2.5]
        rhos = fock.integrate(lindblad, cutoff, rho0, times)
        for t, rho in zip(times, rhos):
            ref = (expm(t * dense) @ rho0.ravel()).reshape(d, d)
            assert np.abs(rho - ref).max() < 1e-12


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
            assert np.abs(rho - fock.integrate(lindblad, 6, rho0, [t])[0]).max() < 1e-12

    @pytest.mark.parametrize("times", [[-0.5], [0.0, -1.0], [2.0, 1.0], [[1.0, 2.0]],
                                       [np.nan], 1.0])
    def test_bad_times_rejected(self, times):
        lindblad = QuadraticLindblad([[1.0]], [[0.1]], [[0.0]])
        with pytest.raises(ValueError, match="times"):
            fock.integrate(lindblad, 6, fock.vacuum_rho(6), times)


def oracle_generators():
    """One generator of each oracle family, with the CLI's default parameters."""
    spectrum = OhmicSpectrum(0.01, 3.0)
    return {
        "single": flow_single(1.0, 0.08, 0.2),
        "two_small": flow_two_small_beta((1.0, 1.0), 0.05, (0.08, 0.08), (0.2, 0.2)),
        "two_large": flow_two_large_beta((spectrum, spectrum), (1.0, 0.5), 1.0, 0.3),
        "driven": flow_driven(1.0, 0.08, 0.2, 0.1 + 0.05j, 0.8),
    }


def oracle_state(lindblad, cutoff):
    rho0 = fock.coherent_rho(0.4 - 0.2j, cutoff)
    if lindblad.n_modes == 2:
        rho0 = np.kron(rho0, fock.thermal_rho(0.2, cutoff))
    return rho0


class TestEvolveMoments:
    @pytest.mark.parametrize("family", ["single", "two_small", "two_large", "driven"])
    def test_matches_integrate_and_moments(self, family):
        lindblad = oracle_generators()[family]
        cutoff = 12 if lindblad.n_modes == 1 else 8
        rho0 = oracle_state(lindblad, cutoff)
        times = [0.0, 0.0, 0.8, 3.0, 3.0, 7.5]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the same edge warnings on both paths
            means, covs, traces = fock.evolve_moments(lindblad, cutoff, rho0, times)
            rhos = fock.integrate(lindblad, cutoff, rho0, times)
            assert means.shape == (6, 2 * lindblad.n_modes)
            for mean, cov, trace, rho in zip(means, covs, traces, rhos):
                ref_mean, ref_cov = fock.moments(rho, lindblad.n_modes, cutoff)
                np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-13)
                np.testing.assert_allclose(cov, ref_cov, rtol=0, atol=1e-13)
                assert abs(trace - np.trace(rho).real) <= 1e-13
        np.testing.assert_array_equal(covs[3], covs[4])

    def test_edge_weight_warns_as_integrate_does(self):
        lindblad = oracle_generators()["two_small"]
        rho0 = np.kron(fock.coherent_rho(1.6, 6), fock.thermal_rho(0.2, 6))
        with pytest.warns(UserWarning) as block:
            fock.evolve_moments(lindblad, 6, rho0, [0.5])
        with pytest.warns(UserWarning) as full:
            fock.moments(fock.integrate(lindblad, 6, rho0, [0.5])[0], 2, 6)
        assert [str(w.message) for w in block] == [str(w.message) for w in full]
        assert "mode 0 occupies the truncation edge" in str(block[0].message)

    def test_generator_breaking_the_grading_raises(self):
        # a generator whose superoperator links the kept sectors to dropped
        # ones must fail loudly, never give moments of a wrong block
        levels = np.arange(7)
        grade = np.subtract.outer(levels, levels).ravel()
        keep = np.flatnonzero((grade >= 0) & (grade <= 2))
        with pytest.raises(ValueError, match="kept and dropped"):
            fock.build_superoperator(oracle_generators()["driven"], 6, keep)

    def test_drive_free_block_is_invariant(self):
        # the block the moments read (n_row - n_col in {0, 1, 2}) and nothing
        # else: the Kronecker reference's kept rows read no dropped column, and
        # the block built on them is the reference restricted to them
        rng = np.random.default_rng(2)
        lindblad = random_generator(rng, 2)
        levels = np.add.outer(np.arange(5), np.arange(5)).ravel()
        grade = np.subtract.outer(levels, levels).ravel()
        keep = np.flatnonzero((grade >= 0) & (grade <= 2))
        kept_rows = reference_superoperator(lindblad, 4)[keep]
        dropped = np.setdiff1d(np.arange(grade.size), keep)
        assert kept_rows[:, dropped].count_nonzero() == 0
        ref = kept_rows[:, keep]
        block = fock.build_superoperator(lindblad, 4, keep)
        for _ in range(3):
            vec = rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size)
            expect = ref @ vec
            assert np.abs(block @ vec - expect).max() <= 1e-14 * np.abs(expect).max()
        assert block.norm1() == pytest.approx(abs(ref).sum(axis=0).max(), rel=1e-14)

    @pytest.mark.parametrize("family", ["single", "two_small"])
    def test_non_finite_initial_state_outside_the_block_raises(self, family):
        # rho[0, 1] has n_row - n_col = -1, an entry the block drops
        lindblad = oracle_generators()[family]
        rho0 = oracle_state(lindblad, 6)
        rho0[0, 1] = np.nan
        with pytest.raises(ArithmeticError, match="non-finite"):
            fock.evolve_moments(lindblad, 6, rho0, [0.5])

    def test_overflowing_generator_raises(self):
        lindblad = QuadraticLindblad([[1.0]], [[0.0]], [[5e307]])
        with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            fock.evolve_moments(lindblad, 6, fock.vacuum_rho(6), [0.5])

    def test_size_and_time_limits_hold(self):
        two = QuadraticLindblad(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="above the referee"):
            fock.evolve_moments(two, 30, np.eye(1), [1.0])
        with pytest.raises(ValueError, match="substeps"):
            fock.evolve_moments(QuadraticLindblad([[1]], [[0.1]], [[0]]), 6,
                                fock.vacuum_rho(6), [1e300])
        with pytest.raises(ValueError, match="times"):
            fock.evolve_moments(QuadraticLindblad([[1]], [[0.1]], [[0]]), 6,
                                fock.vacuum_rho(6), [2.0, 1.0])

    def test_oracle_cap_case_is_within_the_substep_bound(self, monkeypatch):
        # the oracle's cap case (two_small, gamma = 5, t = 14 at cutoff 14) must
        # stay within both bounds on the block the moments read: count its
        # planned substeps and evolved entries without taking a substep
        planned, sizes = [], set()

        def count(lind, h, steps, y):
            planned.append(steps)
            sizes.add(lind.size)
            return y

        monkeypatch.setattr(fock, "_taylor_action", count)
        lindblad = flow_two_small_beta((1.0, 1.0), 0.05, (5.0, 5.0), (0.2, 0.2))
        rho0 = np.kron(fock.coherent_rho(0.3, 14), fock.thermal_rho(0.2, 14))
        fock.evolve_moments(lindblad, 14, rho0, [14.0])
        assert 1000 < sum(planned) <= fock.MAX_SUBSTEPS
        assert sizes == {6693}
        assert sum(planned) * 6693 <= fock.MAX_WORK
