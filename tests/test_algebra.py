import numpy as np
import pytest

from entquant import (
    apply_local_unitary,
    expectation_value,
    pauli_operator,
    pure_to_density,
    random_density,
    random_pure,
    random_unitary,
    tensor_product,
    validate_density,
)
from entquant.algebra import _validate_density
from entquant.errors import (
    BadTrace,
    NegativeEigenvalue,
    NonHermitianObservable,
    NonUnitary,
    NotHermitian,
    NotNormalized,
)

SQ2 = 1.0 / np.sqrt(2.0)


class TestPauliOperators:
    def test_z_is_diagonal_with_h_plus(self):
        z = pauli_operator(3)
        np.testing.assert_allclose(z, np.diag([1, -1]))
        np.testing.assert_allclose(z @ [1, 0], [1, 0])  # sigma_3 |H> = +|H>

    def test_x_flips_h_to_v(self):
        x = pauli_operator(1)
        np.testing.assert_allclose(x, [[0, 1], [1, 0]])
        np.testing.assert_allclose(x @ [1, 0], [0, 1])

    def test_identity(self):
        np.testing.assert_allclose(pauli_operator(0), np.eye(2))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            pauli_operator(4)

    def test_squares_to_identity_and_anticommutes(self):
        for i in (1, 2, 3):
            si = pauli_operator(i)
            np.testing.assert_allclose(si @ si, np.eye(2), atol=1e-12)
            for j in (1, 2, 3):
                if i != j:
                    sj = pauli_operator(j)
                    np.testing.assert_allclose(si @ sj + sj @ si, 0 * si, atol=1e-12)


class TestTensorProduct:
    def test_identity_tensor_identity(self):
        np.testing.assert_allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_zz_diagonal(self):
        zz = tensor_product(pauli_operator(3), pauli_operator(3))
        np.testing.assert_allclose(zz, np.diag([1, -1, -1, 1]))

    def test_xx_swaps_hh_to_vv(self):
        xx = tensor_product(pauli_operator(1), pauli_operator(1))
        np.testing.assert_allclose(xx @ [1, 0, 0, 0], [0, 0, 0, 1])


class TestExpectationValue:
    def test_singlet_zz_anticorrelated(self, singlet):
        zz = tensor_product(pauli_operator(3), pauli_operator(3))
        assert expectation_value(singlet, zz) == pytest.approx(-1.0, abs=1e-12)

    def test_hh_z_marginal(self, rho_hh):
        zi = tensor_product(pauli_operator(3), pauli_operator(0))
        assert expectation_value(rho_hh, zi) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_traceless_observable(self, maximally_mixed):
        for i, j in ((1, 2), (3, 0), (2, 2)):
            m = tensor_product(pauli_operator(i), pauli_operator(j))
            assert expectation_value(maximally_mixed, m) == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_observable_rejected(self, singlet):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1e-3
        with pytest.raises(NonHermitianObservable):
            expectation_value(singlet, bad)

    def test_linear_in_observable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = random_density(rng)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = a + a.conj().T
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = b + b.conj().T
            x, y = rng.normal(), rng.normal()
            lhs = expectation_value(rho, x * a + y * b)
            rhs = x * expectation_value(rho, a) + y * expectation_value(rho, b)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestPureToDensity:
    def test_hh_projector(self):
        rho = pure_to_density(np.array([1, 0, 0, 0]))
        np.testing.assert_allclose(rho, np.diag([1, 0, 0, 0]))

    def test_singlet_purity_one(self, singlet):
        assert np.trace(singlet @ singlet).real == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            pure_to_density(np.array([0.5, 0, 0, 0]))
        with pytest.raises(NotNormalized):
            pure_to_density(np.array([np.nan, 0, 0, 0]))


class TestApplyLocalUnitary:
    def test_identity_is_noop(self, singlet):
        out = apply_local_unitary(singlet, np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, singlet, atol=1e-14)

    def test_hwp45_on_both_arms_maps_hh_to_vv(self, rho_hh):
        # HWP(45 deg) Jones matrix per the package convention, built here
        # from scratch: [[cos 90, sin 90], [sin 90, -cos 90]] = X
        hwp45 = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_local_unitary(rho_hh, hwp45, hwp45)
        np.testing.assert_allclose(out, np.diag([0, 0, 0, 1]), atol=1e-12)

    def test_spectrum_preserved(self, singlet):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = random_density(rng)
            out = apply_local_unitary(rho, random_unitary(rng), random_unitary(rng))
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-10
            )
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_non_unitary_rejected(self, singlet):
        with pytest.raises(NonUnitary):
            apply_local_unitary(singlet, 2 * np.eye(2), np.eye(2))


class TestValidateDensity:
    def test_accepts_valid_mixture(self):
        validate_density(np.diag([0.5, 0.5, 0, 0]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            validate_density(np.diag([1.1, -0.1, 0, 0]).astype(complex))

    def test_non_hermitian_rejected(self):
        m = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitian):
            validate_density(m, tol=1e-10)

    def test_bad_trace_rejected(self):
        with pytest.raises(BadTrace):
            validate_density(np.diag([0.6, 0.6, 0, 0]).astype(complex))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(4) / 4, tol=0.0)

    @pytest.mark.parametrize(
        "bad,error",
        [(np.diag([1.1, -0.1, 0, 0]), NegativeEigenvalue), (np.diag([0.6, 0.6, 0, 0]), BadTrace)],
    )
    def test_stack_is_checked_matrix_by_matrix(self, bad, error):
        good = np.eye(4, dtype=complex) / 4
        validate_density(np.stack([good, good]))
        with pytest.raises(error):
            validate_density(np.stack([good, bad.astype(complex), good]))


    @pytest.mark.parametrize(
        "bad,error",
        [
            (np.diag([1.1, -0.1, 0, 0]), NegativeEigenvalue),
            (np.diag([0.6, 0.6, 0, 0]), BadTrace),
            (np.diag([0.5, 0.5, 0, 0]) + 1e-3 * np.eye(4, k=1), NotHermitian),
            (np.stack([np.eye(4) / 4, np.diag([0.7, 0.4, -0.05, -0.05])]), NegativeEigenvalue),
        ],
    )
    def test_known_spectrum_raises_the_same_errors(self, bad, error):
        """With the spectrum given, the eigenvalue check reads it instead of
        solving, and each violation is raised with validate_density's message."""
        bad = bad.astype(complex)
        w = np.linalg.eigvalsh((bad + bad.conj().swapaxes(-1, -2)) / 2)
        with pytest.raises(error) as solved:
            validate_density(bad)
        with pytest.raises(error) as known:
            _validate_density(bad, w)
        assert str(known.value) == str(solved.value)

    def test_eigenvalue_check_reads_the_given_spectrum(self):
        good = np.eye(4, dtype=complex) / 4
        assert _validate_density(good, np.full(4, 0.25)) is good
        with pytest.raises(NegativeEigenvalue, match=r"^minimum eigenvalue -2\.000e-08 below -1\.0e-08$"):
            _validate_density(good, np.array([-2e-8, 0.25, 0.25, 0.5]))
        _validate_density(good, np.array([-2e-8, 0.25, 0.25, 0.5]), eig_tol=1e-7)


class TestRandomStates:
    def test_same_seed_reproduces(self):
        np.testing.assert_array_equal(random_pure(42), random_pure(42))
        np.testing.assert_array_equal(random_density(42), random_density(42))
        np.testing.assert_array_equal(random_unitary(42), random_unitary(42))

    def test_random_density_passes_invariants_many_draws(self):
        for seed in range(10_000):
            validate_density(random_density(seed), tol=1e-10)

    def test_random_pure_normalized_many_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            psi = random_pure(rng)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_mean_purity_of_pure_states_is_one(self):
        rng = np.random.default_rng(5)
        purities = []
        for _ in range(1000):
            rho = pure_to_density(random_pure(rng))
            purities.append(np.trace(rho @ rho).real)
        assert np.mean(purities) == pytest.approx(1.0, abs=1e-12)

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            u = random_unitary(rng)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
