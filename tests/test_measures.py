import numpy as np
import pytest

from entquant import (
    SchmidtCoeffs,
    apply_local_unitary,
    concurrence,
    concurrence_from_g,
    covariance,
    covariance_matrix,
    g_from_concurrence,
    g_measure,
    k_measure,
    k_observables,
    k_separable_bound,
    lur_sum,
    mixed_state_bounds,
    pauli_operator,
    pure_to_density,
    random_density,
    random_pure,
    random_unitary,
    tensor_product,
)
from entquant.errors import BadTrace, IdentityIndexNotAllowed, NonHermitianObservable, NotHermitian, OutOfRange
from entquant.measures import LurSpec, pauli_expectation_matrix, pauli_lur_spec

from conftest import random_qubit_density

SQ2 = 1.0 / np.sqrt(2.0)


def concurrence_by_eigensolve(rho: np.ndarray) -> float:
    """Independent oracle: eigenvalues of the non-normal product rho rho~."""
    yy = np.kron(pauli_operator(2), pauli_operator(2))
    lam = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    lam = np.sort(np.abs(lam.real))[::-1]
    roots = np.sqrt(lam)
    return max(0.0, roots[0] - roots[1] - roots[2] - roots[3])


def concurrence_by_sqrt_product(rho: np.ndarray) -> float:
    """The sqrt(rho) YY sqrt(rho)* form that concurrence used before its tau
    form: three 4x4 products and their singular values."""
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    s = np.linalg.svd(sq @ np.kron(pauli_operator(2), pauli_operator(2)) @ sq.conj(), compute_uv=False)
    return min(max(s[0] - s[1] - s[2] - s[3], 0.0), 1.0)


def hs_density_of_rank(rng: np.random.Generator, rank: int) -> np.ndarray:
    """G G^dag / tr for a 4 x rank Ginibre G: Hilbert-Schmidt random of the given rank."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestCovariance:
    def test_singlet_xx(self, singlet):
        assert covariance(singlet, 1, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_product_state_all_zero(self, rho_hh):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert covariance(rho_hh, i, j) == pytest.approx(0.0, abs=1e-12)

    def test_phase_damped_zz_closed_form(self):
        # oracle: hand-rolled Kraus application, independent of the optics module
        a, b, p = 0.8, 0.6, 0.3
        psi = np.array([a, 0, 0, b], dtype=complex)
        rho = np.outer(psi, psi.conj())
        z = np.diag([1.0, -1.0]).astype(complex)
        kraus = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * z]
        damped = np.zeros((4, 4), dtype=complex)
        for ka in kraus:
            for kb in kraus:
                k = np.kron(ka, kb)
                damped += k @ rho @ k.conj().T
        expected = 1.0 - (a * a - b * b) ** 2
        assert covariance(damped, 3, 3) == pytest.approx(expected, abs=1e-12)

    def test_identity_index_rejected(self, singlet):
        with pytest.raises(IdentityIndexNotAllowed):
            covariance(singlet, 0, 3)
        with pytest.raises(IdentityIndexNotAllowed):
            covariance(singlet, 1, 0)

    def test_matrix_agrees_with_scalar_route(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            rho = random_density(rng)
            cov = covariance_matrix(rho)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    assert cov[i - 1, j - 1] == pytest.approx(covariance(rho, i, j), abs=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            cov = covariance_matrix(random_density(rng))
            assert np.all(np.abs(cov) <= 1.0 + 1e-9)


class TestGMeasure:
    def test_singlet_reaches_three(self, singlet):
        res = g_measure(singlet)
        assert res.g == pytest.approx(3.0, abs=1e-12)
        assert res.delta_g is None

    def test_product_state_zero(self, rho_hh):
        assert g_measure(rho_hh).g == pytest.approx(0.0, abs=1e-12)

    def test_partially_entangled_pure_state(self):
        # the 0.91/0.41 preparation; its exact g follows from its own
        # concurrence through the pure-state identity
        psi = np.array([0.91, 0, 0, 0.41], dtype=complex)
        psi /= np.linalg.norm(psi)
        rho = pure_to_density(psi)
        c = 2 * 0.91 * 0.41 / (0.91**2 + 0.41**2)
        assert g_measure(rho).g == pytest.approx(c * c * (c * c + 2), abs=1e-12)
        assert g_measure(rho).g == pytest.approx(1.4236, abs=0.02)

    def test_g_equals_frobenius_square_of_covariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            res = g_measure(random_density(rng))
            assert res.g == pytest.approx(np.sum(res.covariance**2), abs=1e-12)

    def test_separable_bound_chain(self):
        """The module docstring's proof, step by step, on mixtures of 1-6
        product states (pure or mixed factors): g <= ||C||_KF^2 <=
        (1 - |a|^2)(1 - |b|^2) <= 1, and the degree-2 form at R = U V^T."""
        rng = np.random.default_rng(44)

        def factor(pure):
            if not pure:
                return random_qubit_density(rng)
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)  # a Bloch vector on the sphere
            return pure_to_density(ket / np.linalg.norm(ket))

        for _ in range(2000):
            k, pure = rng.integers(1, 7), rng.random() < 0.5
            p = rng.dirichlet(np.ones(k))
            rho = sum(pk * tensor_product(factor(pure), factor(pure)) for pk in p)
            t = pauli_expectation_matrix(rho)
            a, b = t[1:, 0], t[0, 1:]
            res = g_measure(rho)
            u, sv, vh = np.linalg.svd(res.covariance)
            budget = (1 - a @ a) * (1 - b @ b)
            assert res.g <= sv.sum() ** 2 + 1e-12
            assert sv.sum() ** 2 <= budget + 1e-12
            assert budget <= 1.0 + 1e-12
            assert np.trace((u @ vh).T @ res.covariance) <= 1 - (a @ a + b @ b) / 2 + 1e-12

    def test_range_bounds(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            g = g_measure(random_density(rng)).g
            assert -1e-9 <= g <= 3.0 + 1e-9


class TestConcurrence:
    def test_singlet_is_maximal(self, singlet):
        assert concurrence(singlet) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_zero(self, rho_hh):
        assert concurrence(rho_hh) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_form_gives_two_ab(self):
        for a in (0.6, 0.8, 0.95, 1.0):
            b = np.sqrt(1 - a * a)
            rho = pure_to_density(np.array([a, 0, 0, b], dtype=complex))
            assert concurrence(rho) == pytest.approx(2 * a * b, abs=1e-12)
            assert concurrence_by_eigensolve(rho) == pytest.approx(2 * a * b, abs=1e-6)

    def test_matches_eigensolve_oracle_on_mixed_states(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            rho = random_density(rng)
            assert concurrence(rho) == pytest.approx(concurrence_by_eigensolve(rho), abs=1e-6)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_tau_form_matches_sqrt_product_on_random_states(self, rank):
        rng = np.random.default_rng(43 + rank)
        for _ in range(500):
            rho = hs_density_of_rank(rng, rank)
            assert abs(concurrence(rho) - concurrence_by_sqrt_product(rho)) <= 1e-13

    def test_tau_form_matches_sqrt_product_on_named_states(self, singlet, rho_hh, maximally_mixed):
        rho_vv = pure_to_density(np.array([0, 0, 0, 1], dtype=complex))
        states = [rho_hh, 0.5 * (rho_hh + rho_vv)]
        states += [p * singlet + (1 - p) * maximally_mixed for p in np.linspace(0.0, 1.0, 31)]  # Werner
        for rho in states:
            assert abs(concurrence(rho) - concurrence_by_sqrt_product(rho)) <= 1e-13
        stacked = concurrence(np.stack(states))
        assert stacked[0] == stacked[1] == 0.0
        np.testing.assert_allclose(stacked[2:], np.maximum(0.0, (3 * np.linspace(0.0, 1.0, 31) - 1) / 2), atol=1e-13)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho = random_density(rng)
            rotated = apply_local_unitary(rho, random_unitary(rng), random_unitary(rng))
            assert abs(concurrence(rho) - concurrence(rotated)) < 1e-9


class TestGConcurrenceMaps:
    def test_endpoints(self):
        assert g_from_concurrence(1.0) == pytest.approx(3.0, abs=1e-12)
        assert g_from_concurrence(0.0) == pytest.approx(0.0, abs=1e-12)
        assert concurrence_from_g(3.0) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_from_g(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_measured_value_inverts(self):
        assert concurrence_from_g(1.4236) == pytest.approx(0.7462, abs=1e-3)

    def test_roundtrip_identity(self):
        for c in np.linspace(0, 1, 101):
            assert concurrence_from_g(g_from_concurrence(c)) == pytest.approx(c, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            g_from_concurrence(1.5)
        with pytest.raises(OutOfRange):
            g_from_concurrence(-0.2)
        with pytest.raises(OutOfRange):
            concurrence_from_g(3.5)


class TestMixedStateBounds:
    def test_singlet_all_coincide(self, singlet):
        lower, g, upper = mixed_state_bounds(singlet)
        assert lower == pytest.approx(3.0, abs=1e-9)
        assert g == pytest.approx(3.0, abs=1e-9)
        assert upper == pytest.approx(3.0, abs=1e-9)

    def test_maximally_mixed(self, maximally_mixed):
        lower, g, upper = mixed_state_bounds(maximally_mixed)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert g == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)

    def test_werner_mixture_ordered(self, singlet, maximally_mixed):
        rho = 0.5 * singlet + 0.5 * maximally_mixed
        lower, g, upper = mixed_state_bounds(rho)
        # brute-force values: all nine covariances are 0 except the three
        # diagonal entries -1/2, and the Werner concurrence is 1/4
        assert g == pytest.approx(0.75, abs=1e-12)
        assert concurrence(rho) == pytest.approx(0.25, abs=1e-9)
        assert lower - 1e-9 <= g <= upper + 1e-9

    def test_lower_side_fails_on_a_rank_two_mixture(self):
        # rho(1/2) = |00><00|/2 + |psi><psi|/2 with psi = |00>/sqrt(2) + (|01> + |10>)/2:
        # c = 1/4, and g = 25/256 lies below c^2(c^2+2) = 33/256
        psi = np.array([1 / np.sqrt(2), 0.5, 0.5, 0.0], dtype=complex)
        rho = 0.5 * np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex) + 0.5 * np.outer(psi, psi.conj())
        lower, g, upper = mixed_state_bounds(rho)
        assert concurrence(rho) == pytest.approx(0.25, abs=1e-12)
        assert lower == pytest.approx(33 / 256, abs=1e-12)
        assert g == pytest.approx(25 / 256, abs=1e-12)
        assert upper == pytest.approx(9 / 8, abs=1e-12)
        assert g < lower


class TestLurSum:
    def _expected_sum(self, rho):
        # term-by-term oracle: <T^2> - <T>^2 for T = s_i (x) I + I (x) s_i
        total = 0.0
        for i in (1, 2, 3):
            t = np.kron(pauli_operator(i), np.eye(2)) + np.kron(np.eye(2), pauli_operator(i))
            mean = np.trace(rho @ t).real
            total += np.trace(rho @ t @ t).real - mean * mean
        return total

    def test_singlet_violates(self, singlet):
        total, violated = lur_sum(singlet, pauli_lur_spec())
        assert total == pytest.approx(self._expected_sum(singlet), abs=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert violated

    def test_product_state_saturates(self, rho_hh):
        total, violated = lur_sum(rho_hh, pauli_lur_spec())
        assert total == pytest.approx(4.0, abs=1e-12)
        assert not violated

    def test_maximally_mixed(self, maximally_mixed):
        total, violated = lur_sum(maximally_mixed, pauli_lur_spec())
        assert total == pytest.approx(6.0, abs=1e-12)
        assert not violated

    def test_non_hermitian_rejected(self, singlet):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        spec = LurSpec(observables_a=(bad,), observables_b=(np.eye(2),), bound=1.0)
        with pytest.raises(NonHermitianObservable):
            lur_sum(singlet, spec)

    def test_unequal_lists_rejected(self):
        with pytest.raises(ValueError):
            LurSpec(observables_a=(np.eye(2),), observables_b=(), bound=1.0)


def lur_sum_by_operators(rho: np.ndarray, spec: LurSpec) -> float:
    """Independent oracle, the operator loop that lur_sum replaced:
    <T^2> - <T>^2 for each T = A (x) I + I (x) B, as 4x4 matrices."""
    total = 0.0
    for a, b in zip(spec.observables_a, spec.observables_b):
        t = np.kron(a, np.eye(2)) + np.kron(np.eye(2), b)
        mean = np.trace(rho @ t).real
        total += np.trace(rho @ t @ t).real - mean * mean
    return total


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    """A 2x2 Hermitian matrix with an identity part, scaled by 0.1 to 3."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return rng.uniform(0.1, 3.0) * (g + g.conj().T) / 2


class TestLurSumMatchesOperatorLoop:
    def test_random_states_and_specs(self):
        # Hilbert-Schmidt mixed and Haar pure states, each with 1 to 4 random pairs
        for seed in range(1000):
            rng = np.random.default_rng([22, seed])
            rho = random_density(rng) if seed % 2 else pure_to_density(random_pure(rng))
            pairs = rng.integers(1, 5)
            spec = LurSpec(
                observables_a=tuple(random_hermitian(rng) for _ in range(pairs)),
                observables_b=tuple(random_hermitian(rng) for _ in range(pairs)),
                bound=2.0,
            )
            ref = lur_sum_by_operators(rho, spec)
            total, violated = lur_sum(rho, spec)
            assert abs(total - ref) <= 1e-12 * max(1.0, abs(ref)), seed
            assert violated == (total < spec.bound - 1e-10), seed

    def test_unit_trace_required(self):
        with pytest.raises(BadTrace):  # t[0, 0] = 4, and the closed form needs a unit trace
            lur_sum(np.eye(4), pauli_lur_spec())

    def test_non_hermitian_state_rejected(self, singlet):
        rho = singlet.copy()
        rho[0, 1] += 1e-3
        with pytest.raises(NotHermitian) as excinfo:
            lur_sum(rho, pauli_lur_spec())
        assert excinfo.type is NotHermitian

    def test_observables_checked_before_state(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        spec = LurSpec(observables_a=(np.eye(2), bad), observables_b=(np.eye(2), np.eye(2)), bound=1.0)
        with pytest.raises(NonHermitianObservable):
            lur_sum(np.eye(4), spec)


#: The functions that read a state's Pauli matrix or spectrum, each called on rho.
STATE_READERS = {
    "g_measure": g_measure,
    "covariance_matrix": covariance_matrix,
    "covariance": lambda rho: covariance(rho, 1, 1),
    "k_measure": lambda rho: k_measure(rho, SchmidtCoeffs(SQ2, SQ2)),
    "concurrence": concurrence,
    "mixed_state_bounds": mixed_state_bounds,
}


@pytest.mark.parametrize("name", STATE_READERS)
class TestStateReadersCheckTheState:
    def test_trace_two_rejected(self, name, singlet):
        # g would read 12.0 here, outside its range [0, 3]
        with pytest.raises(BadTrace):
            STATE_READERS[name](2 * singlet)

    def test_non_hermitian_rejected(self, name, singlet):
        rho = singlet.copy()
        rho[0, 1] += 1e-3
        with pytest.raises(NotHermitian):
            STATE_READERS[name](rho)


class TestSchmidtCoeffs:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SchmidtCoeffs(0.9, 0.5)
        with pytest.raises(ValueError):
            SchmidtCoeffs(-0.6, 0.8)

    @pytest.mark.parametrize("a, b", [(np.nan, np.nan), (np.nan, 1.0), (1.0, np.nan)])
    def test_nan_rejected(self, a, b):
        with pytest.raises(ValueError):
            SchmidtCoeffs(a, b)

    def test_whole_quadrant_accepted(self):
        SchmidtCoeffs(0.0, 1.0)
        SchmidtCoeffs(1.0, 0.0)
        SchmidtCoeffs(SQ2, SQ2)


class TestKObservables:
    def test_projectors_idempotent_and_complete(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            u = rng.uniform(0, 1)
            obs = k_observables(SchmidtCoeffs(np.sqrt(u), np.sqrt(1 - u)))
            total = np.zeros((4, 4), dtype=complex)
            for m in obs.projectors:
                np.testing.assert_allclose(m @ m, m, atol=1e-12)
                total += m
            np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


class TestKMeasure:
    def test_target_state_vanishes(self):
        s = SchmidtCoeffs(0.8, 0.6)
        rho = pure_to_density(np.array([0.8, 0, 0, 0.6], dtype=complex))
        assert k_measure(rho, s).k == pytest.approx(0.0, abs=1e-12)

    def test_hh_hits_bound_exactly(self, rho_hh):
        s = SchmidtCoeffs(0.8, 0.6)
        res = k_measure(rho_hh, s)
        # oracle: direct overlaps |<psi_i|HH>|^2 = a^2, 0, 0, b^2
        kets = [
            np.array([0.8, 0, 0, 0.6]),
            np.array([0, 0.8, 0.6, 0]),
            np.array([0, 0.6, -0.8, 0]),
            np.array([0.6, 0, 0, -0.8]),
        ]
        hh = np.array([1, 0, 0, 0])
        expected = [abs(np.dot(k, hh)) ** 2 for k in kets]
        for got, want in zip(res.expectations, expected):
            assert got == pytest.approx(want, abs=1e-12)
        assert res.k == pytest.approx(2 * 0.8**2 * 0.6**2, abs=1e-12)
        assert res.k == pytest.approx(res.bound, abs=1e-12)

    def test_maximally_mixed(self, maximally_mixed):
        res = k_measure(maximally_mixed, SchmidtCoeffs(0.8, 0.6))
        assert res.k == pytest.approx(0.75, abs=1e-12)
        for e in res.expectations:
            assert e == pytest.approx(0.25, abs=1e-12)

    def test_separable_states_respect_bound(self):
        rng = np.random.default_rng(52)
        for _ in range(10_000):
            rho = np.kron(random_qubit_density(rng), random_qubit_density(rng))
            u = rng.uniform(0, 1)
            s = SchmidtCoeffs(np.sqrt(u), np.sqrt(1 - u))
            assert k_measure(rho, s).k >= k_separable_bound(s) - 1e-9


class TestPureStateIdentity:
    def test_sample(self):
        rng = np.random.default_rng(61)
        for _ in range(2000):
            rho = pure_to_density(random_pure(rng))
            c = concurrence(rho)
            assert abs(g_measure(rho).g - c * c * (c * c + 2)) < 1e-9


class TestIlutProperty:
    def test_sample(self):
        rng = np.random.default_rng(62)
        for n in range(1000):
            rho = random_density(rng) if n % 2 else pure_to_density(random_pure(rng))
            rotated = apply_local_unitary(rho, random_unitary(rng), random_unitary(rng))
            assert abs(g_measure(rho).g - g_measure(rotated).g) < 1e-9
