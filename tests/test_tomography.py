import itertools

import numpy as np
import pytest

from entquant import (
    FULL_SETTINGS,
    SimConfig,
    cli,
    concurrence,
    concurrence_from_g,
    data_file,
    g_from_counts,
    linear_inversion,
    parse_counts_csv,
    pauli_vector_from_counts,
    project_to_physical,
    pure_to_density,
    random_density,
    simulate_counts,
    tomo_concurrence,
    trace_distance,
)
from entquant import tomography
from entquant.errors import MissingSetting
from entquant.tomography import _reconstruction, fidelity, reconstruct

SQ2 = 1.0 / np.sqrt(2.0)


def exact_table(rho, n=10_000.0):
    return simulate_counts(rho, FULL_SETTINGS, SimConfig(n_per_setting=n, noise="exact"))


def simplex_projection_by_kkt(v):
    """Exhaustive oracle: try every support set, keep the KKT-feasible one."""
    v = np.asarray(v, dtype=float)
    for size in range(v.size, 0, -1):
        for support in itertools.combinations(range(v.size), size):
            tau = (v[list(support)].sum() - 1.0) / size
            x = np.zeros_like(v)
            x[list(support)] = v[list(support)] - tau
            on_ok = np.all(x[list(support)] >= -1e-12)
            off = [i for i in range(v.size) if i not in support]
            off_ok = np.all(v[off] - tau <= 1e-12) if off else True
            if on_ok and off_ok:
                return np.maximum(x, 0.0)
    raise AssertionError("no feasible support found")


class TestPauliVector:
    def test_exact_singlet(self, singlet):
        t = pauli_vector_from_counts(exact_table(singlet))
        assert t[0, 0] == 1.0
        for i in (1, 2, 3):
            assert t[i, i] == pytest.approx(-1.0, abs=1e-12)
            assert t[i, 0] == pytest.approx(0.0, abs=1e-12)
            assert t[0, i] == pytest.approx(0.0, abs=1e-12)

    def test_exact_product_state(self, rho_hh):
        t = pauli_vector_from_counts(exact_table(rho_hh))
        assert t[3, 0] == pytest.approx(1.0, abs=1e-12)
        assert t[0, 3] == pytest.approx(1.0, abs=1e-12)
        assert t[3, 3] == pytest.approx(1.0, abs=1e-12)

    def test_block1_zz_entry(self):
        with open(data_file("tableII_block1.csv"), encoding="utf-8") as fh:
            table = parse_counts_csv(fh.read())
        t = pauli_vector_from_counts(table)
        assert t[3, 3] == pytest.approx(-0.9915, abs=5e-4)

    def test_entries_bounded(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            t = pauli_vector_from_counts(exact_table(random_density(rng)))
            assert np.all(np.abs(t) <= 1.0 + 1e-9)

    def test_missing_setting(self, singlet):
        table = exact_table(singlet)
        del table.counts[next(iter(table.counts))]
        with pytest.raises(MissingSetting):
            pauli_vector_from_counts(table)


class TestLinearInversion:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(92)
        for _ in range(100):
            rho = random_density(rng)
            raw = linear_inversion(pauli_vector_from_counts(exact_table(rho)))
            assert np.max(np.abs(raw - rho)) < 1e-10

    def test_identity_vector_gives_maximally_mixed(self):
        t = np.zeros((4, 4))
        t[0, 0] = 1.0
        np.testing.assert_allclose(linear_inversion(t), np.eye(4) / 4, atol=1e-14)

    def test_noisy_singlet_goes_unphysical(self, singlet):
        # low flux makes the raw estimate visibly indefinite
        table = simulate_counts(singlet, FULL_SETTINGS, SimConfig(200, "poisson", seed=5))
        raw = linear_inversion(pauli_vector_from_counts(table))
        assert np.linalg.eigvalsh(raw).min() < 0
        assert np.trace(raw).real == pytest.approx(1.0, abs=1e-12)


class TestProjectToPhysical:
    def test_physical_input_unchanged(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            rho = random_density(rng)
            assert np.max(np.abs(project_to_physical(rho) - rho)) < 1e-12

    def test_idempotent(self, singlet):
        table = simulate_counts(singlet, FULL_SETTINGS, SimConfig(500, "poisson", seed=2))
        once = project_to_physical(linear_inversion(pauli_vector_from_counts(table)))
        twice = project_to_physical(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_example_spectrum(self):
        spectrum = np.array([1.05, 0.05, -0.05, -0.05])
        raw = np.diag(spectrum).astype(complex)
        out = project_to_physical(raw)
        expected = simplex_projection_by_kkt(spectrum)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(out)), np.sort(expected), atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_matches_kkt_oracle_on_random_inputs(self):
        rng = np.random.default_rng(94)
        for _ in range(200):
            v = rng.normal(size=4) * rng.uniform(0.1, 2.0) + 0.25
            raw = np.diag(v).astype(complex)
            out = np.sort(np.linalg.eigvalsh(project_to_physical(raw)))
            np.testing.assert_allclose(out, np.sort(simplex_projection_by_kkt(v)), atol=1e-10)

    def test_maximally_mixed_unchanged(self, maximally_mixed):
        np.testing.assert_allclose(project_to_physical(maximally_mixed), maximally_mixed, atol=1e-14)


class TestStacks:
    def test_stack_equals_matrix_by_matrix(self):
        rng = np.random.default_rng(93)
        ts = np.stack([pauli_vector_from_counts(
            simulate_counts(random_density(int(s)), FULL_SETTINGS, SimConfig(50, "poisson", int(s))))
            for s in rng.integers(0, 2**31, size=12)])
        raw = linear_inversion(ts)
        phys = project_to_physical(raw)
        for k in range(len(ts)):
            np.testing.assert_array_equal(raw[k], linear_inversion(ts[k]))
            np.testing.assert_array_equal(phys[k], project_to_physical(raw[k]))
        np.testing.assert_array_equal(concurrence(phys), [concurrence(p) for p in phys])
        assert isinstance(concurrence(phys[0]), float)


class TestTomoConcurrence:
    def test_exact_singlet(self, singlet):
        assert tomo_concurrence(exact_table(singlet)) == pytest.approx(1.0, abs=1e-9)

    def test_exact_product_state(self, rho_hh):
        assert tomo_concurrence(exact_table(rho_hh)) == pytest.approx(0.0, abs=1e-9)

    def test_poisson_singlet_close_to_one_and_below_g_route(self, singlet):
        below = 0
        for seed in range(100):
            table = simulate_counts(singlet, FULL_SETTINGS, SimConfig(100_000, "poisson", seed=seed))
            c_tomo = tomo_concurrence(table)
            assert abs(c_tomo - 1.0) < 0.05
            g = min(3.0, max(0.0, g_from_counts(table).g))
            if c_tomo <= concurrence_from_g(g):
                below += 1
        # reconstruction reads low: the projection trims the spectrum
        assert below > 50


class TestFidelityHelpers:
    def test_fidelity_of_state_with_itself(self):
        rng = np.random.default_rng(95)
        for _ in range(20):
            rho = random_density(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_orthogonal_pure_states(self, rho_hh):
        vv = pure_to_density(np.array([0, 0, 0, 1], dtype=complex))
        assert fidelity(rho_hh, vv) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_bounds(self, singlet, maximally_mixed):
        assert trace_distance(singlet, singlet) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(singlet, maximally_mixed) == pytest.approx(0.75, abs=1e-12)

    def test_reconstruct_exact_fidelity(self, singlet):
        assert fidelity(reconstruct(exact_table(singlet)), singlet) == pytest.approx(1.0, abs=1e-9)


class TestSpectrumOnly:
    """The CLI reads the projected spectrum and eigenvectors; only
    reconstruct and project_to_physical rebuild and check the matrix."""

    BLOCK1 = data_file("tableII_block1.csv")
    BLOCK2 = data_file("tableII_block2.csv")

    @pytest.fixture
    def checks(self, monkeypatch):
        """The list of the matrices passed to tomography._validate_density."""
        seen = []
        original = tomography._validate_density

        def counting(m, *args, **kwargs):
            seen.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(tomography, "_validate_density", counting)
        return seen

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", BLOCK1, "--tomo"],
            ["tomo", BLOCK1, "--reference", "singlet"],
            ["tomo", BLOCK2, "--reference", BLOCK1],
            ["sweep-g", "--steps", "12", "--noise", "poisson", "--n", "50", "--seed", "3"],
        ],
        ids=["analyze", "tomo-named", "tomo-file", "sweep-g"],
    )
    def test_cli_builds_no_state(self, checks, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert checks == []

    def test_the_counter_sees_reconstruct(self, checks):
        with open(self.BLOCK1, encoding="utf-8") as fh:
            reconstruct(parse_counts_csv(fh.read()))
        assert len(checks) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruct_is_the_rebuilt_spectrum(self, seed):
        table = simulate_counts(random_density(seed), FULL_SETTINGS, SimConfig(50.0, "poisson", seed))
        w, v = _reconstruction(table)
        rebuilt = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        got = reconstruct(table)
        assert got.dtype == rebuilt.dtype
        assert np.array_equal(got.view(np.uint64), rebuilt.view(np.uint64))  # tells -0.0 from 0.0
