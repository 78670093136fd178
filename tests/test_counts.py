import dataclasses
import re
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from entquant import (
    FULL_SETTINGS,
    KMODE_SETTINGS,
    BasisLabel,
    ChannelSpec,
    CountsTable,
    SchmidtCoeffs,
    Setting,
    SimConfig,
    data_file,
    expectation_value,
    g_from_counts,
    g_measure,
    joint_expectation,
    joint_projector,
    k_from_counts,
    k_measure,
    marginal_expectation,
    parse_counts_csv,
    phase_damping,
    prepare_parallel,
    pure_to_density,
    random_density,
    random_pure,
    reconstruct,
    simulate_counts,
    write_counts_csv,
)
import entquant.sampler as sampler_module
from entquant.counts import _GROUP_SLOTS, _POISSON_MAX, _simulate, group_settings
from entquant.sampler import poisson_array, poisson_counts, seed_states
from entquant.errors import BadTrace, DuplicateSetting, IdentityIndexNotAllowed, MissingSetting, NegativeEigenvalue, ParseError, UnknownLabel
from entquant.measures import _g_terms, _k_terms

SQ2 = 1.0 / np.sqrt(2.0)

H, V, D, A, R, L = (BasisLabel[x] for x in "HVDARL")


@pytest.fixture(scope="module")
def block1():
    with open(data_file("tableII_block1.csv"), encoding="utf-8") as fh:
        return parse_counts_csv(fh.read())


def exact_table(rho, n=10_000.0, settings=FULL_SETTINGS):
    return simulate_counts(rho, settings, SimConfig(n_per_setting=n, noise="exact"))


class TestSettingLists:
    def test_full_has_36(self):
        assert len(FULL_SETTINGS) == 36
        assert len(set(FULL_SETTINGS)) == 36

    def test_kmode_has_12_within_full(self):
        assert len(KMODE_SETTINGS) == 12
        assert set(KMODE_SETTINGS) <= set(FULL_SETTINGS)
        # three complete eigenbasis groups
        for pair in ((H, V), (D, A), (R, L)):
            for a in pair:
                for b in pair:
                    assert Setting(a, b) in KMODE_SETTINGS


class TestSimulateCounts:
    def test_exact_singlet_values(self, singlet):
        table = exact_table(singlet)
        assert table.counts[Setting(H, V)] == pytest.approx(5000.0, abs=1e-9)
        assert table.counts[Setting(D, D)] == pytest.approx(0.0, abs=1e-9)
        assert table.is_exact and table.seed is None

    def test_exact_hh_is_deterministic_flux(self, rho_hh):
        table = exact_table(rho_hh)
        assert table.counts[Setting(H, H)] == pytest.approx(10_000.0, abs=1e-9)

    def test_poisson_reproducible(self, singlet):
        cfg = SimConfig(n_per_setting=5000, noise="poisson", seed=99)
        t1 = simulate_counts(singlet, FULL_SETTINGS, cfg)
        t2 = simulate_counts(singlet, FULL_SETTINGS, cfg)
        assert t1.counts == t2.counts
        assert t1.seed == 99 and t1.source == "poisson"

    def test_poisson_independent_of_setting_order(self, singlet):
        cfg = SimConfig(n_per_setting=5000, noise="poisson", seed=7)
        forward = simulate_counts(singlet, FULL_SETTINGS, cfg)
        backward = simulate_counts(singlet, tuple(reversed(FULL_SETTINGS)), cfg)
        assert forward.counts == backward.counts

    def test_poisson_counts_are_integral(self, singlet):
        cfg = SimConfig(n_per_setting=321.5, noise="poisson", seed=3)
        table = simulate_counts(singlet, KMODE_SETTINGS, cfg)
        assert all(float(n).is_integer() for n in table.counts.values())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n_per_setting=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_per_setting=10, noise="gaussian")
        for n in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SimConfig(n_per_setting=n)

    @pytest.mark.parametrize("noise", ["exact", "poisson"])
    def test_negative_or_non_integer_seed_rejected(self, noise):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SimConfig(100, noise, seed=-1)
        with pytest.raises(TypeError):
            SimConfig(100, noise, seed=1.5)
        assert SimConfig(100, noise, seed=2**100).seed == 2**100


def summed_probability(rho, s):
    """tr(rho P) for the projector P of setting s, summed as _simulate sums it:
    the 16 terms a_k = rho_ij P_ji (k = 4 i + j) in real arithmetic, in
    np.add.reduce's pairwise order over 16 terms, from zero."""
    r, w = rho.reshape(16), joint_projector(s.a, s.b).T.reshape(16)
    a = [r[k].real * w[k].real - r[k].imag * w[k].imag for k in range(16)]
    t = [a[j] + a[j + 8] for j in range(8)]
    return 0.0 + (((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7])))


def trace_probability(rho, s):
    """tr(rho P) through expectation_value, one matrix product per setting."""
    return expectation_value(rho, joint_projector(s.a, s.b))


def reference_counts(rho, settings, cfg, probability=summed_probability):
    """simulate_counts written one setting at a time, as the reference."""
    out = {}
    for s in settings:
        mean = cfg.n_per_setting * max(0.0, probability(rho, s))
        if cfg.noise == "exact":
            out[s] = mean
        else:
            out[s] = float(np.random.default_rng([cfg.seed, FULL_SETTINGS.index(s)]).poisson(mean))
    return out


#: The largest difference between a probability summed as _simulate sums it
#: and the trace of a matrix product, 4 ulps of 1 (2.2e-16 measured on 400
#: Hilbert-Schmidt random states); an exact count may differ by n times that.
TRACE_BOUND = 4 * 2.0**-53


class TestSimulateMatchesReference:
    @pytest.mark.parametrize("noise", ["exact", "poisson"])
    @pytest.mark.parametrize(
        "settings",
        [FULL_SETTINGS, KMODE_SETTINGS, tuple(reversed(FULL_SETTINGS))],
        ids=["full", "kmode", "reversed"],
    )
    def test_counts_equal_reference(self, noise, settings):
        states = [pure_to_density(random_pure(100 + i)) for i in range(8)]
        states += [random_density(200 + i) for i in range(8)]
        for k, rho in enumerate(states):
            for n in (50, 5000, 50000.5):
                cfg = SimConfig(n_per_setting=n, noise=noise, seed=k)
                got = simulate_counts(rho, settings, cfg).counts
                assert list(got.items()) == list(reference_counts(rho, settings, cfg).items())
                traced = reference_counts(rho, settings, cfg, trace_probability)
                assert list(got) == list(traced)
                if noise == "exact":
                    assert max(abs(got[s] - traced[s]) for s in got) <= n * TRACE_BOUND
                else:  # whole counts: a mean that moves by an ulp draws the same count
                    assert got == traced

    def test_non_hermitian_state_rejected(self, singlet):
        rho = singlet.copy()
        rho[0, 3] += 0.1j
        with pytest.raises(ValueError, match="not Hermitian"):
            simulate_counts(rho, FULL_SETTINGS, SimConfig(100))

    @pytest.mark.parametrize("noise", ["exact", "poisson"])
    def test_non_finite_state_rejected(self, noise):
        with pytest.raises(ValueError, match="not finite"):
            simulate_counts(np.full((4, 4), np.nan), FULL_SETTINGS, SimConfig(100, noise))

    @pytest.mark.parametrize("noise", ["exact", "poisson"])
    @pytest.mark.parametrize(
        "diagonal,error",
        [((1.5, -0.5, 0, 0), NegativeEigenvalue), ((1.5, 0, 0, 0), BadTrace), ((0.5, 0.5 - 2e-10, 0, 0), BadTrace)],
    )
    def test_unphysical_state_rejected(self, noise, diagonal, error):
        rho = np.diag(diagonal).astype(complex)
        with pytest.raises(error):
            simulate_counts(rho, FULL_SETTINGS, SimConfig(100, noise))
        with pytest.raises(error):
            _simulate(np.stack([np.eye(4) / 4, rho]), FULL_SETTINGS, SimConfig(100, noise))

    def test_rounding_sized_departures_accepted(self):
        rho = np.diag([1 + 5e-11, 5e-11, -5e-11, -5e-11]).astype(complex)
        assert simulate_counts(rho, FULL_SETTINGS, SimConfig(100)).counts[Setting(H, H)] == 100 * (1 + 5e-11)

    def test_infinite_state_rejected_without_a_numpy_warning(self):
        for i in range(16):
            rho = np.eye(4, dtype=complex) / 4
            rho.flat[i] = np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="state is not finite"):
                    simulate_counts(rho, FULL_SETTINGS, SimConfig(100, "poisson"))


def point_seed(seed, *indices):
    """Word 0 of SeedSequence([seed, *indices]): the seed of a stacked state."""
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1, dtype=np.uint64)[0])


def canonical(table):
    return [table.counts.get(s, 0.0) for s in FULL_SETTINGS]


class TestSimulateStacks:
    """_simulate on a stack draws each state's counts as simulate_counts does
    with the state's stack-index seed."""

    @staticmethod
    def stack(shape):
        states = [random_density(300 + i) for i in range(int(np.prod(shape)))]
        return np.stack(states).reshape(shape + (4, 4))

    @pytest.mark.parametrize("settings", [FULL_SETTINGS, KMODE_SETTINGS], ids=["full", "kmode"])
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_two_axis_stack_seeds_by_both_indices(self, seed, settings):
        rhos = self.stack((4, 3))
        got = _simulate(rhos, settings, SimConfig(500, "poisson", seed))
        assert got.shape == (4, 3, 36)
        for i, j in product(range(4), range(3)):
            table = simulate_counts(rhos[i, j], settings, SimConfig(500, "poisson", point_seed(seed, i, j)))
            assert got[i, j].tolist() == canonical(table), (i, j)

    @pytest.mark.parametrize("settings", [FULL_SETTINGS, KMODE_SETTINGS], ids=["full", "kmode"])
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_one_axis_stack_and_single_state(self, seed, settings):
        rhos = self.stack((5,))
        got = _simulate(rhos, settings, SimConfig(500, "poisson", seed))
        for i in range(5):
            table = simulate_counts(rhos[i], settings, SimConfig(500, "poisson", point_seed(seed, i)))
            assert got[i].tolist() == canonical(table), i
        single = _simulate(rhos[0], settings, SimConfig(500, "poisson", seed))
        assert single.shape == (36,)
        assert single.tolist() == canonical(simulate_counts(rhos[0], settings, SimConfig(500, "poisson", seed)))

    def test_exact_stack_matches_state_by_state(self):
        rhos = self.stack((2, 3))
        got = _simulate(rhos, KMODE_SETTINGS, SimConfig(500))
        for i, j in product(range(2), range(3)):
            assert got[i, j].tolist() == canonical(simulate_counts(rhos[i, j], KMODE_SETTINGS, SimConfig(500)))

    @pytest.mark.parametrize("settings", [FULL_SETTINGS, KMODE_SETTINGS], ids=["full", "kmode"])
    def test_stack_probabilities_take_no_stack_sized_product(self, settings):
        # the (4096, 36, 16) product of a whole 4096-state stack is 18.9 MB, and two are live at once
        rhos = np.tile(self.stack((8,)), (512, 1, 1))
        tracemalloc.start()
        try:
            _simulate(rhos, settings, SimConfig(500))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("rho", [np.stack([np.eye(4) / 4] * 3), np.eye(2) / 2], ids=["stack", "2x2"])
    def test_simulate_counts_takes_one_4x4_state(self, rho):
        with pytest.raises(ValueError, match="one 4x4 matrix"):
            simulate_counts(rho, FULL_SETTINGS, SimConfig(100, "poisson"))


def loop_poisson(means, seed):
    """poisson_counts of one table (1-d means) of ordinals 0, 1, ..., which
    it draws one Generator per count."""
    return poisson_counts(means, seed, np.arange(means.size))


def array_poisson(means, seed):
    """poisson_array on the same keys as loop_poisson."""
    return poisson_array(means, seed_states(seed, np.arange(means.size)))


class TestPoissonArrayMatchesLoop:
    """sampler.poisson_array draws what numpy's Generator(PCG64).poisson draws, one
    Generator per draw, in every regime of numpy's sampler."""

    @pytest.fixture(scope="class", params=[0, 5, 2**64 + 3])
    def case(self, request):
        rng = np.random.default_rng(request.param)
        means = np.concatenate([
            np.zeros(500),  # no draw
            [5e-324, 1e-310, np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 20.0)],  # subnormal; 10 +- 1 ulp
            10.0 ** rng.uniform(-320, 1, 500),
            rng.uniform(0, 10, 15_000),  # multiplication method
            10 + rng.exponential(3, 5_000),  # PTRS where loggam's small-argument branch is reached
            rng.uniform(10, 1e4, 10_000),
            10.0 ** rng.uniform(4, np.log10(_POISSON_MAX), 4_000),
            [_POISSON_MAX] * 10,
        ])
        return means, request.param, loop_poisson(means, request.param)

    def test_array_pass_matches_loop(self, case):
        means, seed, want = case
        got = array_poisson(means, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_every_log_test_through_libm_matches_loop(self, case, monkeypatch):
        means, seed, want = case
        monkeypatch.setattr(sampler_module, "_LOG_GUARD", np.inf)
        assert np.array_equal(array_poisson(means, seed), want)

    @pytest.mark.parametrize("size", [1, 2])
    def test_small_block_rounds_match_loop(self, case, monkeypatch, size):
        """Every multiplication-method stream crosses blocks, and every PTRS
        straggler takes several block rounds."""
        means, seed, want = case
        monkeypatch.setattr(sampler_module, "_MULT_BLOCK", size)
        monkeypatch.setattr(sampler_module, "_PTRS_BLOCK", size)
        assert np.array_equal(array_poisson(means, seed), want)


@pytest.mark.parametrize("means", [
    np.zeros(0), np.zeros(40), np.linspace(0.5, 9.5, 40), np.linspace(10.0, 1e4, 40),
    np.array([3.0]), np.array([30.0]), np.array([0.0, 3.0, 30.0]),
], ids=["empty", "all-zero", "mult-only", "ptrs-only", "one-mult", "one-ptrs", "one-of-each"])
@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_poisson_array_matches_loop_on_one_side_of_the_split(means, seed):
    """poisson_array seeds every positive mean's stream at once and splits
    them between the two methods; either side may get no stream at all."""
    got = array_poisson(means, seed)
    assert got.shape == means.shape and np.array_equal(got, loop_poisson(means, seed))


class TestPoissonCountsKeys:
    """poisson_counts draws count o of a table from numpy's own
    default_rng(key).poisson: key [seed, o] for a single table, which it
    draws one Generator per count, and for the table at (i, j) of a stack,
    which it draws in one array pass, [w0, o], w0 word 0 of
    SeedSequence([seed, i, j])."""

    @staticmethod
    def means(shape):
        rng = np.random.default_rng(17)  # both of numpy's samplers: below 10 and from 10 on
        return np.where(rng.random(shape) < 0.5, rng.uniform(0, 10, shape), rng.uniform(10, 5000, shape))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**100 + 7])
    def test_single_table(self, seed):
        means = self.means(36)
        got = poisson_counts(means, seed, list(range(36)))
        assert got.tolist() == [float(np.random.default_rng([seed, o]).poisson(m)) for o, m in enumerate(means.tolist())]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**100 + 7])
    def test_two_axis_stack(self, seed):
        ords = [FULL_SETTINGS.index(s) for s in KMODE_SETTINGS]
        means = self.means((2, 3, 12))
        got = poisson_counts(means, seed, ords)
        assert got.shape == (2, 3, 12)
        for i, j in product(range(2), range(3)):
            w0 = np.random.SeedSequence([seed, i, j]).generate_state(1, np.uint64)[0]
            want = [float(np.random.default_rng([w0, o]).poisson(m)) for o, m in zip(ords, means[i, j].tolist())]
            assert got[i, j].tolist() == want, (i, j)


class TestPoissonStackContract:
    """Table idx of a Poisson stack, drawn in one array pass, is the single
    table, drawn one Generator per count, seeded with word 0 of
    SeedSequence([seed, *idx])."""

    @staticmethod
    def sweep_g_means(n):
        """The 46-point sweep-g grid's means at n per setting, as _simulate takes them."""
        rhos = pure_to_density(prepare_parallel(np.radians(np.linspace(0.0, 45.0, 46))))
        return n * _simulate(rhos, FULL_SETTINGS, SimConfig(1.0, "exact"))

    @pytest.fixture(scope="class", params=["sweep-g-n3", "sweep-g-n50", "sweep-g-n5000", "kmode-4x3"])
    def stack(self, request):
        if request.param == "kmode-4x3":
            ords = [FULL_SETTINGS.index(s) for s in KMODE_SETTINGS]
            return np.random.default_rng(3).uniform(0, 40, (4, 3, 12)), ords
        return self.sweep_g_means(float(request.param.split("-n")[1])), list(range(36))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**100 + 7])
    def test_stack_table_is_single_table_of_its_seed(self, stack, seed):
        means, ords = stack
        got = poisson_counts(means, seed, ords)
        for idx in np.ndindex(means.shape[:-1]):
            w0 = int(np.random.SeedSequence([seed, *idx]).generate_state(1, np.uint64)[0])
            assert np.array_equal(got[idx], poisson_counts(means[idx], w0, ords)), idx


class TestPCG64JumpAhead:
    def test_block_is_consecutive_steps(self):
        words = seed_states(11, np.arange(50))
        stepped, jumped = sampler_module._PCG64Streams(words), sampler_module._PCG64Streams(words)
        for n in (1, 2, sampler_module._JUMPS.shape[1]):
            want = np.stack([stepped.next_double() for _ in range(n)])  # (n, K): stream innermost
            assert np.array_equal(jumped.block(n), want)
            assert np.array_equal(jumped.hi, stepped.hi) and np.array_equal(jumped.lo, stepped.lo)

    def test_doubles_are_numpys(self):
        words = seed_states(2**64 + 3, np.arange(20))
        want = [np.random.default_rng([2**64 + 3, o]).random(9) for o in range(20)]
        assert np.array_equal(sampler_module._PCG64Streams(words).block(9).T, want)


class TestPoissonFluxLimit:
    def test_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        assert rng.poisson(_POISSON_MAX) >= 0
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(_POISSON_MAX, np.inf))

    def test_sim_config_rejects_poisson_flux_above_limit(self):
        assert SimConfig(_POISSON_MAX, "poisson").n_per_setting == _POISSON_MAX
        for n in (np.nextafter(_POISSON_MAX, np.inf), 1e300):
            with pytest.raises(ValueError, match=re.escape(f"at most {_POISSON_MAX!r}")):
                SimConfig(n, "poisson")
        assert SimConfig(1e300, "exact").n_per_setting == 1e300

    def test_flux_at_limit_draws_even_past_unit_probability(self, rho_hh):
        rho = (1 + 5e-11) * rho_hh  # a valid trace, whose HH mean still passes the limit
        assert _POISSON_MAX * np.trace(rho).real > _POISSON_MAX
        table = simulate_counts(rho, FULL_SETTINGS, SimConfig(_POISSON_MAX, "poisson"))
        assert table.counts[Setting(H, H)] > 0


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**100 + 7]
SEEDS += [int(x) for x in np.random.default_rng(2024).integers(0, 2**63, size=50)]


def seed_sequence_state(*key):
    return np.random.SeedSequence(list(key)).generate_state(4, np.uint64)


class TestSeedStates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_seed_sequence_over_ordinals(self, seed):
        got = seed_states(seed, np.arange(36))
        assert got.dtype == np.uint64 and got.shape == (36, 4)
        for o in range(36):
            assert np.array_equal(got[o], seed_sequence_state(seed, o)), (seed, o)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, 2**96, 2**100 + 7, 12345])
    def test_matches_seed_sequence_on_three_part_keys(self, seed):
        got = seed_states(seed, np.arange(5)[:, None], np.arange(3))
        assert got.shape == (5, 3, 4)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(got[i, j], seed_sequence_state(seed, i, j)), (seed, i, j)

    @pytest.mark.parametrize("head", [(), (5,)], ids=["two-part", "three-part"])
    def test_uint64_array_part_with_and_without_high_words(self, head):
        """Keys of uneven word counts, two or three words long, or three or
        four with the array part's high word present or absent mid-key."""
        seeds = np.array([0, 5, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1], dtype=np.uint64)
        got = seed_states(*head, seeds[:, None], np.arange(36))
        for b, seed in enumerate(seeds):
            for o in range(36):
                assert np.array_equal(got[b, o], seed_sequence_state(*head, int(seed), o)), (int(seed), o)

    @pytest.mark.parametrize("seed", SEEDS[:10])
    def test_sweep_two_level_key(self, seed):
        """A sweep seeds point b from word 0 of [seed, b], then its setting o from [that word, o]."""
        points = seed_states(seed, np.arange(46))[..., :1]
        got = seed_states(points, np.arange(36))
        assert got.shape == (46, 36, 4) and got.flags.c_contiguous
        for b in range(46):
            w0 = int(np.random.SeedSequence([seed, b]).generate_state(1, np.uint64)[0])
            assert points[b, 0] == w0
            for o in range(36):
                assert np.array_equal(got[b, o], seed_sequence_state(w0, o)), (seed, b, o)

    def test_state_words_are_c_contiguous(self):
        """PCG64 reads the words' raw buffer, so a strided row would seed the wrong stream."""
        for key in [(5, np.arange(36)), (2**100 + 7, np.arange(3)), (np.array([1, 2**40], dtype=np.uint64)[:, None], np.arange(4))]:
            assert seed_states(*key).flags.c_contiguous

    def test_first_word_is_the_one_word_state(self):
        for seed in SEEDS[:10]:
            want = np.random.SeedSequence([seed, 7]).generate_state(1, np.uint64)[0]
            assert seed_states(seed, 7)[0] == want

    @pytest.mark.parametrize("key", [(-1, np.arange(3)), (5, np.array([0, -2]))])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ValueError, match="nonnegative"):
            seed_states(*key)

    @pytest.mark.parametrize("seed", [2**64, 2**100 + 7])
    def test_simulate_counts_with_huge_seed_matches_reference(self, singlet, seed):
        cfg = SimConfig(5000, "poisson", seed)
        assert simulate_counts(singlet, FULL_SETTINGS, cfg).counts == reference_counts(singlet, FULL_SETTINGS, cfg)


class TestCsvRoundTrip:
    def test_parse_basic_rows(self):
        table = parse_counts_csv("basis_a,basis_b,count\nH,V,5005\nD,-,4947\n")
        assert table.counts[Setting(H, V)] == 5005
        assert table.counts[Setting(D, A)] == 4947
        assert table.source == "file"

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            parse_counts_csv("basis_a,basis_b,count\nH,W,3\n")

    def test_duplicate_setting(self):
        with pytest.raises(DuplicateSetting):
            parse_counts_csv("basis_a,basis_b,count\nD,-,10\nD,A,11\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_counts_csv("H,V,5005\n")

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse_counts_csv("basis_a,basis_b,count\nH,V,-3\n")

    def test_bad_field_count_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_counts_csv("basis_a,basis_b,count\nH,V,12\nH,V\n")

    def test_comments_ignored(self):
        table = parse_counts_csv("# a remark\nbasis_a,basis_b,count\n# another\nH,H,1\n")
        assert table.counts == {Setting(H, H): 1.0}

    def test_roundtrip_full_tables(self, singlet, block1):
        for table in (block1, exact_table(singlet, n=7919.0)):
            back = parse_counts_csv(write_counts_csv(table))
            assert back.counts == table.counts
            assert back.source == table.source
            assert back.seed == table.seed

    def test_roundtrip_preserves_poisson_metadata(self, singlet):
        cfg = SimConfig(n_per_setting=5000, noise="poisson", seed=17)
        table = simulate_counts(singlet, FULL_SETTINGS, cfg)
        back = parse_counts_csv(write_counts_csv(table))
        assert back.counts == table.counts
        assert back.source == "poisson" and back.seed == 17

    def test_output_uses_canonical_letters(self, block1):
        text = write_counts_csv(block1)
        assert "A," in text and "+" not in text and "-" not in text


#: Every label spelling the parser accepts.
SPELLINGS = [*"HVDARL", *"hvdarl", "+", "-"]


def reference_parse_rows(text):
    """The counts rows of a CSV parsed one at a time through BasisLabel.parse,
    a new Setting and np.isfinite, with parse_counts_csv's messages."""
    counts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if lineno == 1 or not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            a = BasisLabel.parse(parts[0])
            b = BasisLabel.parse(parts[1])
        except ParseError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        try:
            n = float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: count {parts[2]!r} is not a number")
        if not np.isfinite(n) or n < 0:
            raise ParseError(f"line {lineno}: count must be a nonnegative number, got {parts[2]!r}")
        s = Setting(a, b)
        if s in counts:
            raise DuplicateSetting(f"line {lineno}: duplicate setting {s.a},{s.b}")
        counts[s] = n
    return counts


class TestParserParity:
    def test_every_spelling_pair(self):
        for x, y in product(SPELLINGS, repeat=2):
            text = f"basis_a,basis_b,count\n {x}\t, {y} ,7\n"
            want = {Setting(BasisLabel.parse(x), BasisLabel.parse(y)): 7.0}
            assert parse_counts_csv(text).counts == reference_parse_rows(text) == want

    @pytest.mark.parametrize(
        "rows",
        [
            "W,H,3",
            "H,W,3",
            " w , x ,3",
            "H,V,nan",
            "H,V,inf",
            "H,V,-3",
            "H,V,-0.5",
            "H,V,abc",
            "H,V",
            "H,V,3,4",
            "D,-,10\nD,A,11",
            "H,H,1\n+,q,2",
        ],
    )
    def test_errors_match_reference(self, rows):
        text = f"basis_a,basis_b,count\n{rows}\n"
        with pytest.raises(ParseError) as want:
            reference_parse_rows(text)
        with pytest.raises(ParseError) as got:
            parse_counts_csv(text)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestJointExpectation:
    def test_block1_zz(self, block1):
        est = joint_expectation(block1, 3, 3)
        expected = (26 + 16 - 5005 - 4881) / (26 + 16 + 5005 + 4881)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.value == pytest.approx(-0.9915, abs=5e-4)
        assert est.sigma > 0

    def test_exact_singlet_xx(self, singlet):
        est = joint_expectation(exact_table(singlet), 1, 1)
        assert est.value == pytest.approx(-1.0, abs=1e-12)
        assert est.sigma == 0.0

    def test_exact_hh_zz(self, rho_hh):
        est = joint_expectation(exact_table(rho_hh), 3, 3)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_missing_setting_named(self, singlet):
        table = exact_table(singlet)
        del table.counts[Setting(D, A)], table.counts[Setting(A, A)]
        with pytest.raises(MissingSetting, match="D,A"):  # the first missing in the group's order
            joint_expectation(table, 1, 1)


class TestMarginalExpectation:
    def test_exact_singlet_marginal_zero(self, singlet):
        est = marginal_expectation(exact_table(singlet), "A", 3)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_exact_hh_marginal_plus_one(self, rho_hh):
        est = marginal_expectation(exact_table(rho_hh), "A", 3)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_block1_side_a(self, block1):
        est = marginal_expectation(block1, "A", 3)
        expected = (26 + 5005 - 4881 - 16) / (26 + 5005 + 4881 + 16)
        assert est.value == pytest.approx(expected, abs=1e-12)
        assert est.value == pytest.approx(0.0135, abs=5e-4)

    def test_bad_side_rejected(self, block1):
        with pytest.raises(ValueError):
            marginal_expectation(block1, "C", 3)


@pytest.mark.parametrize(
    "call, index",
    [
        (lambda t: joint_expectation(t, 0, 1), 0),
        (lambda t: joint_expectation(t, 1, 0), 0),
        (lambda t: joint_expectation(t, 4, 2), 4),
        (lambda t: joint_expectation(t, 2, -1), -1),
        (lambda t: marginal_expectation(t, "A", 0), 0),
        (lambda t: marginal_expectation(t, "B", 4), 4),
    ],
    ids=["joint-0-1", "joint-1-0", "joint-4-2", "joint-2-minus-1", "marginal-A-0", "marginal-B-4"],
)
def test_bad_pauli_index_rejected_as_covariance_rejects_it(block1, call, index):
    with pytest.raises(ValueError, match=rf"Pauli index [ij] must be (1\.\.3, not 0|in 1\.\.3, got {index})$") as info:
        call(block1)
    assert isinstance(info.value, IdentityIndexNotAllowed) == (index == 0)


class TestGFromCounts:
    def test_block1_in_reported_range(self, block1):
        res = g_from_counts(block1)
        assert 2.74 <= res.g <= 2.94
        assert res.delta_g > 0

    def test_exact_singlet(self, singlet):
        res = g_from_counts(exact_table(singlet))
        assert res.g == pytest.approx(3.0, abs=1e-9)
        assert res.delta_g == 0.0

    def test_exact_product_state(self, rho_hh):
        assert g_from_counts(exact_table(rho_hh)).g == pytest.approx(0.0, abs=1e-12)

    def test_missing_setting(self, singlet):
        table = exact_table(singlet)
        del table.counts[Setting(L, L)]
        with pytest.raises(MissingSetting, match="L,L"):
            g_from_counts(table)

    def test_group_probabilities_normalized(self, block1):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                group = group_settings(i, j)
                total = sum(block1.counts[s] for s in group)
                probs = [block1.counts[s] / total for s in group]
                assert all(p >= 0 for p in probs)
                assert sum(probs) == pytest.approx(1.0, abs=1e-12)


class TestKFromCounts:
    def test_target_state_vanishes(self):
        s = SchmidtCoeffs(0.8, 0.6)
        rho = pure_to_density(np.array([0.8, 0, 0, 0.6], dtype=complex))
        res = k_from_counts(exact_table(rho, settings=KMODE_SETTINGS), s)
        assert res.k == pytest.approx(0.0, abs=1e-9)
        assert res.delta_k == 0.0

    def test_hh_hits_bound(self, rho_hh):
        for a in (0.6, 0.8, 1.0):
            s = SchmidtCoeffs(a, np.sqrt(1 - a * a))
            res = k_from_counts(exact_table(rho_hh, settings=KMODE_SETTINGS), s)
            assert res.k == pytest.approx(2 * (a * np.sqrt(1 - a * a)) ** 2, abs=1e-9)

    def test_maximally_mixed(self, maximally_mixed):
        s = SchmidtCoeffs(SQ2, SQ2)
        res = k_from_counts(exact_table(maximally_mixed, settings=KMODE_SETTINGS), s)
        assert res.k == pytest.approx(0.75, abs=1e-9)

    def test_works_on_full_table(self, singlet):
        s = SchmidtCoeffs(SQ2, SQ2)
        res = k_from_counts(exact_table(singlet), s)
        assert res.k == pytest.approx(k_measure(singlet, s).k, abs=1e-9)

    def test_missing_setting(self, singlet):
        table = exact_table(singlet, settings=KMODE_SETTINGS)
        del table.counts[Setting(R, L)]
        with pytest.raises(MissingSetting, match="R,L"):
            k_from_counts(table, SchmidtCoeffs(SQ2, SQ2))


class TestEstimatorConsistency:
    def test_exact_mode_matches_state_measures(self):
        rng = np.random.default_rng(81)
        for n in range(100):
            rho = random_density(rng) if n % 2 else pure_to_density(random_pure(rng))
            table = exact_table(rho, n=4321.0)
            assert abs(g_from_counts(table).g - g_measure(rho).g) < 1e-9
            u = rng.uniform(0, 1)
            s = SchmidtCoeffs(np.sqrt(u), np.sqrt(1 - u))
            assert abs(k_from_counts(table, s).k - k_measure(rho, s).k) < 1e-9


class TestPoissonErrorBars:
    def test_sigma_positive_and_shrinks_with_flux(self, singlet):
        res_small = g_from_counts(
            simulate_counts(singlet, FULL_SETTINGS, SimConfig(500, "poisson", seed=1))
        )
        res_big = g_from_counts(
            simulate_counts(singlet, FULL_SETTINGS, SimConfig(50_000, "poisson", seed=1))
        )
        assert res_small.delta_g > res_big.delta_g > 0

    def test_parsed_tables_get_error_bars(self, block1):
        est = joint_expectation(block1, 2, 2)
        assert est.sigma > 0

    def test_expectation_sigma_is_group_delta_method(self, block1):
        side_a = np.array([1.0, 1.0, -1.0, -1.0])
        side_b = np.array([1.0, -1.0, 1.0, -1.0])
        cases = [(joint_expectation(block1, i, j), (i, j), side_a * side_b) for i in (1, 2, 3) for j in (1, 2, 3)]
        for i in (1, 2, 3):
            cases.append((marginal_expectation(block1, "A", i), (i, i), side_a))
            cases.append((marginal_expectation(block1, "B", i), (i, i), side_b))
        for est, group, signs in cases:
            n = np.array([block1.counts[s] for s in group_settings(*group)])
            total = n.sum()
            assert est.value == pytest.approx((signs * n).sum() / total, abs=1e-15)
            sigma = np.sqrt((((signs - est.value) / total) ** 2 * n).sum())
            assert est.sigma == pytest.approx(sigma, rel=1e-12)


def central_difference_sigma(table, settings, measure, h=1e-3):
    """sqrt(sum_k (df/dn_k)^2 n_k), with df/dn_k a central difference of
    step h counts on tables rebuilt as exact (so none computes its own
    error bar)."""
    var = 0.0
    for s in settings:
        n = table.counts[s]
        if n == 0:
            continue
        up, down = dict(table.counts), dict(table.counts)
        up[s], down[s] = n + h, n - h
        deriv = (measure(CountsTable(up, source="exact")) - measure(CountsTable(down, source="exact"))) / (2 * h)
        var += deriv * deriv * n
    return float(np.sqrt(var))


class TestAnalyticErrorBars:
    def test_delta_g_matches_central_difference(self, block1):
        reference = central_difference_sigma(block1, FULL_SETTINGS, lambda t: g_from_counts(t).g)
        assert g_from_counts(block1).delta_g == pytest.approx(reference, rel=1e-6)

    def test_delta_k_matches_central_difference(self):
        rho = phase_damping(pure_to_density(prepare_parallel(np.radians(22.5))), ChannelSpec("z", 0.5))
        table = simulate_counts(rho, KMODE_SETTINGS, SimConfig(5000, "poisson", seed=4))
        s = SchmidtCoeffs(np.cos(np.radians(45)), np.sin(np.radians(45)))
        res = k_from_counts(table, s)
        assert res.k > 0.1  # away from the clamp at 0
        reference = central_difference_sigma(table, KMODE_SETTINGS, lambda t: k_from_counts(t, s).k)
        assert res.delta_k == pytest.approx(reference, rel=1e-6)

    def test_k_reads_only_the_kmode_subset(self):
        full = simulate_counts(random_density(83), FULL_SETTINGS, SimConfig(500, "poisson", seed=8))
        subset = CountsTable({s: full.counts[s] for s in KMODE_SETTINGS}, source="poisson")
        s = SchmidtCoeffs(0.8, 0.6)
        on_full, on_subset = k_from_counts(full, s), k_from_counts(subset, s)
        assert on_full.k == on_subset.k
        assert on_full.delta_k == on_subset.delta_k > 0
        assert on_full.expectations == on_subset.expectations

    def test_zero_total_group_rejected_only_where_read(self, singlet):
        table = exact_table(singlet)
        for s in group_settings(1, 2):
            table.counts[s] = 0.0
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            g_from_counts(table)
        assert k_from_counts(table, SchmidtCoeffs(SQ2, SQ2)).k == pytest.approx(0.0, abs=1e-9)


class TestGroupTotalOutOfRange:
    """A group total that is not positive with a finite inverse is named,
    and no numpy warning escapes."""

    @pytest.mark.parametrize("count,kind", [(1e308, "non-finite"), (1e-320, "subnormal")])
    def test_g_tomography_and_expectations_name_the_group(self, block1, count, kind):
        table = CountsTable(dict(block1.counts))
        for s in group_settings(2, 3):
            table.counts[s] = count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for estimate in (g_from_counts, reconstruct, lambda t: joint_expectation(t, 2, 3)):
                with pytest.raises(ValueError, match=rf"settings group \(2, 3\) has {kind} total counts"):
                    estimate(table)
            assert k_from_counts(table, SchmidtCoeffs(0.8, 0.6)).delta_k > 0

    def test_first_bad_group_is_named(self):
        table = CountsTable({s: 1e308 for s in FULL_SETTINGS})
        with pytest.raises(ValueError, match=r"settings group \(1, 1\) has non-finite total counts"):
            g_from_counts(table)


class TestCountsTableValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            CountsTable(counts={Setting(H, H): -1.0})

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_count_rejected(self, n):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            CountsTable(counts={Setting(H, H): n})

    @pytest.mark.parametrize("key", ["HV", Setting("H", "V"), (H, "V")], ids=["str", "setting-of-str", "tuple-of-mixed"])
    def test_key_that_is_not_a_setting_rejected(self, key):
        with pytest.raises(ValueError, match="is not one of the 36 settings") as excinfo:
            CountsTable(counts={Setting(H, H): 1.0, key: 3.0})
        assert repr(key) in str(excinfo.value)

    def test_label_tuple_key_accepted(self):
        table = CountsTable(counts={(H, V): 3.0})
        assert table.counts[Setting(H, V)] == 3.0

    def test_replaced_counts_of_a_parsed_table_are_checked(self, block1):
        # parse_counts_csv checks each row itself, so its table skips the check
        # that a copy with new counts must still make
        with pytest.raises(ValueError, match="nonnegative and finite"):
            dataclasses.replace(block1, counts={Setting(H, H): -1.0})


def dense_jacobian_reference(table, settings):
    """n (36,), t (4, 4) and dt/dn (16, 36) of the group-normalized estimator,
    built group by group from group_settings: over the group of total T
    that entry e reads, t_e = sum_k s_k n_k / T and dt_e/dn_k = (s_k - t_e) / T.
    The sum is scaled by 1 / T, as the estimator does, so t compares exactly."""
    side_a, side_b = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    n = np.array([table.counts[s] if s in settings else 0.0 for s in FULL_SETTINGS])
    t, jac = np.zeros(16), np.zeros((16, 36))
    t[0] = 1.0
    for i, j in product((1, 2, 3), repeat=2):
        group = group_settings(i, j)
        if not set(group) <= set(settings):
            continue
        cols = [FULL_SETTINGS.index(s) for s in group]
        total = n[cols].sum()
        entries = [(4 * i + j, side_a * side_b)] + ([(4 * i, side_a), (j, side_b)] if i == j else [])
        for e, signs in entries:
            t[e] = (signs * n[cols]).sum() * (1.0 / total)
            jac[e, cols] = (signs - t[e]) / total
    return n, t.reshape(4, 4), jac


def dense_sigma(n, jac, grad_t):
    """sqrt(sum_k (grad_t . dt/dn_k)^2 n_k)."""
    return float(np.sqrt(np.sum((grad_t.reshape(16) @ jac) ** 2 * n)))


class TestGroupTensorMatchesDenseJacobian:
    """The per-group estimator against the dense 16 x 36 Jacobian it replaced."""

    def test_group_slots_are_group_settings_ordinals(self):
        for i, j in product((1, 2, 3), repeat=2):
            assert _GROUP_SLOTS[i - 1, j - 1].tolist() == [FULL_SETTINGS.index(s) for s in group_settings(i, j)]

    @staticmethod
    def check_g(table):
        n, t, jac = dense_jacobian_reference(table, FULL_SETTINGS)
        g, _, grad = _g_terms(t)
        res = g_from_counts(table)
        assert np.array_equal(res.estimate[0], t)
        assert res.g == g
        assert res.delta_g == pytest.approx(dense_sigma(n, jac, grad), rel=1e-12)

    @staticmethod
    def check_k(table, s):
        n, t, jac = dense_jacobian_reference(table, KMODE_SETTINGS)
        k, m, grad = _k_terms(t, s.a, s.b)
        res = k_from_counts(table, s)
        assert res.k == k
        assert res.expectations == tuple(m.tolist())
        assert res.delta_k == pytest.approx(dense_sigma(n, jac, grad), rel=1e-12)
        if table.counts.keys() >= set(FULL_SETTINGS):  # k on the full estimate that g was made from
            assert k_from_counts(table, s, g_from_counts(table)) == res

    @pytest.mark.parametrize("name", ["tableII_block1.csv", "tableII_block2.csv"])
    def test_fixtures(self, name):
        with open(data_file(name), encoding="utf-8") as fh:
            table = parse_counts_csv(fh.read())
        self.check_g(table)
        self.check_k(table, SchmidtCoeffs(0.8, 0.6))
        self.check_k(CountsTable({s: table.counts[s] for s in KMODE_SETTINGS}), SchmidtCoeffs(0.6, 0.8))

    @pytest.mark.parametrize("flux", [50.0, 5000.0])
    def test_random_poisson_tables(self, flux):
        rng = np.random.default_rng(int(flux))
        for seed in range(50):
            rho = random_density(rng) if seed % 2 else pure_to_density(random_pure(rng))
            table = simulate_counts(rho, FULL_SETTINGS, SimConfig(flux, "poisson", seed))
            u = rng.uniform(0, 1)
            s = SchmidtCoeffs(np.sqrt(u), np.sqrt(1 - u))
            self.check_g(table)
            self.check_k(table, s)
            self.check_k(simulate_counts(rho, KMODE_SETTINGS, SimConfig(flux, "poisson", seed)), s)
