"""Bit-identity tests for two summation orders: the setting probabilities of
counts._simulate, whose fixed diagonal sum replaced np.trace(...).real, and
tomography.linear_inversion, which is the einsum over the 16 Pauli tensors
that defines it. The trace form and the einsum are kept here as references,
so the tests pin that each stays what it replaced or what it is. Results
are compared as raw bits, so signed zeros count. The examples are
derandomized, so every run draws the same ones."""

import argparse
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import FULL_SETTINGS, KMODE_SETTINGS, SimConfig, cli, linear_inversion, simulate_counts  # noqa: E402
from entquant.counts import _ORDINAL, _POISSON_MAX, _PROJECTORS, _pauli_matrix, _poisson, _simulate, seed_states  # noqa: E402
from entquant.measures import _PAULI_TENSOR, pauli_expectation_matrix  # noqa: E402
from entquant.tomography import pauli_vector_from_counts  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # tells -0.0 from 0.0


# -- reference forms ---------------------------------------------------------


def ref_simulate(rhos, settings, cfg):
    """counts._simulate after its state checks, with the probabilities read
    by np.trace."""
    ords = [_ORDINAL[s] for s in settings]
    p = np.trace(rhos[..., None, :, :] @ _PROJECTORS[ords], axis1=-2, axis2=-1).real
    counts = cfg.n_per_setting * np.where(p > 0.0, p, 0.0)
    if cfg.noise == "poisson":
        seed = seed_states(cfg.seed, *np.indices(rhos.shape[:-2]))[..., :1] if rhos.ndim > 2 else cfg.seed
        counts = _poisson(np.minimum(counts, _POISSON_MAX), seed_states(seed, np.array(ords)))
    n = np.zeros(counts.shape[:-1] + (len(FULL_SETTINGS),))
    n[..., ords] = counts
    return n


def ref_linear_inversion(t):
    t = np.asarray(t, dtype=float)
    return np.einsum("...k,kij->...ij", t.reshape(t.shape[:-2] + (16,)), _PAULI_TENSOR) / 4.0


# -- inputs ------------------------------------------------------------------


def hs_state(seed, rank):
    """A Hilbert-Schmidt random state of the given rank: G G^dagger / tr for
    a 4 x rank Ginibre G."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def sweep_states(family, theta, damp, plates):
    """The states sweep-g prepares at the angles theta (degrees), through two
    half-wave plates and a quarter-wave plate when plates is true."""
    hwp, qwp = (["a:22.5", "b:10"], ["b:45"]) if plates else (None, None)
    args = argparse.Namespace(family=family, damp=damp, hwp=hwp, qwp=qwp)
    return cli._prepared_density(args, theta, cli._arm_unitaries(args))


#: A member of a stack: an HS random state of rank 1-4, or a sweep-g state,
#: damped or not, through waveplates or not.
members = st.one_of(
    st.tuples(st.integers(0, 2**32), st.integers(1, 4)).map(lambda a: hs_state(*a)),
    st.tuples(
        st.sampled_from(["parallel", "antiparallel"]),
        st.floats(0.0, 45.0),
        st.sampled_from([None, "z:0.3", "x:0.7"]),
        st.booleans(),
    ).map(lambda a: sweep_states(a[0], np.array(a[1]), *a[2:])),
)
#: A single state (), a stack (B,) or a stack of two leading axes (B1, B2).
shapes = st.sampled_from([(), (1,), (2,), (7,), (12,), (2, 3), (3, 5)])
stacks = shapes.flatmap(
    lambda shape: st.lists(members, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda ms: np.stack(ms).reshape(shape + (4, 4))
    )
)
configs = st.one_of(
    st.sampled_from([1.0, 5000.0]).map(SimConfig),
    st.tuples(st.sampled_from([50.0, 5000.0]), st.integers(0, 2**32)).map(lambda a: SimConfig(a[0], "poisson", a[1])),
)
setting_lists = st.sampled_from([FULL_SETTINGS, KMODE_SETTINGS])


# -- setting probabilities ---------------------------------------------------


@SETTINGS
@hypothesis.given(stacks, setting_lists, configs)
def test_probabilities_of_states(rhos, settings, cfg):
    assert_same_bits(_simulate(rhos, settings, cfg), ref_simulate(rhos, settings, cfg))


@pytest.mark.parametrize("family", ["parallel", "antiparallel"])
@pytest.mark.parametrize("damp", [None, "z:0.3", "x:0.7"])
@pytest.mark.parametrize("plates", [False, True])
@pytest.mark.parametrize("cfg", [SimConfig(5000.0), SimConfig(5000.0, "poisson", 7), SimConfig(50.0, "poisson", 5)])
def test_sweep_grids(family, damp, plates, cfg):
    rhos = sweep_states(family, np.linspace(0.0, 45.0, 46), damp, plates)
    n = _simulate(rhos, FULL_SETTINGS, cfg)
    assert_same_bits(n, ref_simulate(rhos, FULL_SETTINGS, cfg))
    t = _pauli_matrix(n, FULL_SETTINGS)[0]
    assert_same_bits(linear_inversion(t), ref_linear_inversion(t))


# -- linear inversion --------------------------------------------------------

#: Entries of t: any float in [-1, 1], a value where sign and cancellation
#: decide the bits (halves, exact 1s, tiny values), or a signed zero, so that
#: some entries of rho sum four zeros.
entries = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.25, 5e-324, -5e-324, 1e-300]),
    st.sampled_from([0.0, -0.0]),
)
t_arrays = shapes.flatmap(
    lambda shape: st.lists(entries, min_size=16 * math.prod(shape), max_size=16 * math.prod(shape)).map(
        lambda xs: np.array(xs).reshape(shape + (4, 4))
    )
)


@SETTINGS
@hypothesis.given(t_arrays)
@hypothesis.example(np.full((4, 4), -0.0))  # rho[0, 0] sums four -0.0 terms, which einsum gives as 0.0
@hypothesis.example(np.zeros((2, 3, 4, 4)))
def test_linear_inversion_of_any_t(t):
    assert_same_bits(linear_inversion(t), ref_linear_inversion(t))


@SETTINGS
@hypothesis.given(stacks)
def test_linear_inversion_of_states(rhos):
    t = pauli_expectation_matrix(rhos)
    assert_same_bits(linear_inversion(t), ref_linear_inversion(t))


@SETTINGS
@hypothesis.given(stacks, configs)
def test_linear_inversion_of_tables(rhos, cfg):
    t = _pauli_matrix(_simulate(rhos, FULL_SETTINGS, cfg), FULL_SETTINGS)[0]
    assert_same_bits(linear_inversion(t), ref_linear_inversion(t))
    if rhos.ndim == 2:
        t = pauli_vector_from_counts(simulate_counts(rhos, FULL_SETTINGS, cfg))
        assert_same_bits(linear_inversion(t), ref_linear_inversion(t))
