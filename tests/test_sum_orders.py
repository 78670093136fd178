"""Bit-identity tests for two summation orders: the setting probabilities of
counts._simulate, an elementwise product over the 16 entries of rho reduced
by np.add.reduce, and tomography.linear_inversion, which is the einsum over
the 16 Pauli tensors that defines it. The probabilities are compared with
the reduction's order spelled out term by term, and the einsum with itself,
as raw bits, so signed zeros count. The trace of a matrix product, the
form the probabilities replaced, is kept as a second oracle: within
TRACE_BOUND of a probability, so within n times that of an exact count, and
equal on Poisson counts. The examples are derandomized, so every run draws
the same ones."""

import argparse
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import FULL_SETTINGS, KMODE_SETTINGS, SimConfig, cli, linear_inversion, simulate_counts  # noqa: E402
from entquant.counts import _ORDINAL, _POISSON_MAX, _PROJECTORS, _pauli_matrix, _simulate  # noqa: E402
from entquant.measures import _PAULI_TENSOR, pauli_expectation_matrix  # noqa: E402
from entquant.sampler import poisson_counts  # noqa: E402
from entquant.tomography import pauli_vector_from_counts  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # tells -0.0 from 0.0


# -- reference forms ---------------------------------------------------------


def summed_probabilities(rhos, ords):
    """tr(rho P) for the settings ords, summed as np.add.reduce sums 16 terms:
    a_k = rho_ij P_ji (k = 4 i + j) in real arithmetic, s_j = a_j + a_(j+8),
    then ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), added to zero."""
    r = rhos.reshape(rhos.shape[:-2] + (1, 16))
    w = _PROJECTORS[ords].swapaxes(-1, -2).reshape(len(ords), 16)
    a = [r[..., k].real * w[:, k].real - r[..., k].imag * w[:, k].imag for k in range(16)]
    s = [a[j] + a[j + 8] for j in range(8)]
    return 0.0 + (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])))


def trace_probabilities(rhos, ords):
    """tr(rho P) as np.trace of one matrix product per state and setting."""
    return np.trace(rhos[..., None, :, :] @ _PROJECTORS[ords], axis1=-2, axis2=-1).real


#: The largest difference between summed_probabilities and
#: trace_probabilities, 4 ulps of 1 (2.2e-16 measured on 400
#: Hilbert-Schmidt random states).
TRACE_BOUND = 4 * 2.0**-53


def ref_simulate(rhos, settings, cfg, probabilities=summed_probabilities):
    """counts._simulate after its state checks, with the given probabilities."""
    ords = [_ORDINAL[s] for s in settings]
    p = probabilities(rhos, ords)
    counts = cfg.n_per_setting * np.where(p > 0.0, p, 0.0)
    if cfg.noise == "poisson":
        counts = poisson_counts(np.minimum(counts, _POISSON_MAX), cfg.seed, ords)
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
#: A single state (), a stack (B,) or a stack of two leading axes (B1, B2);
#: (17,) and (3, 11) span two and three of _simulate's blocks of 16 states,
#: the last one ragged.
shapes = st.sampled_from([(), (1,), (2,), (7,), (12,), (2, 3), (3, 5), (17,), (3, 11)])
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


def assert_near_trace(n, rhos, settings, cfg):
    """n, counts from _simulate, against the trace form: within n times
    TRACE_BOUND when exact, equal when Poisson."""
    traced = ref_simulate(rhos, settings, cfg, trace_probabilities)
    if cfg.noise == "exact":
        assert np.abs(n - traced).max() <= cfg.n_per_setting * TRACE_BOUND
    else:
        assert_same_bits(n, traced)


@SETTINGS
@hypothesis.given(stacks, setting_lists, configs)
def test_probabilities_of_states(rhos, settings, cfg):
    n = _simulate(rhos, settings, cfg)
    assert_same_bits(n, ref_simulate(rhos, settings, cfg))
    assert_near_trace(n, rhos, settings, cfg)


@pytest.mark.parametrize("family", ["parallel", "antiparallel"])
@pytest.mark.parametrize("damp", [None, "z:0.3", "x:0.7"])
@pytest.mark.parametrize("plates", [False, True])
@pytest.mark.parametrize("cfg", [SimConfig(5000.0), SimConfig(5000.0, "poisson", 7), SimConfig(50.0, "poisson", 5)])
def test_sweep_grids(family, damp, plates, cfg):
    rhos = sweep_states(family, np.linspace(0.0, 45.0, 46), damp, plates)
    n = _simulate(rhos, FULL_SETTINGS, cfg)
    assert_same_bits(n, ref_simulate(rhos, FULL_SETTINGS, cfg))
    assert_near_trace(n, rhos, FULL_SETTINGS, cfg)
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
