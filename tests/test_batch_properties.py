"""Property tests: a call on a stack of states or tables gives, bit for bit,
what the same call gives on each member alone. The batched sweeps rely on
this. Shortcuts are checked against the longer computation they replace:
the k projection against its complex trace, bit for bit, and the
tomographic concurrence against the concurrence of the projected state.
The examples are derandomized, so every run draws the same ones."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import FULL_SETTINGS, KMODE_SETTINGS, concurrence, linear_inversion, project_to_physical  # noqa: E402
from entquant.algebra import pure_to_density, random_density, random_pure  # noqa: E402
from entquant.counts import _delta, _pauli_matrix, group_settings  # noqa: E402
from entquant.measures import (  # noqa: E402
    _PAULI_TENSOR,
    _g_terms,
    _k_projection,
    _k_projectors,
    pauli_expectation_matrix,
)
from entquant.tomography import _spectrum, _tomo_concurrence  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)

#: A member of a stack: a mixed, a pure (rank 1) or a diagonal product state.
members = st.one_of(
    st.integers(0, 2**32).map(random_density),
    st.integers(0, 2**32).map(lambda seed: pure_to_density(random_pure(seed))),
    st.sampled_from([np.diag([1.0, 0, 0, 0]).astype(complex), np.eye(4, dtype=complex) / 4]),
)
stacks = st.lists(members, min_size=1, max_size=12).map(np.stack)


def assert_members_equal(batched, single):
    for i, want in enumerate(single):
        assert np.array_equal(batched[i], want, equal_nan=True), i


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # tells -0.0 from 0.0


@SETTINGS
@hypothesis.given(stacks)
def test_concurrence(rhos):
    assert_members_equal(concurrence(rhos), [concurrence(rho) for rho in rhos])
    pair = concurrence(np.stack([rhos, rhos[::-1]]))  # a stack of two leading axes
    assert_members_equal(pair[1], [concurrence(rho) for rho in rhos[::-1]])


@SETTINGS
@hypothesis.given(stacks, st.integers(0, 2**32))
def test_tomography(rhos, seed):
    noise = np.random.default_rng(seed).normal(scale=0.05, size=(len(rhos), 4, 4))
    noise[:, 0, 0] = 0.0
    t = pauli_expectation_matrix(rhos) + noise  # unphysical, as noisy counts make it
    batched = project_to_physical(linear_inversion(t))
    assert_members_equal(batched, [project_to_physical(linear_inversion(ti)) for ti in t])
    w, v = _spectrum(linear_inversion(t))
    rho = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    assert np.array_equal(rho, batched)
    # the state's eigenvalue check reads w.min() in place of an eigensolve of the state
    np.testing.assert_allclose(w.min(axis=-1), np.linalg.eigvalsh(rho).min(axis=-1), rtol=0.0, atol=1e-14)


tables = st.tuples(
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.sampled_from([0.5, 3.0, 50.0, 5000.0, 1e12]),
    st.sampled_from([FULL_SETTINGS, KMODE_SETTINGS]),
    st.booleans(),
    st.sampled_from([None, 0.0, 1e308, 1e-320]),  # a count to fill one read group of one member with
)


@SETTINGS
@hypothesis.given(tables)
def test_estimates_and_error_bars(spec):
    size, seed, flux, settings, exact, fill = spec
    rng = np.random.default_rng(seed)
    n = rng.poisson(flux, size=(size, 36)).astype(float) + 1.0  # every group total positive
    if rng.random() < 0.5:
        n *= rng.uniform(0.5, 2.0, size=n.shape)  # non-integer counts
    if fill is not None:  # a zero, non-finite or subnormal total, which marks the group unreadable
        i = rng.integers(1, 4)
        j = rng.integers(1, 4) if settings is FULL_SETTINGS else i  # k-mode reads the diagonal groups
        n[rng.integers(size), [FULL_SETTINGS.index(s) for s in group_settings(i, j)]] = fill
    t, groups, inv, bad = _pauli_matrix(n, settings)
    g, _, grad = _g_terms(t)
    dg = _delta(groups, inv, grad, exact)
    _tomo_concurrence(t)  # the pytest configuration makes a numpy RuntimeWarning an error
    assert bad.sum() == (fill is not None)
    for i in range(size):
        ti, gi, invi, badi = _pauli_matrix(n[i], settings)
        g1, _, grad1 = _g_terms(ti)
        assert np.array_equal(t[i], ti) and np.array_equal(inv[i], invi)
        assert_same_bits(t[i], ti)
        assert_same_bits(inv[i], invi)
        assert np.array_equal(bad[i], badi)
        assert np.array_equal(g[i], g1)
        assert np.array_equal(dg[i], _delta(gi, invi, grad1, exact))


@SETTINGS
@hypothesis.given(stacks)
def test_g_of_a_stack_with_its_tables_innermost(rhos):
    t = pauli_expectation_matrix(rhos)
    inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(t, 0, -1)), -1, 0)  # the same values, tables innermost
    assert not inner.flags.c_contiguous or len(rhos) == 1
    g = _g_terms(inner)[0]
    assert_same_bits(g, np.array([_g_terms(ti)[0] for ti in t]))


#: Schmidt coefficients: (cos 2t, sin 2t) as sweep-k makes them, any
#: normalized pair, the pairs where a term is exactly 0, and one where ab/2
#: underflows to a signed zero.
schmidt_pairs = st.one_of(
    st.floats(0.0, np.pi / 4).map(lambda t: (np.cos(2 * t), np.sin(2 * t))),
    st.floats(0.0, 1.0).map(lambda a: (a, np.sqrt(1.0 - a * a))),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5)), (5e-324, 1.0)]),
)


def complex_k_projection(a, b):
    return np.einsum("eij,...mji->...me", _PAULI_TENSOR, _k_projectors(a, b)).real / 4.0


@SETTINGS
@hypothesis.given(st.lists(schmidt_pairs, min_size=1, max_size=12))
def test_k_projection(pairs):
    a, b = np.array(pairs).T
    for ai, bi in pairs:
        assert_same_bits(_k_projection(ai, bi), complex_k_projection(ai, bi))
    assert_same_bits(_k_projection(a[:, None], b[:, None]), complex_k_projection(a[:, None], b[:, None]))


@SETTINGS
@hypothesis.given(stacks, st.integers(0, 2**32), st.sampled_from([0.0, 0.05]))
@hypothesis.example(np.eye(4, dtype=complex)[None] / 4, 0, 0.0)
def test_tomographic_concurrence(rhos, seed, scale):
    noise = np.random.default_rng(seed).normal(scale=scale, size=(len(rhos), 4, 4))
    noise[:, 0, 0] = 0.0
    t = pauli_expectation_matrix(rhos) + noise
    c = _tomo_concurrence(t)
    assert_members_equal(c, [_tomo_concurrence(ti) for ti in t])
    want = [concurrence(project_to_physical(linear_inversion(ti))) for ti in t]
    np.testing.assert_allclose(c, want, rtol=0.0, atol=1e-12)
