"""Bit-identity tests for the state-preparation layer: each helper against
the longer form it replaced, kept here as the reference. Kronecker products
against np.kron, the dephasing channel against its loop over the four joint
Kraus terms, the prepared kets against np.stack(...).astype(complex), the
local unitaries against their products spelled out in real arithmetic in
algebra._matmul's order, and the simulate verb against simulate_counts on a
state built from these references. Results are compared as raw bits, so
signed zeros count. The matrix products that the local unitaries replaced,
np.kron and @, are kept as a second oracle within ZGEMM_BOUND. The examples
are derandomized, so every run draws the same ones."""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import (  # noqa: E402
    FULL_SETTINGS,
    KMODE_SETTINGS,
    ChannelSpec,
    SimConfig,
    WaveplateSpec,
    apply_local_unitary,
    cli,
    phase_damping,
    prepare_antiparallel,
    prepare_parallel,
    pure_to_density,
    simulate_counts,
    tensor_product,
    waveplate_unitary,
    write_counts_csv,
)
from entquant.algebra import pauli_operator, random_density, random_pure, random_unitary  # noqa: E402
from entquant.counts import _LABEL_ORDER, _PROJECTORS  # noqa: E402
from entquant.errors import NonUnitary  # noqa: E402
from entquant.measures import _PAULI_TENSOR, _SIGMA_YY  # noqa: E402
from entquant.optics import joint_projector  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # tells -0.0 from 0.0


# -- reference forms ---------------------------------------------------------


def ref_local_kraus(chan):
    sigma = {"x": 1, "z": 3}[chan.basis]
    return [np.sqrt(1.0 - chan.p) * np.eye(2, dtype=complex), np.sqrt(chan.p) * pauli_operator(sigma)]


def ref_phase_damping(rho, chan):
    local = ref_local_kraus(chan)
    out = np.zeros(np.shape(rho), dtype=complex)
    for ka in local:
        for kb in local:
            k = np.kron(ka, kb)
            out += k @ np.asarray(rho) @ k.conj().T
    return out


def ref_matmul(a, b):
    """a @ b with each entry's four real sums spelled out, each from zero in k
    order: sum a.re b.re - sum a.im b.im, sum a.re b.im + sum a.im b.re."""

    def total(x, y):
        out = 0.0
        for k in range(x.shape[-1]):
            out = out + x[..., :, k, None] * y[..., k, None, :]
        return out

    out = np.empty(np.broadcast_shapes(a.shape[:-1] + (1,), b.shape[:-2] + (1, b.shape[-1])), dtype=complex)
    out.real = total(a.real, b.real) - total(a.imag, b.imag)
    out.imag = total(a.real, b.imag) + total(a.imag, b.real)
    return out


def ref_kron(u_a, u_b):
    """u_a (x) u_b, each entry one complex product in real arithmetic, its two
    real parts each added to zero first, as ref_matmul of a 1-term sum."""
    u_a, u_b = np.asarray(u_a, dtype=complex), np.asarray(u_b, dtype=complex)
    out = np.empty((4, 4), dtype=complex)
    out.real = (0.0 + np.kron(u_a.real, u_b.real)) - (0.0 + np.kron(u_a.imag, u_b.imag))
    out.imag = (0.0 + np.kron(u_a.real, u_b.imag)) + (0.0 + np.kron(u_a.imag, u_b.real))
    return out


def ref_apply_local_unitary(rho, u_a, u_b):
    u = ref_kron(u_a, u_b)
    return ref_matmul(ref_matmul(u, np.asarray(rho, dtype=complex)), u.conj().T)


def zgemm_apply_local_unitary(rho, u_a, u_b):
    """The np.kron and @ form that apply_local_unitary replaced."""
    u = np.kron(u_a, u_b)
    return u @ np.asarray(rho) @ u.conj().T


#: The largest difference between an entry of apply_local_unitary and of its
#: np.kron and @ form, and between a probability of the two states: 8 ulps of
#: 1 (3.0 and 3.3 ulps measured on 3,000 and 300 random states and unitaries).
ZGEMM_BOUND = 8 * 2.0**-53


def ref_prepare_parallel(theta):
    c, s = np.cos(2 * np.asarray(theta)), np.sin(2 * np.asarray(theta))
    z = np.zeros_like(c)
    return np.stack([c, z, z, s], axis=-1).astype(complex)


def ref_prepare_antiparallel(theta):
    c, s = np.cos(2 * np.asarray(theta)), np.sin(2 * np.asarray(theta))
    z = np.zeros_like(c)
    return np.stack([z, c, -s, z], axis=-1).astype(complex)


REF_PREPARE = {"parallel": ref_prepare_parallel, "antiparallel": ref_prepare_antiparallel}


def ref_arm_unitaries(hwp, qwp, matmul=ref_matmul):
    """Per-arm waveplate unitaries, HWPs first, each later plate of an arm
    multiplying the product of the earlier ones from the left; an arm
    without plates has the identity."""
    units = {}
    plates = [(arm, WaveplateSpec("HWP", math.radians(deg))) for arm, deg in hwp]
    plates += [(arm, WaveplateSpec("QWP", math.radians(deg))) for arm, deg in qwp]
    for arm, spec in plates:
        units[arm] = matmul(waveplate_unitary(spec), units[arm]) if arm in units else waveplate_unitary(spec)
    return units.get("a", np.eye(2, dtype=complex)), units.get("b", np.eye(2, dtype=complex))


# -- inputs ------------------------------------------------------------------

#: A state: mixed, pure (rank 1), or a diagonal product state with exact zeros.
states = st.one_of(
    st.integers(0, 2**32).map(random_density),
    st.integers(0, 2**32).map(lambda seed: pure_to_density(random_pure(seed))),
    st.sampled_from([np.diag([1.0, 0, 0, 0]).astype(complex), np.eye(4, dtype=complex) / 4]),
)
stacks = st.lists(states, min_size=1, max_size=8).map(np.stack)
channels = st.builds(ChannelSpec, st.sampled_from(["x", "z"]), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
unitaries = st.integers(0, 2**32).map(random_unitary)
angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 8, math.pi / 4, -math.pi / 2]),
    st.floats(-100.0, 100.0, allow_nan=False),
)


# -- helpers -----------------------------------------------------------------


@SETTINGS
@hypothesis.given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_tensor_product_is_np_kron(seed, ndim, size, real_a):
    rng = np.random.default_rng(seed)
    shape_a, shape_b = tuple(rng.integers(1, size + 1, ndim)), tuple(rng.integers(1, size + 1, ndim))
    a = rng.normal(size=shape_a) + (0 if real_a else 1j * rng.normal(size=shape_a))
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    assert_same_bits(tensor_product(a, b), np.kron(a, b))


@SETTINGS
@hypothesis.given(unitaries, unitaries)
def test_tensor_product_of_unitaries_and_kets(u_a, u_b):
    assert_same_bits(tensor_product(u_a, u_b), np.kron(u_a, u_b))
    assert_same_bits(tensor_product(u_a[0], u_b[:, 1]), np.kron(u_a[0], u_b[:, 1]))


def test_tensor_product_needs_equal_ndim():
    with pytest.raises(ValueError):
        tensor_product(np.eye(2), np.ones(2))


def test_import_time_tables():
    assert_same_bits(_PAULI_TENSOR, np.stack([np.kron(pauli_operator(i), pauli_operator(j)) for i in range(4) for j in range(4)]))
    assert_same_bits(_SIGMA_YY, np.kron(pauli_operator(2), pauli_operator(2)))
    want = np.stack([pure_to_density(np.kron(s.a.ket, s.b.ket)) for s in FULL_SETTINGS])
    assert_same_bits(_PROJECTORS, want)
    for s, p in zip(FULL_SETTINGS, _PROJECTORS):
        assert_same_bits(joint_projector(s.a, s.b), p)
    assert [(s.a, s.b) for s in FULL_SETTINGS] == [(a, b) for a in _LABEL_ORDER for b in _LABEL_ORDER]


@SETTINGS
@hypothesis.given(channels)
def test_local_kraus(chan):
    got = chan.local_kraus()
    assert got.shape == (2, 2, 2)
    for k, want in zip(got, ref_local_kraus(chan)):
        assert_same_bits(k, want)


@SETTINGS
@hypothesis.given(states, channels)
def test_phase_damping_single_state(rho, chan):
    assert_same_bits(phase_damping(rho, chan), ref_phase_damping(rho, chan))


@SETTINGS
@hypothesis.given(stacks, channels)
def test_phase_damping_stack(rhos, chan):
    want = ref_phase_damping(rhos, chan)
    assert_same_bits(phase_damping(rhos, chan), want)
    for rho, w in zip(rhos, want):
        assert_same_bits(phase_damping(rho, chan), w)


@pytest.mark.parametrize("basis", ["x", "z"])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_phase_damping_keeps_the_signed_zeros_of_the_loop(basis, p):
    # states with exact zeros, and their negatives with -0.0 in those places
    kets = np.eye(4, dtype=complex)[[0, 1]].tolist() + [[0, 0.6, -0.8, 0], [0.6, 0, 0, 0.8j]]
    rhos = np.stack([pure_to_density(np.array(ket)) for ket in kets] + [np.eye(4, dtype=complex) / 4])
    rhos = np.concatenate([rhos, -rhos])
    chan = ChannelSpec(basis, p)
    assert_same_bits(phase_damping(rhos, chan), ref_phase_damping(rhos, chan))
    for rho in rhos:
        assert_same_bits(phase_damping(rho, chan), ref_phase_damping(rho, chan))


@SETTINGS
@hypothesis.given(st.one_of(states, stacks), unitaries, unitaries)
def test_apply_local_unitary(rho, u_a, u_b):
    got = apply_local_unitary(rho, u_a, u_b)
    assert_same_bits(got, ref_apply_local_unitary(rho, u_a, u_b))
    assert np.abs(got - zgemm_apply_local_unitary(rho, u_a, u_b)).max() <= ZGEMM_BOUND
    if got.ndim == 3:
        for r, g in zip(rho, got):
            assert_same_bits(apply_local_unitary(r, u_a, u_b), g)


def test_apply_local_unitary_keeps_signed_zeros():
    # real unitaries and states with exact zeros, and their negatives with -0.0 in those places
    rhos = np.stack([np.diag([1.0, 0, 0, 0]), np.eye(4) / 4, -np.eye(4) / 4]).astype(complex)
    for u_a, u_b in [(np.eye(2), np.eye(2)), (np.array([[0, 1], [1, 0]]), np.diag([1, -1])), (np.eye(2), 1j * np.eye(2))]:
        assert_same_bits(apply_local_unitary(rhos, u_a, u_b), ref_apply_local_unitary(rhos, u_a, u_b))


@pytest.mark.parametrize(
    "u_a,u_b,name",
    [
        (2 * np.eye(2), 2 * np.eye(2), "u_a"),  # both fail: u_a is named first
        (np.eye(2), np.eye(2) * (1 + 2e-10), "u_b"),
        (np.full((2, 2), np.nan), np.eye(2), "u_a"),
        (np.eye(2), np.array([[1, 1], [0, 1]]), "u_b"),
    ],
)
def test_apply_local_unitary_names_the_failing_arm(u_a, u_b, name):
    with pytest.raises(NonUnitary, match=f"^{name} is not unitary within 1e-10$"):
        apply_local_unitary(np.eye(4) / 4, u_a, u_b)


def test_apply_local_unitary_tolerance_is_1e_10():
    apply_local_unitary(np.eye(4) / 4, np.eye(2) * (1 + 4e-11), np.eye(2))


@SETTINGS
@hypothesis.given(st.one_of(angles, st.lists(angles, min_size=1, max_size=8).map(np.array)))
def test_prepared_kets(theta):
    assert_same_bits(prepare_parallel(theta), ref_prepare_parallel(theta))
    assert_same_bits(prepare_antiparallel(theta), ref_prepare_antiparallel(theta))


def test_prepared_kets_of_a_grid():
    grid = np.radians(np.linspace(-45.0, 90.0, 541)).reshape(541, 1)
    assert_same_bits(prepare_parallel(grid), ref_prepare_parallel(grid))
    assert_same_bits(prepare_antiparallel(grid), ref_prepare_antiparallel(grid))


# -- the simulate verb -------------------------------------------------------


@pytest.mark.parametrize("noise", ["exact", "poisson"])
@pytest.mark.parametrize("settings", ["full", "kmode"])
@pytest.mark.parametrize(
    "family,theta,damp,hwp,qwp",
    [
        ("parallel", 12.5, "z:0.3", [("a", 10.0), ("b", -33.0)], [("b", 71.5)]),
        ("antiparallel", 31.0, "x:0.85", [("b", 0.0)], [("a", 45.0), ("b", -0.0)]),
        ("parallel", 22.5, "x:1", [], [("a", 100.0), ("b", 12.0)]),
        ("antiparallel", 0.0, "z:0", [("a", 22.5), ("b", 5.0)], []),
    ],
)
def test_simulate_writes_the_reference_table(capsys, noise, settings, family, theta, damp, hwp, qwp):
    argv = ["simulate", "--family", family, "--theta", repr(theta), "--damp", damp]
    argv += [x for arm, deg in hwp for x in ("--hwp", f"{arm}:{deg!r}")]
    argv += [x for arm, deg in qwp for x in ("--qwp", f"{arm}:{deg!r}")]
    argv += ["--noise", noise, "--seed", "97", "--n", "5000", "--settings", settings]
    assert cli.main(argv) == 0
    basis, p = damp.split(":")
    damped = ref_phase_damping(pure_to_density(REF_PREPARE[family](np.radians(theta))), ChannelSpec(basis, float(p)))
    listed, cfg = FULL_SETTINGS if settings == "full" else KMODE_SETTINGS, SimConfig(5000.0, noise, 97)
    table = simulate_counts(ref_apply_local_unitary(damped, *ref_arm_unitaries(hwp, qwp)), listed, cfg)
    assert capsys.readouterr().out == write_counts_csv(table)
    rho = zgemm_apply_local_unitary(damped, *ref_arm_unitaries(hwp, qwp, np.matmul))
    zgemm = simulate_counts(rho, listed, cfg).counts
    if noise == "exact":
        assert max(abs(n - zgemm[s]) for s, n in table.counts.items()) <= 5000.0 * ZGEMM_BOUND
    else:
        assert table.counts == zgemm


# -- non-finite angles -------------------------------------------------------

STATE = ["--family", "parallel", "--theta", "10"]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize(
    "verb,flags,message",
    [
        ("simulate", ["--family", "parallel", "--theta", "{v}"], "--theta must be finite, got {v}"),
        ("ilut-check", ["--family", "parallel", "--theta", "{v}", "--hwp", "a:10"], "--theta must be finite, got {v}"),
        ("simulate", [*STATE, "--hwp", "a:{v}"], "--hwp expects <arm>:<deg> with arm a|b and a finite angle, got 'a:{v}'"),
        ("simulate", [*STATE, "--qwp", "b:{v}"], "--qwp expects <arm>:<deg> with arm a|b and a finite angle, got 'b:{v}'"),
        ("sweep-g", ["--hwp", "b:{v}"], "--hwp expects <arm>:<deg> with arm a|b and a finite angle, got 'b:{v}'"),
        ("sweep-g", ["--qwp", "a:{v}"], "--qwp expects <arm>:<deg> with arm a|b and a finite angle, got 'a:{v}'"),
        ("ilut-check", [*STATE, "--hwp", "a:{v}"], "--hwp expects <arm>:<deg> with arm a|b and a finite angle, got 'a:{v}'"),
        ("ilut-check", [*STATE, "--qwp", "b:{v}"], "--qwp expects <arm>:<deg> with arm a|b and a finite angle, got 'b:{v}'"),
    ],
)
def test_non_finite_angle_exits_2_naming_the_flag(capsys, verb, flags, message, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([verb, *(f.format(v=value) for f in flags)]) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message.format(v=value)}\n"
