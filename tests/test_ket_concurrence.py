"""The concurrence of a pure state read from its ket, |psi^T (YY) psi|, against
concurrence of its density matrix, which runs an eigensolve and an SVD.
sweep-g reads the c_true of an undamped sweep this way, from the kets before
the wave plates. The examples are derandomized, so every run draws the same
ones."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from entquant import (  # noqa: E402
    WaveplateSpec,
    apply_local_unitary,
    cli,
    concurrence,
    prepare_antiparallel,
    prepare_parallel,
    pure_to_density,
    waveplate_unitary,
)
from entquant.algebra import random_pure, random_unitary  # noqa: E402
from entquant.measures import _concurrence_of_kets  # noqa: E402

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
BELL = [cli._NAMED_STATES[name] for name in ("singlet", "psi_plus", "phi_plus", "phi_minus")]


def product_ket(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


#: A member of a stack: a Haar-random ket, a product ket, a Bell state or a
#: state that sweep-g prepares.
members = st.one_of(
    st.integers(0, 2**32).map(random_pure),
    st.integers(0, 2**32).map(product_ket),
    st.sampled_from(BELL),
    st.tuples(st.sampled_from([prepare_parallel, prepare_antiparallel]), st.floats(0.0, 45.0)).map(
        lambda a: a[0](math.radians(a[1]))
    ),
)
#: A single ket (), a stack (B,) or a stack of two leading axes (B1, B2).
shapes = st.sampled_from([(), (1,), (2,), (7,), (12,), (2, 3), (3, 5)])
stacks = shapes.flatmap(
    lambda shape: st.lists(members, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda ms: np.stack(ms).reshape(shape + (4,))
    )
)


def local_unitary(seed):
    """Haar-random u_a, u_b, each times a random phase, so that det u is any
    phase, not 1."""
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=2))
    return phases[0] * random_unitary(rng.integers(2**32)), phases[1] * random_unitary(rng.integers(2**32))


@SETTINGS
@hypothesis.given(stacks)
def test_equals_the_concurrence_of_the_density_matrix(psi):
    c = _concurrence_of_kets(psi)
    assert np.shape(c) == psi.shape[:-1]
    np.testing.assert_allclose(c, concurrence(pure_to_density(psi)), rtol=0.0, atol=1e-14)
    flat = np.reshape(c, -1)
    for i, ket in enumerate(psi.reshape(-1, 4)):  # a stack gives each member's value bit for bit
        assert flat[i] == _concurrence_of_kets(ket), i


@pytest.mark.parametrize("psi,want", [(BELL[0], 1.0), (BELL[2], 1.0), (np.eye(4, dtype=complex)[1], 0.0)])
def test_named_states(psi, want):
    assert _concurrence_of_kets(psi) == pytest.approx(want, rel=0.0, abs=1e-15)
    assert isinstance(_concurrence_of_kets(psi), float)


@SETTINGS
@hypothesis.given(stacks, st.integers(0, 2**32))
def test_invariant_under_local_unitaries(psi, seed):
    u_a, u_b = local_unitary(seed)
    assert abs(abs(np.linalg.det(u_a)) - 1.0) < 1e-12 and abs(np.linalg.det(u_a) - 1.0) > 1e-6
    plated = psi @ np.kron(u_a, u_b).T
    np.testing.assert_allclose(_concurrence_of_kets(plated), _concurrence_of_kets(psi), rtol=0.0, atol=1e-14)


@SETTINGS
@hypothesis.given(stacks, st.integers(0, 16))
def test_never_exceeds_one(psi, ulps):
    # a ket a few ulps longer than 1, as rounding leaves one, reads at most 1
    scaled = psi * (1.0 + ulps * np.finfo(float).eps)
    assert np.all(_concurrence_of_kets(scaled) <= 1.0)
    assert np.all(_concurrence_of_kets(psi) <= 1.0)


def _plates(flags):
    """The arm unitaries of the --hwp/--qwp flags: each arm's HWPs, then its QWPs."""
    units = {"a": np.eye(2, dtype=complex), "b": np.eye(2, dtype=complex)}
    for kind in ("HWP", "QWP"):
        for flag, value in zip(flags[::2], flags[1::2]):
            if flag == f"--{kind.lower()}":
                arm, deg = value.split(":")
                units[arm] = waveplate_unitary(WaveplateSpec(kind, math.radians(float(deg)))) @ units[arm]
    return units["a"], units["b"]


@pytest.mark.parametrize("family,prep", [("parallel", prepare_parallel), ("antiparallel", prepare_antiparallel)])
@pytest.mark.parametrize("flags", [(), ("--hwp", "a:30"), ("--qwp", "b:17"),
                                   ("--hwp", "b:22.5", "--qwp", "a:40", "--qwp", "b:-12")])
def test_sweep_g_c_true_is_the_plated_states_concurrence(monkeypatch, capsys, family, prep, flags):
    written, cli_csv = [], cli._csv

    def recording(header, rows):  # the rows before they are printed to 12 digits
        written.append(rows.copy())
        return cli_csv(header, rows)

    monkeypatch.setattr(cli, "_csv", recording)
    assert cli.main(["sweep-g", "--family", family, "--steps", "23", *flags]) == 0
    capsys.readouterr()
    (rows,) = written
    u_a, u_b = _plates(flags)
    for theta, c_true in rows[:, [0, 4]]:
        rho = apply_local_unitary(pure_to_density(prep(math.radians(theta))), u_a, u_b)
        assert c_true == pytest.approx(concurrence(rho), rel=0.0, abs=1e-14), theta
