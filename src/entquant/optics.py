"""Polarization optics: analyzer bases, prepared states, waveplates, dephasing.

Waveplate angles are measured between the optic axis and the vertical axis,
in radians. Jones matrices carry a fixed global-phase convention so that
matrix-level tests are deterministic; every quantity derived from them
(probabilities, covariances, the entanglement measures) is phase-invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import pauli_operator, pure_to_density, tensor_product
from .errors import UnknownLabel

_SQ2 = 1.0 / np.sqrt(2.0)


class BasisLabel(enum.Enum):
    """Single-photon analyzer settings: the H/V, D/A and R/L eigenbases."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"
    R = "R"
    L = "L"

    # Members are singletons, so an identity hash agrees with equality. It
    # spares each Setting dict lookup Enum's Python-level hash of the name.
    __hash__ = object.__hash__

    @property
    def ket(self) -> np.ndarray:
        return _KETS[self].copy()

    @classmethod
    def parse(cls, text: str) -> "BasisLabel":
        """Parse a label letter; '+' and '-' are accepted for D and A."""
        t = text.strip()
        if t == "+":
            return cls.D
        if t == "-":
            return cls.A
        try:
            return cls(t.upper())
        except ValueError:
            raise UnknownLabel(f"unknown basis label {text!r}") from None

    def __str__(self) -> str:
        return self.value


_KETS = {
    BasisLabel.H: np.array([1, 0], dtype=complex),
    BasisLabel.V: np.array([0, 1], dtype=complex),
    BasisLabel.D: np.array([_SQ2, _SQ2], dtype=complex),
    BasisLabel.A: np.array([_SQ2, -_SQ2], dtype=complex),
    BasisLabel.R: np.array([_SQ2, 1j * _SQ2], dtype=complex),
    BasisLabel.L: np.array([_SQ2, -1j * _SQ2], dtype=complex),
}

# Plus/minus eigenvector labels of each Pauli axis, in eigenvalue order (+1, -1).
PAULI_EIGENBASIS = {
    1: (BasisLabel.D, BasisLabel.A),
    2: (BasisLabel.R, BasisLabel.L),
    3: (BasisLabel.H, BasisLabel.V),
}


def prepare_parallel(theta) -> np.ndarray:
    """cos(2 theta)|HH> + sin(2 theta)|VV>, the pump-angle-parameterized family.
    An array of angles gives a stack of state vectors."""
    t = 2 * np.asarray(theta)
    psi = np.zeros(t.shape + (4,), dtype=complex)
    psi[..., 0], psi[..., 3] = np.cos(t), np.sin(t)
    return psi


def prepare_antiparallel(theta) -> np.ndarray:
    """cos(2 theta)|HV> - sin(2 theta)|VH>; an array of angles gives a stack."""
    t = 2 * np.asarray(theta)
    psi = np.zeros(t.shape + (4,), dtype=complex)
    psi[..., 1], psi[..., 2] = np.cos(t), -np.sin(t)
    return psi


@dataclass(frozen=True)
class WaveplateSpec:
    """A half- or quarter-wave plate at a given optic-axis angle (radians)."""

    kind: str
    angle: float

    def __post_init__(self):
        if self.kind.upper() not in ("HWP", "QWP"):
            raise ValueError(f"waveplate kind must be HWP or QWP, got {self.kind!r}")
        object.__setattr__(self, "kind", self.kind.upper())


def waveplate_unitary(w: WaveplateSpec) -> np.ndarray:
    """Jones matrix of the waveplate in the {H, V} basis.

    HWP(t) = [[cos 2t,  sin 2t],
              [sin 2t, -cos 2t]]
    QWP(t) = [[cos^2 t + i sin^2 t,  (1-i) sin t cos t],
              [(1-i) sin t cos t,    sin^2 t + i cos^2 t]]
    """
    t = w.angle
    if w.kind == "HWP":
        c, s = np.cos(2 * t), np.sin(2 * t)
        return np.array([[c, s], [s, -c]], dtype=complex)
    c, s = np.cos(t), np.sin(t)
    off = (1 - 1j) * s * c
    return np.array([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]], dtype=complex)


#: Identity and the dephasing Pauli of each ChannelSpec basis, stacked (2, 2, 2).
_DEPHASING_PAULIS = {b: np.array([pauli_operator(0), pauli_operator(i)]) for b, i in (("x", 1), ("z", 3))}
#: Row i of each joint Kraus term k_a (x) k_b has one nonzero entry, in column c_i: c (4 terms, 4 rows) of each
#: basis, and the flat index 4 c_i + c_l of rho[c_i, c_l] for each term and entry (i, l), (4, 4, 4).
_KRAUS_COLUMNS = {b: np.argmax(tensor_product(m, m) != 0, axis=-1) for b, m in _DEPHASING_PAULIS.items()}
_KRAUS_GATHER = {b: 4 * c[:, :, None] + c[:, None, :] for b, c in _KRAUS_COLUMNS.items()}


@dataclass(frozen=True)
class ChannelSpec:
    """Phase-damping channel acting identically on both arms.

    basis 'z' dephases in {H, V} (Kraus set {sqrt(1-p) I, sqrt(p) Z}),
    basis 'x' dephases in {D, A} (Kraus set {sqrt(1-p) I, sqrt(p) X}).
    """

    basis: str
    p: float

    def __post_init__(self):
        if self.basis.lower() not in ("x", "z"):
            raise ValueError(f"channel basis must be 'x' or 'z', got {self.basis!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"damping probability must be in [0, 1], got {self.p!r}")
        object.__setattr__(self, "basis", self.basis.lower())

    def local_kraus(self) -> np.ndarray:
        """The two local Kraus operators, stacked (2, 2, 2)."""
        return np.sqrt([1.0 - self.p, self.p])[:, None, None] * _DEPHASING_PAULIS[self.basis]


def phase_damping(rho: np.ndarray, chan: ChannelSpec) -> np.ndarray:
    """Apply the two-arm phase-damping channel: the four joint Kraus terms
    k rho k^dagger, k = k_a (x) k_b, summed from zero in the order
    (a, b) = (0, 0), (0, 1), (1, 0), (1, 1). A stack of states (..., 4, 4)
    is damped state by state.

    Each row i of k has one nonzero entry v_i, in column c_i, so
    (k rho k^dagger)[i, l] = (v_i rho[c_i, c_l]) v_l^*: a gather and two
    elementwise products in place of two matrix products, with no BLAS.
    A matrix product's zero terms change no bit of a sum from zero, and v is
    real, so each part of a product is one rounded real product on every
    CPU: the bits are those of the matrix products."""
    v = tensor_product(chan.local_kraus(), chan.local_kraus()).sum(axis=-1, keepdims=True)  # v_i of each term (4, 4, 1)
    gathered = np.take(np.reshape(rho, np.shape(rho)[:-2] + (16,)), _KRAUS_GATHER[chan.basis], axis=-1)  # rho[c_i, c_l]
    return np.add.reduce(v * gathered * v.swapaxes(-1, -2).conj(), axis=-3, initial=0.0)


def basis_projector(x: BasisLabel) -> np.ndarray:
    """Rank-1 projector onto the labeled single-photon state."""
    v = x.ket
    return np.outer(v, v.conj())


def joint_projector(a: BasisLabel, b: BasisLabel) -> np.ndarray:
    """Projector onto the two-photon product state |a b>."""
    return pure_to_density(tensor_product(a.ket, b.ket))
