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
    c, s = np.cos(2 * np.asarray(theta)), np.sin(2 * np.asarray(theta))
    z = np.zeros_like(c)
    return np.stack([c, z, z, s], axis=-1).astype(complex)


def prepare_antiparallel(theta) -> np.ndarray:
    """cos(2 theta)|HV> - sin(2 theta)|VH>; an array of angles gives a stack."""
    c, s = np.cos(2 * np.asarray(theta)), np.sin(2 * np.asarray(theta))
    z = np.zeros_like(c)
    return np.stack([z, c, -s, z], axis=-1).astype(complex)


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

    def local_kraus(self) -> list[np.ndarray]:
        sigma = {"x": 1, "z": 3}[self.basis]
        return [
            np.sqrt(1.0 - self.p) * np.eye(2, dtype=complex),
            np.sqrt(self.p) * pauli_operator(sigma),
        ]


def phase_damping(rho: np.ndarray, chan: ChannelSpec) -> np.ndarray:
    """Apply the two-arm phase-damping channel: all four joint Kraus terms.
    A stack of states (..., 4, 4) is damped state by state."""
    local = chan.local_kraus()
    out = np.zeros(np.shape(rho), dtype=complex)
    for ka in local:
        for kb in local:
            k = tensor_product(ka, kb)
            out += k @ np.asarray(rho) @ k.conj().T
    return out


def basis_projector(x: BasisLabel) -> np.ndarray:
    """Rank-1 projector onto the labeled single-photon state."""
    v = x.ket
    return np.outer(v, v.conj())


def joint_projector(a: BasisLabel, b: BasisLabel) -> np.ndarray:
    """Projector onto the two-photon product state |a b>."""
    return pure_to_density(np.kron(a.ket, b.ket))
