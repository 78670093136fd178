"""Exact two-qubit state and operator algebra.

Conventions used everywhere in this package:

* single-qubit basis: |0> = |H>, |1> = |V>
* two-qubit basis order: |HH>, |HV>, |VH>, |VV>
* Pauli indices: 0 = identity, 1 = X (eigenbasis D/A), 2 = Y (eigenbasis R/L),
  3 = Z (eigenbasis H/V)
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadTrace,
    NegativeEigenvalue,
    NonHermitianObservable,
    NonUnitary,
    NotHermitian,
    NotNormalized,
)

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_operator(i: int) -> np.ndarray:
    """Return the 2x2 Pauli matrix for index i in {0, 1, 2, 3} (0 = identity)."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in 0..3, got {i!r}")
    return _PAULI[i].copy()


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b in the fixed |HH>,|HV>,|VH>,|VV> basis order."""
    return np.kron(np.asarray(a), np.asarray(b))


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def expectation_value(rho: np.ndarray, m: np.ndarray, tol: float = 1e-10) -> float:
    """tr(rho m) for a Hermitian observable m.

    Raises NonHermitianObservable if m fails the Hermiticity check; the
    imaginary residue of the trace (floating noise for valid inputs) is
    checked against tol and discarded.
    """
    m = np.asarray(m)
    if not is_hermitian(m, tol):
        dev = float(np.max(np.abs(m - m.conj().T)))
        raise NonHermitianObservable(f"observable deviates from Hermitian by {dev:.3e}")
    val = complex(np.trace(np.asarray(rho) @ m))
    if abs(val.imag) > max(tol, 1e-10):
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}; state is not Hermitian")
    return float(val.real)


def pure_to_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| for a normalized state vector, or for
    each vector of a stack (..., d)."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi, axis=-1)
    if not (np.abs(norm - 1.0) <= 1e-9).all():  # written so that a NaN norm fails too
        raise NotNormalized(f"state norm is {norm.tolist()!r}, expected 1 within 1e-9")
    return psi[..., :, None] * psi.conj()[..., None, :]


def apply_local_unitary(rho: np.ndarray, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """(u_a (x) u_b) rho (u_a (x) u_b)^dagger."""
    for name, u in (("u_a", u_a), ("u_b", u_b)):
        if not is_unitary(u, 1e-10):
            raise NonUnitary(f"{name} is not unitary within 1e-10")
    u = tensor_product(u_a, u_b)
    return u @ np.asarray(rho) @ u.conj().T


def validate_density(m: np.ndarray, tol: float = 1e-10, eig_tol: float = 1e-8) -> np.ndarray:
    """Check the density-matrix invariants and return the matrix unchanged.

    Raises NotHermitian, BadTrace or NegativeEigenvalue, naming the violated
    invariant and its magnitude. tol guards Hermiticity and the trace;
    eig_tol is the floor for eigenvalue negativity. A stack (..., d, d) is
    checked matrix by matrix, and the worst violation is named.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=complex)
    adj = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.abs(m - adj).max())
    if herm_dev > tol:
        raise NotHermitian(f"Hermiticity violated by {herm_dev:.3e} (tol {tol:.1e})")
    trace_dev = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if trace_dev > tol:
        raise BadTrace(f"trace deviates from 1 by {trace_dev:.3e} (tol {tol:.1e})")
    min_eig = float(np.linalg.eigvalsh((m + adj) / 2).min())
    if min_eig < -eig_tol:
        raise NegativeEigenvalue(f"minimum eigenvalue {min_eig:.3e} below -{eig_tol:.1e}")
    return m


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_pure(seed) -> np.ndarray:
    """Haar-random two-qubit state vector (normalized complex Gaussian)."""
    rng = _rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density(seed) -> np.ndarray:
    """Hilbert-Schmidt-random density matrix: G G^dagger / tr for Ginibre G."""
    rng = _rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(seed, dim: int = 2) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase-fixed R."""
    rng = _rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
