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
    """Kronecker product a (x) b in the fixed |HH>,|HV>,|VH>,|VV> basis order:
    np.kron's one broadcast product, for a and b with equal ndim. A stack of
    kets (k, 2) or operators (k, 2, 2) with itself gives all k*k products."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != b.ndim:
        raise ValueError(f"tensor_product needs operands with equal ndim, got {a.ndim} and {b.ndim}")
    prod = a[(slice(None), None) * a.ndim] * b[(None, slice(None)) * b.ndim]
    return prod.reshape([m * n for m, n in zip(a.shape, b.shape)])


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


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
    """(u_a (x) u_b) rho (u_a (x) u_b)^dagger, for 2x2 unitaries u_a, u_b,
    in _matmul's fixed-order real arithmetic. A stack of states (..., 4, 4)
    is transformed state by state."""
    arms = np.array([u_a, u_b], dtype=complex)  # both arms' u^dagger u - I in one stacked product
    dev = np.abs(arms.conj().swapaxes(-1, -2) @ arms - _PAULI[0]).max(axis=(-2, -1)).tolist()
    for name, d in zip(("u_a", "u_b"), dev):
        if not d <= 1e-10:  # written so that NaN fails too
            raise NonUnitary(f"{name} is not unitary within 1e-10")
    u = _matmul(arms[0, :, None, :, None], arms[1, None, :, None, :]).reshape(4, 4)  # u_a (x) u_b, one product an entry
    return _matmul(_matmul(u, rho), u.conj().T)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex matrices a (..., n, k) and b (..., k, m), k < 8,
    whose leading axes broadcast, with no BLAS and no complex multiply
    (numpy's fuses its products on FMA CPUs): the real part of each entry is
    sum_k a.re b.re - sum_k a.im b.im and the imaginary part
    sum_k a.re b.im + sum_k a.im b.re, each sum of fewer than 8 terms added
    to zero in k order by np.add.reduce, whatever the layout. The bits are
    the same on every CPU and for any leading shape."""
    a, b = (np.ascontiguousarray(x, dtype=complex).view(float).reshape(np.shape(x) + (2,)) for x in (a, b))
    s = np.add.reduce(a[..., :, :, :, None, None] * b.swapaxes(-1, -2)[..., None, :, None, :, :], axis=-4)  # (..., n, 2, 2, m)
    # [re.re - im.im, re.im + im.re] (..., n, 2, m), the pair axis moved last for the complex view
    return np.ascontiguousarray((s[..., 0, :, :] + s[..., 1, ::-1, :] * [[-1.0], [1.0]]).swapaxes(-1, -2)).view(complex)[..., 0]


def validate_density(m: np.ndarray, tol: float = 1e-10, eig_tol: float = 1e-8) -> np.ndarray:
    """Check the density-matrix invariants and return the matrix unchanged.

    Raises NotHermitian, BadTrace or NegativeEigenvalue, naming the violated
    invariant and its magnitude. tol guards Hermiticity and the trace;
    eig_tol is the floor for eigenvalue negativity. A stack (..., d, d) is
    checked matrix by matrix, and the worst violation is named.
    """
    return _validate_density(m, None, tol, eig_tol)


def _validate_density(m: np.ndarray, w: np.ndarray | None, tol: float = 1e-10, eig_tol: float = 1e-8) -> np.ndarray:
    """validate_density, whose eigenvalue check reads w when the spectrum of
    m is known (for a matrix rebuilt from its eigendecomposition) and
    solves for it when w is None."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=complex)
    adj = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.abs(m - adj).max())
    if herm_dev > tol:
        raise NotHermitian(f"matrix is not Hermitian: deviates by {herm_dev:.3e} (tol {tol:.1e})")
    trace_dev = float(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max())
    if trace_dev > tol:
        raise BadTrace(f"trace deviates from 1 by {trace_dev:.3e} (tol {tol:.1e})")
    min_eig = float((np.linalg.eigvalsh((m + adj) / 2) if w is None else w).min())
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
