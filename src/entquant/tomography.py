"""Density-matrix reconstruction from a full 36-setting counts table.

Linear inversion of the (overcomplete) Pauli expectation matrix, followed by
a deterministic restoration of physicality: the eigenvalues of the raw
estimate are Euclidean-projected onto the probability simplex (Smolin,
Gambetta & Smith, PRL 108, 070502). This gives an independent concurrence
estimate to compare against the covariance-sum route. The concurrence and
the CLI's reports read the projected spectrum and eigenvectors; only
reconstruct and project_to_physical rebuild, and check, the matrix.
"""

from __future__ import annotations

import numpy as np

from .algebra import _validate_density
from .counts import FULL_SETTINGS, CountsTable, _estimate
from .measures import _PAULI_TENSOR, _concurrence_from_eigh


def pauli_vector_from_counts(table: CountsTable) -> np.ndarray:
    """4x4 matrix t[i, j] = <sigma_i (x) sigma_j> estimated from counts.

    t[0, 0] = 1 exactly; marginals t[i, 0] and t[0, j] use the diagonal
    (i, i) and (j, j) groups, the same estimate that g and k read.
    """
    return _estimate(table, FULL_SETTINGS)[0]


def linear_inversion(t: np.ndarray) -> np.ndarray:
    """rho_raw = (1/4) sum_ij t[i, j] sigma_i (x) sigma_j.

    Hermitian with unit trace by construction; eigenvalues may be negative
    when t was estimated from noisy counts. A stack t (..., 4, 4) gives a
    stack of matrices.
    """
    t = np.asarray(t, dtype=float)
    return np.einsum("...k,kij->...ij", t.reshape(t.shape[:-2] + (16,)), _PAULI_TENSOR) / 4.0


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v (..., d) onto {x >= 0, sum x = 1}."""
    u = np.sort(v, axis=-1)[..., ::-1]
    ks = np.arange(1, v.shape[-1] + 1)
    theta = (1.0 - np.cumsum(u, axis=-1)) / ks
    rho = np.where(u + theta > 0, ks, 0).max(axis=-1, keepdims=True)  # the last k that passes
    return np.maximum(v + np.take_along_axis(theta, rho - 1, axis=-1), 0.0)


def project_to_physical(rho_raw: np.ndarray) -> np.ndarray:
    """Nearest density matrix: Hermitize, then simplex-project the spectrum.

    Idempotent, and the identity on inputs that are already physical. A
    stack (..., 4, 4) is projected matrix by matrix. The state is checked
    for Hermiticity and trace; its eigenvalue check reads the spectrum it
    was built with.
    """
    w, v = _spectrum(rho_raw)
    return _validate_density((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2), w)


def _spectrum(rho_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The simplex-projected eigenvalues w (ascending, as eigh orders them)
    and the eigenvectors v of the Hermitized rho_raw: project_to_physical's
    state is v diag(w) v^dag."""
    m = np.asarray(rho_raw, dtype=complex)
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return _project_simplex(w), v


def reconstruct(table: CountsTable) -> np.ndarray:
    """Full pipeline: counts -> Pauli expectations -> inversion -> projection."""
    return project_to_physical(linear_inversion(pauli_vector_from_counts(table)))


def _reconstruction(table: CountsTable) -> tuple[np.ndarray, np.ndarray]:
    """The spectrum w and eigenvectors v of reconstruct's state (see _spectrum)."""
    return _spectrum(linear_inversion(pauli_vector_from_counts(table)))


def tomo_concurrence(table: CountsTable) -> float:
    """Concurrence of the reconstructed physical state."""
    return _tomo_concurrence(pauli_vector_from_counts(table))


def _tomo_concurrence(t: np.ndarray) -> float | np.ndarray:
    """Concurrence of project_to_physical(linear_inversion(t)) (a stack t gives
    an array), from the projected spectrum and eigenvectors; it agrees with
    concurrence of the projected state to about 1e-15, not bit for bit."""
    return _concurrence_from_eigh(*_spectrum(linear_inversion(t)))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    return _sqrt_from_eigh(*np.linalg.eigh(np.asarray(m, dtype=complex)))


def _sqrt_from_eigh(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sqrt of the PSD matrix v diag(w) v^dag, w ascending."""
    w = np.clip(w, 0.0, None)
    if w[-1] > 0:
        # eigenvalue noise ~1e-16 turns into ~1e-8 after the square root;
        # zero it out rather than let it inflate the rank
        w[w < w[-1] * 1e-13] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared sum of the singular values of
    sqrt(rho) sqrt(sigma), which is the same quantity without an eigensolve
    of a nearly singular product.
    """
    return _fidelity_from_sqrts(_psd_sqrt(rho), _psd_sqrt(sigma))


def _fidelity_from_sqrts(sqrt_rho: np.ndarray, sqrt_sigma: np.ndarray) -> float:
    """fidelity from the square roots of its two states."""
    return float(np.linalg.svd(sqrt_rho @ sqrt_sigma, compute_uv=False).sum() ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) tr |rho - sigma|."""
    w = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return float(0.5 * np.sum(np.abs(w)))
