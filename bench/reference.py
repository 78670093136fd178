"""Independent numpy reference for checking entquant's outputs.

Nothing here imports entquant: states, setting probabilities, the exact
measures and the counts CSV format are written out from their definitions,
so a defect in the program cannot hide in the check.
"""

from __future__ import annotations

import math

import numpy as np

_SQ2 = 1.0 / math.sqrt(2.0)
_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([_SQ2, _SQ2], dtype=complex),
    "A": np.array([_SQ2, -_SQ2], dtype=complex),
    "R": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "L": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}
_PAIR = {"H": "HV", "V": "HV", "D": "DA", "A": "DA", "R": "RL", "L": "RL"}
FULL = [(a, b) for a in "HVDARL" for b in "HVDARL"]
KMODE = [(a, b) for a, b in FULL if _PAIR[a] == _PAIR[b]]

_PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
SINGLET = np.array([0, _SQ2, -_SQ2, 0], dtype=complex)
_CSV_HEADER = "basis_a,basis_b,count"


def density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def prepared(family: str, theta_deg: float) -> np.ndarray:
    """cos2t|HH> + sin2t|VV> (parallel) or cos2t|HV> - sin2t|VH> (antiparallel)."""
    t = math.radians(theta_deg)
    c, s = math.cos(2 * t), math.sin(2 * t)
    psi = [c, 0, 0, s] if family == "parallel" else [0, c, -s, 0]
    return density(np.array(psi, dtype=complex))


def dephase(rho: np.ndarray, basis: str, p: float) -> np.ndarray:
    """Kraus {sqrt(1-p) I, sqrt(p) sigma} on each arm, sigma = X or Z."""
    sigma = _PAULI[1] if basis == "x" else _PAULI[3]
    local = [math.sqrt(1 - p) * _PAULI[0], math.sqrt(p) * sigma]
    out = np.zeros((4, 4), dtype=complex)
    for ka in local:
        for kb in local:
            k = np.kron(ka, kb)
            out += k @ rho @ k.conj().T
    return out


def waveplate(kind: str, deg: float) -> np.ndarray:
    """Jones matrix of a half- or quarter-wave plate, axis angle from vertical."""
    t = math.radians(deg)
    if kind == "hwp":
        c, s = math.cos(2 * t), math.sin(2 * t)
        return np.array([[c, s], [s, -c]], dtype=complex)
    c, s = math.cos(t), math.sin(t)
    off = (1 - 1j) * s * c
    return np.array([[c * c + 1j * s * s, off], [off, s * s + 1j * c * c]], dtype=complex)


def local(rho: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    u = np.kron(ua, ub)
    return u @ rho @ u.conj().T


def probabilities(rho: np.ndarray, settings) -> np.ndarray:
    """<ab|rho|ab> for each analyzer pair, clamped at 0 against rounding."""
    kets = np.array([np.kron(_KETS[a], _KETS[b]) for a, b in settings])
    p = np.einsum("si,ij,sj->s", kets.conj(), rho, kets).real
    return np.maximum(p, 0.0)


def g_value(rho: np.ndarray) -> float:
    """Sum of the nine squared Pauli covariances."""
    t = np.array([[np.trace(rho @ np.kron(si, sj)).real for sj in _PAULI] for si in _PAULI])
    cov = t[1:, 1:] - np.outer(t[1:, 0], t[0, 1:])
    return float(np.sum(cov * cov))


def k_value(rho: np.ndarray, a: float, b: float) -> float:
    """Sum of <M>(1 - <M>) over the four Schmidt-basis projectors."""
    kets = ([a, 0, 0, b], [0, a, b, 0], [0, b, -a, 0], [b, 0, 0, -a])
    e = [float(np.vdot(k, rho @ np.array(k, dtype=complex)).real) for k in kets]
    return max(0.0, sum(x - x * x for x in e))


def concurrence(rho: np.ndarray) -> float:
    """Wootters: sqrt eigenvalues of rho (YY) rho* (YY), descending."""
    yy = np.kron(_PAULI[2], _PAULI[2])
    lam = np.sqrt(np.abs(np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1:].sum()))


def singlet_fidelity(rho: np.ndarray) -> float:
    return float(np.vdot(SINGLET, rho @ SINGLET).real)


def haar_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_mixed(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Hilbert-Schmidt random density matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m).real


def counts_csv(settings, counts, source: str) -> str:
    lines = [f"# source: {source}", _CSV_HEADER]
    for (a, b), n in zip(settings, counts):
        text = str(int(n)) if float(n).is_integer() else repr(float(n))
        lines.append(f"{a},{b},{text}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[dict[str, str], list[tuple[str, str]], list[float]]:
    """(comment fields, settings in file order, counts) of a counts CSV."""
    meta: dict[str, str] = {}
    settings: list[tuple[str, str]] = []
    counts: list[float] = []
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line.strip():
            body.append(line)
    if not body or body[0] != _CSV_HEADER:
        raise ValueError("missing counts CSV header")
    for line in body[1:]:
        a, b, n = line.split(",")
        settings.append((a, b))
        counts.append(float(n))
    return meta, settings, counts
