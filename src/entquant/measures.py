"""Entanglement quantities computed exactly from a known two-qubit state.

The central object is the covariance of a Pauli pair,

    C(i, j) = <s_i (x) s_j> - <s_i (x) I><I (x) s_j>,

summed in squares over the nine pairs to give the measure g = sum C(i,j)^2.
For pure states g relates to the concurrence c by g = c^2 (c^2 + 2). On
mixed states neither side of the bracket c^2(c^2+2) <= g <= 2c^2 + 1 is a
theorem. The upper side has been searched but not proved. The lower side is
false: rho(p) = p|00><00| + (1 - p)|psi><psi|, with
|psi> = |00>/sqrt(2) + (|01> + |10>)/2, has c = (1 - p)/2, and at p = 1/2
c = 1/4 and g = 25/256, below c^2(c^2+2) = 33/256 (see mixed_state_bounds).

The module also provides the local-uncertainty variance sum, a closed form
in the same marginals and covariance matrix (see lur_sum), and the nonlocal
variance measure k built from four projectors onto a Schmidt-form basis.

The separable bound g <= 1 is proved. Write a separable state as
rho = sum_k p_k rho_k^A (x) rho_k^B, with Bloch vectors x_k, y_k of mean
a = sum_k p_k x_k and b = sum_k p_k y_k. Then:

1. C = sum_k p_k (x_k - a)(y_k - b)^T;
2. for any R with operator norm <= 1, tr(R^T C) <= sum_k p_k |x_k - a| |y_k - b|;
3. Cauchy-Schwarz bounds that by
   sqrt(sum_k p_k |x_k|^2 - |a|^2) sqrt(sum_k p_k |y_k|^2 - |b|^2) <= sqrt((1 - |a|^2)(1 - |b|^2));
4. the maximum of tr(R^T C) over R is the trace norm ||C||_KF.

Hence g = ||C||_F^2 <= ||C||_KF^2 <= (1 - |a|^2)(1 - |b|^2) <= 1. By AM-GM,
step 3 also gives the degree-2 form tr(R^T C) <= 1 - (|a|^2 + |b|^2) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import _validate_density, is_hermitian, pauli_operator, tensor_product, validate_density
from .errors import IdentityIndexNotAllowed, NonHermitianObservable, OutOfRange

# sigma_i (x) sigma_j for i, j in 0..3, stacked for one-shot expectation sweeps
_PAULIS = np.array([pauli_operator(i) for i in range(4)])
_PAULI_TENSOR = tensor_product(_PAULIS, _PAULIS)
_SIGMA_YY = _PAULI_TENSOR[4 * 2 + 2]
_YY_SIGNS = np.diagonal(_SIGMA_YY[:, ::-1]).real[:, None]  # YY m = _YY_SIGNS * m[::-1] for any 4-row m


def pauli_expectation_matrix(rho: np.ndarray) -> np.ndarray:
    """4x4 matrix t with t[i, j] = <sigma_i (x) sigma_j>; t[0, 0] = 1.
    A stack of states (..., 4, 4) gives a stack of matrices."""
    t = np.einsum("kij,...ji->...k", _PAULI_TENSOR, np.asarray(rho)).real
    return t.reshape(t.shape[:-1] + (4, 4))


def covariance(rho: np.ndarray, i: int, j: int) -> float:
    """C(s_i, s_j) = <s_i s_j> - <s_i><s_j> for Pauli indices i, j in {1, 2, 3}."""
    _check_pauli_indices("covariance index", i, j)
    return float(covariance_matrix(rho)[i - 1, j - 1])


def _check_pauli_indices(what: str, i: int, j: int) -> None:
    """Raise IdentityIndexNotAllowed if i or j is 0, and ValueError if it is
    not otherwise one of the Pauli indices 1, 2, 3; the message names the
    index as "<what> i" or "<what> j"."""
    for name, idx in (("i", i), ("j", j)):
        if idx == 0:
            raise IdentityIndexNotAllowed(f"{what} {name} must be 1..3, not 0")
        if idx not in (1, 2, 3):
            raise ValueError(f"{what} {name} must be in 1..3, got {idx!r}")


def covariance_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of C(s_i, s_j) over i, j in {1, 2, 3}; rho must be a
    density matrix."""
    return _g_terms(pauli_expectation_matrix(validate_density(rho)))[1]


def _g_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g, the covariance matrix C and dg/dt (4x4) at each Pauli matrix of
    the stack t (..., 4, 4).

    C = t[1:, 1:] - a b^T with marginals a = t[1:, 0], b = t[0, 1:], and
    g = ||C||^2, so dg/dt is 2C on the joint entries, -2 C b on a and
    -2 a^T C on b.
    """
    a, b = t[..., 1:, 0], t[..., 0, 1:]
    cov = t[..., 1:, 1:] - a[..., :, None] * b[..., None, :]
    grad = np.zeros(t.shape)
    grad[..., 1:, 1:] = 2.0 * cov
    grad[..., 1:, 0] = -2.0 * np.add.reduce(cov * b[..., None, :], axis=-1)
    grad[..., 0, 1:] = -2.0 * np.add.reduce(a[..., :, None] * cov, axis=-2)
    # summed as one contiguous run of nine, in one order whatever the layout of t
    return np.add.reduce(np.ascontiguousarray(cov * cov).reshape(cov.shape[:-2] + (9,)), axis=-1), cov, grad


@dataclass
class GResult:
    """Covariance-sum measure with its covariance matrix and optional error bar."""

    g: float
    covariance: np.ndarray
    delta_g: float | None = None
    # (t, group counts, inverse group totals) of the table, t the Pauli
    # matrix that g was estimated from; k and the CLI's tomography read it too
    estimate: tuple | None = None


def g_measure(rho: np.ndarray) -> GResult:
    """Sum of the nine squared Pauli covariances of rho, which must be a
    density matrix."""
    g, cov, _ = _g_terms(pauli_expectation_matrix(validate_density(rho)))
    return GResult(g=float(g), covariance=cov)


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence c = max(0, l1 - l2 - l3 - l4).

    The l_k are the descending square roots of the eigenvalues of
    rho (YY) rho* (YY). They are computed here as the singular values of
    Wootters' tau = D (v^dag YY v*) D, where rho = v diag(w) v^dag and
    D = diag(sqrt(w)) (PRL 80, 2245). Those are the singular values of
    sqrt(rho) (YY) sqrt(rho)* = v tau v^T, which is exact at rank deficiency
    where the non-normal product's eigensolve loses half its digits: a zero
    eigenvalue zeroes its row and column of tau. A stack of states
    (..., 4, 4) gives an array of concurrences. rho must be a density
    matrix; its eigenvalue check reads the w of this eigensolve.
    """
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    _validate_density(rho, w)
    return _concurrence_from_eigh(w, v)


def _concurrence_from_eigh(w: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """concurrence of the state (or stack) v diag(w) v^dag, from its
    eigenvalues w and eigenvectors v, through concurrence's tau form."""
    d = np.sqrt(np.maximum(w, 0.0))
    vc = v.conj()
    tau = d[..., :, None] * (vc.swapaxes(-1, -2) @ (_YY_SIGNS * vc[..., ::-1, :])) * d[..., None, :]
    s = np.linalg.svd(tau, compute_uv=False)
    c = np.minimum(np.maximum(s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3], 0.0), 1.0)
    return c if c.ndim else float(c)


def _concurrence_of_kets(psi: np.ndarray) -> float | np.ndarray:
    """concurrence of the pure state |psi><psi| of a normalized ket psi (4,),
    or of each ket of a stack (..., 4): |psi^T (YY) psi|, at most 1, with no
    eigensolve (Hill & Wootters, PRL 78, 5022).

    The value is invariant under local unitaries: u^T sigma_y u = det(u) sigma_y
    for any 2x2 u, so u_a (x) u_b multiplies psi^T (YY) psi by det u_a det u_b,
    whose modulus is 1. The kets before a pair of wave plates therefore give
    the concurrence of the plated state.
    """
    psi = np.asarray(psi)
    c = np.minimum(np.abs(np.sum(psi * (_YY_SIGNS[:, 0] * psi[..., ::-1]), axis=-1)), 1.0)
    return c if c.ndim else float(c)


def g_from_concurrence(c: float) -> float:
    """Pure-state map g = c^2 (c^2 + 2)."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise OutOfRange(f"concurrence must be in [0, 1], got {c!r}")
    c = min(1.0, max(0.0, c))
    return c * c * (c * c + 2.0)


def concurrence_from_g(g: float | np.ndarray) -> float | np.ndarray:
    """Inverse of the pure-state map: c = sqrt(sqrt(g + 1) - 1), elementwise on an array."""
    g = np.asarray(g, dtype=float)
    if not ((-1e-12 <= g) & (g <= 3.0 + 1e-12)).all():  # written so that NaN fails too
        raise OutOfRange(f"g must be in [0, 3], got {g.tolist()!r}")
    c = np.sqrt(np.sqrt(np.minimum(np.maximum(g, 0.0), 3.0) + 1.0) - 1.0)
    return c if c.ndim else float(c)


def mixed_state_bounds(rho: np.ndarray) -> tuple[float, float, float]:
    """(c^2(c^2+2), g, 2c^2+1) with c the concurrence of rho.

    The lower side equals g on pure states, and this function asserts no
    ordering. On mixed states g <= 2c^2 + 1 held in every search so far
    but is not proved. The lower side is false: on the rank-2 family
    rho(p) = p|00><00| + (1 - p)|psi><psi|, with
    |psi> = |00>/sqrt(2) + (|01> + |10>)/2, g lies below c^2(c^2+2) at
    every p tried in (0, 1); rho(1/2) gives (33/256, 25/256, 9/8).
    """
    c = concurrence(rho)
    g = g_measure(rho).g
    return (c * c * (c * c + 2.0), g, 2.0 * c * c + 1.0)


@dataclass(frozen=True)
class LurSpec:
    """Paired local observable lists with the separable variance bound."""

    observables_a: tuple
    observables_b: tuple
    bound: float

    def __post_init__(self):
        if len(self.observables_a) != len(self.observables_b) or len(self.observables_a) < 1:
            raise ValueError("observable lists must have equal length >= 1")


# Variance sum of the three Paulis on one qubit is 3 - |bloch|^2 >= 2.
PAULI_LUR_BOUND = 4.0


def pauli_lur_spec() -> LurSpec:
    """The three-Pauli spec A_i = B_i = sigma_i with separable bound 2 + 2."""
    paulis = tuple(pauli_operator(i) for i in (1, 2, 3))
    return LurSpec(observables_a=paulis, observables_b=paulis, bound=PAULI_LUR_BOUND)


def lur_sum(rho: np.ndarray, spec: LurSpec) -> tuple[float, bool]:
    """Sum of variances of A_i (x) I + I (x) B_i on rho, and whether it
    undercuts the separable bound (a local-uncertainty violation).

    Each Hermitian A = x0 I + x.sigma and B = y0 I + y.sigma, with
    x_k = tr(sigma_k A) / 2, is read through the Pauli matrix t of rho:
    Var(A (x) I + I (x) B) = |x|^2 - (x.a)^2 + |y|^2 - (y.b)^2 + 2 x^T C y,
    with the marginals a, b and covariance matrix C of _g_terms. The
    observables are checked before rho, which must be a density matrix.
    """
    for a, b in zip(spec.observables_a, spec.observables_b):
        for name, m in (("A", a), ("B", b)):
            if not is_hermitian(m, 1e-10):
                raise NonHermitianObservable(f"{name} observable is not Hermitian")
    t = pauli_expectation_matrix(validate_density(rho))
    cov = _g_terms(t)[1]
    x, y = np.einsum("kij,snji->snk", _PAULIS[1:], np.array([spec.observables_a, spec.observables_b])).real / 2.0
    var = np.sum(x * x + y * y + 2.0 * (x @ cov) * y, axis=-1) - (x @ t[1:, 0]) ** 2 - (y @ t[0, 1:]) ** 2
    total = float(var.sum())
    return total, total < spec.bound - 1e-10


@dataclass(frozen=True)
class SchmidtCoeffs:
    """Real amplitudes (a, b) with a, b >= 0 and a^2 + b^2 = 1.

    The Schmidt normal form orders a >= b, but the projector family below is
    well defined for any normalized pair, and the sweep over preparation
    angles runs (a, b) = (cos 2t, sin 2t) across the whole quadrant.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a >= 0 and self.b >= 0):  # both checks are written so that NaN fails them
            raise ValueError(f"Schmidt coefficients must be nonnegative, got ({self.a}, {self.b})")
        if not abs(self.a**2 + self.b**2 - 1.0) <= 1e-12:
            raise ValueError(f"a^2 + b^2 must be 1 within 1e-12, got {self.a**2 + self.b**2!r}")


@dataclass(frozen=True)
class KObservables:
    """Orthonormal rank-1 projector family M_1..M_4 built from (a, b).

    The target states are a|00>+b|11>, a|01>+b|10>, b|01>-a|10>, b|00>-a|11>
    in that order; the first projects onto the state whose variance sum
    vanishes, the rest span its orthocomplement.
    """

    coeffs: SchmidtCoeffs
    projectors: tuple = field(repr=False)


def _k_projectors(a, b) -> np.ndarray:
    """M_1..M_4 for coefficients a, b (scalars or arrays): shape (..., 4, 4, 4)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    kets = np.zeros(a.shape + (16,), dtype=complex)
    kets[..., [0, 3, 5, 6, 9, 10, 12, 15]] = np.stack([a, b, a, b, b, -a, b, -a], axis=-1)
    kets = kets.reshape(a.shape + (4, 4))  # a|00>+b|11>, a|01>+b|10>, b|01>-a|10>, b|00>-a|11>
    return kets[..., :, None] * kets.conj()[..., None, :]


def k_observables(s: SchmidtCoeffs) -> KObservables:
    return KObservables(coeffs=s, projectors=tuple(_k_projectors(s.a, s.b)))


def k_separable_bound(s: SchmidtCoeffs) -> float:
    """Minimum variance sum 2 a^2 b^2 attainable by separable states."""
    return 2.0 * (s.a * s.b) ** 2


@dataclass
class KResult:
    """Nonlocal variance sum with its projector expectations and bound."""

    k: float
    expectations: tuple[float, float, float, float]
    bound: float
    delta_k: float | None = None


#: 4 P[i, e] = tr(sigma_e M_i) (see _k_terms) as signs (3, 4, 16) of the terms
#: a^2 + b^2, a^2 - b^2 and 2ab: for e = II, IZ, ZI, ZZ, XX, YY, the sign over M_1..M_4.
_K_SIGNS = np.zeros((3, 4, 16))
_K_SIGNS[[0, 1, 1, 0, 2, 2], :, [0, 3, 12, 15, 5, 10]] = [
    [1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1], [1, 1, -1, -1], [-1, 1, -1, 1]
]


def _k_projection(a, b) -> np.ndarray:
    """P (..., 4, 16) of _k_terms: each weight is one of three terms with a
    sign (_K_SIGNS), which equals, bit for bit, the complex trace
    tr(sigma_e M_i) / 4 over _PAULI_TENSOR and _k_projectors(a, b). Like the
    trace, it doubles ab after rounding it and scales by 1/4 after the sign,
    so that a weight that underflows keeps the trace's sign of zero."""
    return np.einsum("...k,kie->...ie", np.stack([a * a + b * b, a * a - b * b, 2.0 * (a * b)], axis=-1), _K_SIGNS) / 4.0


def _k_terms(t: np.ndarray, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k clamped at 0, the projector expectations m and dk/dt (4x4) at each
    Pauli matrix of the stack t (..., 4, 4), for Schmidt coefficients a, b
    (scalars, or arrays that broadcast against the stack).

    m = P t with P[i, e] = tr(sigma_e M_i) / 4, since rho = sum_e t_e sigma_e / 4.
    Only II, IZ, ZI, ZZ, XX and YY carry weight, because
    |00><11| + h.c. = (XX - YY) / 2 and |01><10| + h.c. = (XX + YY) / 2.
    """
    proj = _k_projection(a, b)
    m = np.add.reduce(proj * t.reshape(t.shape[:-2] + (1, 16)), axis=-1)
    k = np.sum(m - m * m, axis=-1)
    grad = np.add.reduce((1.0 - 2.0 * m)[..., :, None] * proj, axis=-2).reshape(m.shape[:-1] + (4, 4))
    return np.where(k > 0.0, k, 0.0), m, grad  # max(0, k): noise or rounding can leave k < 0


def k_measure(rho: np.ndarray, s: SchmidtCoeffs) -> KResult:
    """k = sum_i (<M_i> - <M_i>^2), using the projector identity M_i^2 = M_i;
    rho must be a density matrix."""
    k, m, _ = _k_terms(pauli_expectation_matrix(validate_density(rho)), s.a, s.b)
    return KResult(k=float(k), expectations=tuple(m.tolist()), bound=k_separable_bound(s))
