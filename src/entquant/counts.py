"""Coincidence-count tables: simulation, CSV serialization, and estimators.

A setting is one analyzer pair (basis_a, basis_b); a full table holds all 36
pairs over {H, V, D, A, R, L}. Expectations are estimated per 4-setting
eigenbasis group, normalizing counts within the group, so no equal-flux
assumption is needed across groups:

* <s_i (x) s_j> comes from the group {(p_i, p_j), (p_i, m_j), (m_i, p_j),
  (m_i, m_j)} with signs equal to eigenvalue products,
* <s_i (x) I> and <I (x) s_j> come from the diagonal groups (i, i) and
  (j, j) with signs on one side only.

One estimator, _estimate, turns the counts into the 4x4 Pauli expectation
matrix t[i, j] = <s_i (x) s_j> and its Jacobian in the 36 counts; within a
group of total T, d t / d n_k = (sign_k - t) / T. g and k are functions of
t (see measures), and every error bar follows one delta-method rule:
first-order Poisson propagation with var(count) = count, all settings
independent, sigma_f^2 = sum_k (grad_t f . dt/dn_k)^2 n_k.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DuplicateSetting, MissingSetting, ParseError
from .measures import GResult, KResult, SchmidtCoeffs, _g_terms, _k_terms, k_separable_bound
from .optics import PAULI_EIGENBASIS, BasisLabel, joint_projector


class Setting(NamedTuple):
    """One analyzer configuration: basis label on arm A and on arm B."""

    a: BasisLabel
    b: BasisLabel

    def __str__(self) -> str:
        return f"{self.a}{self.b}"


_LABEL_ORDER = (BasisLabel.H, BasisLabel.V, BasisLabel.D, BasisLabel.A, BasisLabel.R, BasisLabel.L)

#: All 36 analyzer pairs in canonical order; the ordinal in this list seeds
#: the per-setting random substream.
FULL_SETTINGS: tuple[Setting, ...] = tuple(
    Setting(a, b) for a, b in product(_LABEL_ORDER, repeat=2)
)
_ORDINAL = {s: n for n, s in enumerate(FULL_SETTINGS)}
#: The joint projector |a b><a b| of every setting, in canonical order.
_PROJECTORS = np.stack([joint_projector(s.a, s.b) for s in FULL_SETTINGS])

_KMODE_SET = {
    Setting(a, b)
    for pair in PAULI_EIGENBASIS.values()
    for a, b in product(pair, repeat=2)
}
#: The 12-setting subset (three complete eigenbasis groups) sufficient for k.
KMODE_SETTINGS: tuple[Setting, ...] = tuple(s for s in FULL_SETTINGS if s in _KMODE_SET)


@dataclass
class CountsTable:
    """Map from settings to nonnegative coincidence counts.

    source is 'exact' for noiseless expected counts (error bars are zero),
    'poisson' for sampled counts, and 'file' for parsed data of unknown
    provenance (treated as Poisson). seed records the sampling seed.
    """

    counts: dict[Setting, float]
    source: str = "file"
    seed: int | None = None

    def __post_init__(self):
        for s, n in self.counts.items():
            if not 0 <= n < np.inf:  # written so that NaN fails too
                raise ValueError(f"count for {s} must be nonnegative and finite, got {n!r}")

    @property
    def is_exact(self) -> bool:
        return self.source == "exact"

    def require(self, settings: Iterable[Setting]) -> None:
        for s in settings:
            if s not in self.counts:
                raise MissingSetting(f"counts table is missing setting {s.a},{s.b}")


@dataclass(frozen=True)
class SimConfig:
    """Mean pair flux per setting, noise mode ('exact' or 'poisson'), seed."""

    n_per_setting: float
    noise: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.n_per_setting < np.inf:  # written so that NaN fails too
            raise ValueError(f"n_per_setting must be positive and finite, got {self.n_per_setting!r}")
        if self.noise not in ("exact", "poisson"):
            raise ValueError(f"noise must be 'exact' or 'poisson', got {self.noise!r}")


@dataclass(frozen=True)
class EstimatedValue:
    """A point estimate with one standard deviation of Poisson noise."""

    value: float
    sigma: float = 0.0


def simulate_counts(rho: np.ndarray, settings: Iterable[Setting], cfg: SimConfig) -> CountsTable:
    """Expected (exact) or Poisson-sampled counts for each requested setting.

    Poisson draws use one independent substream per setting, keyed by the
    setting's canonical ordinal, so results are seed-reproducible no matter
    how the settings are ordered or distributed across workers. A rho that
    is not finite, or not Hermitian within 1e-10, raises ValueError.
    """
    settings = tuple(settings)
    ords = [_ORDINAL[s] for s in settings]
    p = np.trace(np.asarray(rho) @ _PROJECTORS[ords], axis1=1, axis2=2)
    if not np.isfinite(p).all():
        raise ValueError("state is not finite")
    residue = np.max(np.abs(p.imag), initial=0.0)
    if residue > 1e-10:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}; state is not Hermitian")
    counts = (cfg.n_per_setting * np.where(p.real > 0.0, p.real, 0.0)).tolist()
    if cfg.noise == "poisson":
        counts = [float(np.random.default_rng([cfg.seed, o]).poisson(m)) for o, m in zip(ords, counts)]
    seed = cfg.seed if cfg.noise == "poisson" else None
    return CountsTable(counts=dict(zip(settings, counts)), source=cfg.noise, seed=seed)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_HEADER = "basis_a,basis_b,count"


def parse_counts_csv(text: str) -> CountsTable:
    """Parse the counts CSV format.

    Lines starting with '#' are comments; '# source:' and '# seed:' comments
    written by write_counts_csv are recognized so a round trip preserves the
    table's provenance. The header line must read 'basis_a,basis_b,count'.
    """
    source = "file"
    seed: int | None = None
    counts: dict[Setting, float] = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("source:"):
                source = body.split(":", 1)[1].strip()
            elif body.startswith("seed:"):
                try:
                    seed = int(body.split(":", 1)[1].strip())
                except ValueError:
                    raise ParseError(f"line {lineno}: malformed seed comment {line!r}")
            continue
        if not saw_header:
            if line != _HEADER:
                raise ParseError(f"line {lineno}: expected header {_HEADER!r}, got {line!r}")
            saw_header = True
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            a = BasisLabel.parse(parts[0])
            b = BasisLabel.parse(parts[1])
        except ParseError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        try:
            n = float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: count {parts[2]!r} is not a number")
        if not np.isfinite(n) or n < 0:
            raise ParseError(f"line {lineno}: count must be a nonnegative number, got {parts[2]!r}")
        s = Setting(a, b)
        if s in counts:
            raise DuplicateSetting(f"line {lineno}: duplicate setting {s.a},{s.b}")
        counts[s] = n
    if not saw_header:
        raise ParseError("line 1: missing header line")
    return CountsTable(counts=counts, source=source, seed=seed)


def write_counts_csv(table: CountsTable) -> str:
    """Render a table in canonical setting order with provenance comments."""
    buf = io.StringIO()
    if table.source in ("exact", "poisson"):
        buf.write(f"# source: {table.source}\n")
    if table.seed is not None:
        buf.write(f"# seed: {table.seed}\n")
    buf.write(_HEADER + "\n")
    ordered = sorted(table.counts, key=lambda s: _ORDINAL[s])
    for s in ordered:
        n = table.counts[s]
        text = str(int(n)) if float(n).is_integer() else repr(float(n))
        buf.write(f"{s.a},{s.b},{text}\n")
    return buf.getvalue()


def data_file(name: str) -> str:
    """Absolute path of a bundled counts fixture (e.g. 'tableII_block1.csv')."""
    return str(resources.files("entquant").joinpath("data", name))


# ---------------------------------------------------------------------------
# Estimators: counts -> Pauli expectation matrix t -> g, k
# ---------------------------------------------------------------------------

_SIDE_A_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_SIDE_B_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def group_settings(i: int, j: int) -> tuple[Setting, ...]:
    """The four settings measuring the sigma_i (x) sigma_j eigenbasis."""
    pa, ma = PAULI_EIGENBASIS[i]
    pb, mb = PAULI_EIGENBASIS[j]
    return (Setting(pa, pb), Setting(pa, mb), Setting(ma, pb), Setting(ma, mb))


def _sign_matrix() -> np.ndarray:
    """_SIGN[4i + j, k]: the sign of canonical count k in the estimate of
    t[i, j], zero when count k is outside the group that t[i, j] reads."""
    sign = np.zeros((16, len(FULL_SETTINGS)))
    for i, j in product((1, 2, 3), repeat=2):
        cols = [_ORDINAL[s] for s in group_settings(i, j)]
        sign[4 * i + j, cols] = _SIDE_A_SIGNS * _SIDE_B_SIGNS
        if i == j:
            sign[4 * i, cols] = _SIDE_A_SIGNS
            sign[j, cols] = _SIDE_B_SIGNS
    return sign


_SIGN = _sign_matrix()
_MEMBER = (_SIGN != 0).astype(float)


def _estimate(table: CountsTable, settings: tuple[Setting, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group-normalized estimator: (n, t, dt/dn) from the given settings.

    n is the 36-count vector in canonical order, zero outside `settings`;
    t[i, j] = sum_k s_k n_k / T over the group of total T that the entry
    reads, with t[0, 0] = 1; the Jacobian row of entry e is
    dt_e/dn_k = (s_k - t_e) / T on the group and zero elsewhere. Entries
    whose group lies outside `settings` are 0 with zero derivative.
    """
    table.require(settings)
    cols = [_ORDINAL[s] for s in settings]
    n = np.zeros(len(FULL_SETTINGS))
    n[cols] = [table.counts[s] for s in settings]
    total = _MEMBER @ n
    read = _MEMBER[:, cols].any(axis=1)
    empty = read & (total <= 0)
    if empty.any():
        i, j = divmod(int(np.argmax(empty)), 4)
        raise ValueError(f"settings group ({i or j}, {j or i}) has zero total counts")
    inv = np.divide(1.0, total, out=np.zeros(16), where=read)
    t = (_SIGN @ n) * inv
    jac = _MEMBER * (_SIGN - t[:, None]) * inv[:, None]
    t[0] = 1.0
    return n, t.reshape(4, 4), jac


def _delta(table: CountsTable, n: np.ndarray, grad_n: np.ndarray) -> float:
    """First-order Poisson sigma: var(n_k) = n_k, settings independent,
    grad_n the estimate's gradient in the counts. Zero for exact tables."""
    if table.is_exact:
        return 0.0
    return float(np.sqrt(np.sum(grad_n * grad_n * n)))


def _entry(table: CountsTable, settings: tuple[Setting, ...], i: int, j: int) -> EstimatedValue:
    n, t, jac = _estimate(table, settings)
    return EstimatedValue(value=float(t[i, j]), sigma=_delta(table, n, jac[4 * i + j]))


def joint_expectation(table: CountsTable, i: int, j: int) -> EstimatedValue:
    """<sigma_i (x) sigma_j> from the (i, j) eigenbasis group."""
    return _entry(table, group_settings(i, j), i, j)


def marginal_expectation(table: CountsTable, side: str, i: int) -> EstimatedValue:
    """<sigma_i (x) I> (side 'A') or <I (x) sigma_i> (side 'B') from group (i, i)."""
    if side.upper() not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    entry = (i, 0) if side.upper() == "A" else (0, i)
    return _entry(table, group_settings(i, i), *entry)


def g_from_counts(table: CountsTable) -> GResult:
    """Covariance-sum measure from a full 36-setting table, with error bar.

    Each covariance entry is joint(i, j) - marginal_A(i) * marginal_B(j)
    under the group-normalization convention above; delta_g treats all 36
    counts as independent Poisson variables (zero for exact tables).
    """
    n, t, jac = _estimate(table, FULL_SETTINGS)
    g, cov, grad = _g_terms(t)
    return GResult(g=g, covariance=cov, delta_g=_delta(table, n, grad.reshape(16) @ jac), t=t)


def k_from_counts(table: CountsTable, s: SchmidtCoeffs) -> KResult:
    """Nonlocal variance sum from the 12-setting k-mode subset.

    Reads t00, t03, t30, t33, t11 and t22 only, so a full table gives the
    same result as its k-mode subset. The estimate is clamped at 0: the
    unbiased sum can dip marginally negative under Poisson noise when the
    true value is 0.
    """
    n, t, jac = _estimate(table, KMODE_SETTINGS)
    k, m, grad = _k_terms(t, s)
    return KResult(
        k=max(0.0, k),
        expectations=tuple(m.tolist()),
        bound=k_separable_bound(s),
        delta_k=_delta(table, n, grad @ jac),
    )
