"""Coincidence-count tables: simulation, CSV serialization, and estimators.

A setting is one analyzer pair (basis_a, basis_b); a full table holds all 36
pairs over {H, V, D, A, R, L}. They form nine eigenbasis groups (i, j), each
with four outcomes (++, +-, -+, --) and its own total T. Expectations are
moments normalized within a group, so no equal-flux assumption is needed
across groups:

* <s_i (x) s_j> is the s_a s_b moment of group (i, j), the outcomes weighted
  by their eigenvalue products,
* <s_i (x) I> and <I (x) s_j> are the s_a and s_b moments of the diagonal
  groups (i, i) and (j, j).

One estimator, _estimate, gathers these into the 4x4 Pauli expectation
matrix t[i, j] = <s_i (x) s_j>. g and k are functions of t (see measures),
and every error bar follows one delta-method rule, _delta: with the counts
independent Poisson variables, var(n) = n, an estimate f(t) has
sigma_f^2 = sum over groups of var_p(w) / T, p the group's outcome
frequencies and w each outcome's weight in grad_t f . t.
"""

from __future__ import annotations

import io
import operator
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
#: The largest mean numpy's Generator.poisson accepts, computed as numpy does.
_POISSON_MAX = float(np.iinfo("l").max - 10 * np.sqrt(np.iinfo("l").max))


def group_settings(i: int, j: int) -> tuple[Setting, ...]:
    """The four settings measuring the sigma_i (x) sigma_j eigenbasis, in
    outcome order (++, +-, -+, --)."""
    pa, ma = PAULI_EIGENBASIS[i]
    pb, mb = PAULI_EIGENBASIS[j]
    return (Setting(pa, pb), Setting(pa, mb), Setting(ma, pb), Setting(ma, mb))


#: _GROUP_SLOTS[i - 1, j - 1] holds the canonical ordinals of group_settings(i, j).
_GROUP_SLOTS = np.array([[[_ORDINAL[s] for s in group_settings(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)])
#: The 12-setting subset (three complete eigenbasis groups) sufficient for k.
KMODE_SETTINGS: tuple[Setting, ...] = tuple(FULL_SETTINGS[o] for o in np.sort(np.diagonal(_GROUP_SLOTS), axis=None))


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
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.noise == "poisson" and self.n_per_setting > _POISSON_MAX:
            raise ValueError(f"n_per_setting must be at most {_POISSON_MAX!r} under Poisson noise, got {self.n_per_setting!r}")


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
    is not one 4x4 matrix, not finite, or not Hermitian within 1e-10 raises
    ValueError.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"rho must be one 4x4 matrix, got shape {rho.shape}")
    settings = tuple(settings)
    n = dict(zip(FULL_SETTINGS, _simulate(rho, settings, cfg).tolist()))
    seed = cfg.seed if cfg.noise == "poisson" else None
    return CountsTable(counts={s: n[s] for s in settings}, source=cfg.noise, seed=seed)


def _simulate(rhos: np.ndarray, settings: Iterable[Setting], cfg: SimConfig) -> np.ndarray:
    """Canonical counts (..., 36) of one state or a stack of states
    rhos (..., 4, 4), at the given settings and zero elsewhere.

    Poisson count o of a single state draws from the substream of key
    [cfg.seed, o]. In a stack, the state at index (i, j, ...) draws from
    [w0, o] instead, where w0 is word 0 of SeedSequence([cfg.seed, i, j, ...]).
    """
    ords = [_ORDINAL[s] for s in settings]
    if not np.isfinite(rhos).all():  # checked before the product, so no numpy warning leaks out
        raise ValueError("state is not finite")
    p = np.trace(rhos[..., None, :, :] @ _PROJECTORS[ords], axis1=-2, axis2=-1)
    residue = np.max(np.abs(p.imag), initial=0.0)
    if residue > 1e-10:
        raise ValueError(f"expectation has imaginary residue {residue:.3e}; state is not Hermitian")
    counts = cfg.n_per_setting * np.where(p.real > 0.0, p.real, 0.0)
    if cfg.noise == "poisson":
        seed = seed_states(cfg.seed, *np.indices(rhos.shape[:-2]))[..., :1] if rhos.ndim > 2 else cfg.seed
        # p can pass 1 by rounding, or for a rho of trace above 1; no mean may pass numpy's limit
        counts = _poisson(np.minimum(counts, _POISSON_MAX), seed_states(seed, np.array(ords)))
    n = np.zeros(counts.shape[:-1] + (len(FULL_SETTINGS),))
    n[..., ords] = counts
    return n


def _poisson(means: np.ndarray, states: np.ndarray) -> np.ndarray:
    """One Poisson draw per mean, each from a PCG64 seeded with its own four
    SeedSequence state words. numpy.random is imported here, not at module
    import: it costs 13-18 ms that runs without Poisson noise need not pay."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    draws = [Generator(PCG64(_StateWords(w))).poisson(m) for m, w in zip(means.ravel().tolist(), states.reshape(-1, 4))]
    return np.array(draws, dtype=float).reshape(means.shape)


class _StateWords:
    """An ISeedSequence that hands PCG64 a precomputed generate_state(4, np.uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seed_states(*key) -> np.ndarray:
    """np.random.SeedSequence([k0, k1, ...]).generate_state(4, np.uint64) for
    every key of the broadcast parts k0, k1, ..., bit for bit: shape (..., 4).

    A part is a nonnegative int of any size or an array of nonnegative
    integers below 2**64. SeedSequence takes each value as its little-endian
    32-bit words, zero as one word; word 0 of the result is
    generate_state(1, np.uint64), since generate_state is prefix-consistent.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in key))
    words = []  # (32-bit word, whether the key has it)
    for part in key:
        if np.ndim(part) == 0 and operator.index(part) >= 0:
            part = operator.index(part)
            words += [(part >> s & 0xFFFFFFFF, True) for s in range(0, max(part.bit_length(), 1), 32)]
        elif np.ndim(part) and (np.asarray(part) >= 0).all():
            part = np.asarray(part).astype(np.uint64)
            words += [(part.astype(np.uint32), True), ((part >> 32).astype(np.uint32), part >> 32 > 0)]
        else:
            raise ValueError(f"seed must be a nonnegative integer, got {part!r}")
    entropy = np.empty((len(words),) + shape, dtype=np.uint32)
    have = np.empty((len(words),) + shape, dtype=bool)
    for i, (word, has) in enumerate(words):
        entropy[i], have[i] = word, has
    entropy, have = entropy.reshape(len(words), -1), have.reshape(len(words), -1)
    entropy = np.take_along_axis(entropy, np.argsort(~have, axis=0, kind="stable"), axis=0)
    length = have.sum(axis=0)
    out = np.empty((length.size, 4), dtype=np.uint64)
    for size in np.flatnonzero(np.bincount(length)):
        out[length == size] = _seed_pool(entropy[:size, length == size])
    return out.reshape(shape + (4,))


def _seed_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mixing and generate_state(4, np.uint64) for each
    column of the (L, K) uint32 entropy: (K, 4) uint64. Hash call j xors with
    constant j and multiplies by constant j + 1 whatever it hashes, so calls
    that do not depend on one another run as one array operation."""

    def consts(c: int, mult: int, n: int) -> np.ndarray:  # c * mult**j mod 2**32, j = 0..n
        return np.array([c * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(n + 1)], dtype=np.uint32)[:, None]

    def hashmix(v: np.ndarray, c: np.ndarray, j: int) -> np.ndarray:
        v = (v ^ c[j : j + len(v)]) * c[j + 1 : j + 1 + len(v)]
        return v ^ v >> np.uint32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> np.uint32(16)

    c = consts(0x43B0D7E5, 0x931E8875, 16 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = hashmix(pool, c, 0)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * 3], c, 4 + 3 * src))
    for i, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(np.stack([word] * 4), c, 16 + 4 * i))
    v = hashmix(pool[[0, 1, 2, 3] * 2], consts(0x8B51F9DD, 0x58F38DED, 8), 0).astype(np.uint64)
    return (v[0::2] | v[1::2] << np.uint64(32)).T


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
# Estimators: counts -> group moments -> Pauli expectation matrix t -> g, k
# ---------------------------------------------------------------------------

#: Outcome weights (++, +-, -+, --) of the group moments 1, s_a, s_b and s_a s_b.
_MOMENTS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
#: t[i, j] as a flat index into the group moments (3, 3, 4): the s_a s_b moment
#: of group (i, j); for a marginal, the s_a or s_b moment of the diagonal group.
#: t[0, 0] = 1 is set apart.
_T_SOURCE = np.array(
    [12 * ((i or j or 1) - 1) + 4 * ((j or i or 1) - 1) + (i > 0) + 2 * (j > 0) for i, j in product(range(4), repeat=2)]
)


def _estimate(table: CountsTable, settings: tuple[Setting, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group-normalized estimator on one table: _pauli_matrix of its
    counts at the given settings."""
    table.require(settings)
    n = np.zeros(len(FULL_SETTINGS))
    n[[_ORDINAL[s] for s in settings]] = [table.counts[s] for s in settings]
    return _pauli_matrix(n, settings)


def _pauli_matrix(n: np.ndarray, settings: Iterable[Setting]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t (..., 4, 4), the group counts n[..., _GROUP_SLOTS] (..., 3, 3, 4)
    and the inverse group totals 1/T (..., 3, 3) from canonical counts
    n (..., 36) of any leading shape, measured at the given settings.

    Each group's moments are its signed sums scaled by 1/T, and t gathers
    them, with t[0, 0] = 1. Summing before scaling keeps t exact on integer
    counts. Groups outside the settings get 1/T = 0, so the entries that
    read them are 0. A group that is read must have a total whose inverse
    is positive and finite; otherwise ValueError names the first such group.
    """
    read = (np.bincount([_ORDINAL[s] for s in settings], minlength=len(FULL_SETTINGS)) > 0)[_GROUP_SLOTS].any(axis=-1)
    groups = n[..., _GROUP_SLOTS]
    with np.errstate(over="ignore", divide="ignore"):  # bad totals are reported below, not warned about
        sums = groups @ _MOMENTS.T
        inv = np.divide(1.0, sums[..., 0], out=np.zeros(sums.shape[:-1]), where=read)
    bad = read & ~((inv > 0.0) & (inv < np.inf))
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        total, (i, j) = sums[index][0], np.add(index[-2:], 1)
        kind = "zero" if total == 0.0 else "subnormal" if total < 1.0 else "non-finite"
        raise ValueError(f"settings group ({i}, {j}) has {kind} total counts")
    t = (sums * inv[..., None]).reshape(n.shape)[..., _T_SOURCE]
    t[..., 0] = 1.0
    return t.reshape(n.shape[:-1] + (4, 4)), groups, inv


def _delta(groups: np.ndarray, inv: np.ndarray, grad_t: np.ndarray, exact: bool) -> np.ndarray:
    """Poisson sigma of an estimate f(t), sqrt(sum over groups of var_p(w) / T)
    as in the module docstring, from _pauli_matrix's group counts and inverse
    totals and grad_t = df/dt (..., 4, 4). Zero when exact."""
    if exact:
        return np.zeros(inv.shape[:-2])
    weights = np.zeros(grad_t.shape[:-2] + (36,))  # df/d(moment), laid out as the moments
    weights[..., _T_SOURCE[1:]] = grad_t.reshape(grad_t.shape[:-2] + (16,))[..., 1:]
    w = weights.reshape(groups.shape) @ _MOMENTS  # each outcome's weight
    p = groups * inv[..., None]
    dev = w - (p * w).sum(axis=-1, keepdims=True)
    return np.sqrt(((p * dev * dev).sum(axis=-1) * inv).sum(axis=(-2, -1)))


def _entry(table: CountsTable, settings: tuple[Setting, ...], i: int, j: int) -> EstimatedValue:
    t, groups, inv = _estimate(table, settings)
    grad = np.zeros((4, 4))  # dt[i, j]/dt
    grad[i, j] = 1.0
    return EstimatedValue(value=float(t[i, j]), sigma=float(_delta(groups, inv, grad, table.is_exact)))


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
    t, groups, inv = _estimate(table, FULL_SETTINGS)
    g, cov, grad = _g_terms(t)
    return GResult(g=float(g), covariance=cov, delta_g=float(_delta(groups, inv, grad, table.is_exact)), t=t)


def k_from_counts(table: CountsTable, s: SchmidtCoeffs) -> KResult:
    """Nonlocal variance sum from the 12-setting k-mode subset.

    Reads t00, t03, t30, t33, t11 and t22 only, so a full table gives the
    same result as its k-mode subset. The estimate is clamped at 0: the
    unbiased sum can dip marginally negative under Poisson noise when the
    true value is 0.
    """
    t, groups, inv = _estimate(table, KMODE_SETTINGS)
    k, m, grad = _k_terms(t, s.a, s.b)
    return KResult(
        k=float(k),
        expectations=tuple(m.tolist()),
        bound=k_separable_bound(s),
        delta_k=float(_delta(groups, inv, grad, table.is_exact)),
    )
