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
frequencies and w each outcome's weight in grad_t f . t. The CLI's analyze
reads g, k and the tomographic state from one estimate of the full table,
the (t, group counts, inverse group totals) that GResult.estimate carries:
k reads only the diagonal groups, so it is the same, bit for bit, on the
full table's estimate as on its k-mode subset's.

_estimate reads one table through _pauli_matrix, which reads a stack of
tables of any leading shape and never raises: a read group whose total has
no positive finite inverse (zero, subnormal or non-finite) is marked in a
mask and read as a group outside the settings. _estimate, and so every
public estimator, raises ValueError naming the first such group of its
table; the sweeps write nan for the tables the mask marks.

Poisson counts are drawn by sampler.poisson_counts, which states how each
count is seeded and drawn; _simulate imports it only under Poisson noise.

No BLAS call touches a state or a table. Every contraction, here and in
measures' _g_terms and _k_terms, is an elementwise product summed by
np.add.reduce, whose order numpy fixes in its source: fewer than 8 terms
are added to zero in turn, whatever the memory layout, and the 16 terms of
a setting probability or of a k projector expectation, which lie along the
last, contiguous axis, are added pairwise. So the counts and every float
computed from them are the same bits on every OpenBLAS kernel, and for a
table alone as in a stack; only the fields read from an eigensolve or SVD
are not (see README).
"""

from __future__ import annotations

import functools
import io
import operator
from dataclasses import InitVar, dataclass
from importlib import resources
from itertools import product
from typing import Iterable, NamedTuple

import numpy as np

from .algebra import pure_to_density, tensor_product, validate_density
from .errors import DuplicateSetting, MissingSetting, ParseError, UnknownLabel
from .measures import GResult, KResult, SchmidtCoeffs, _check_pauli_indices, _g_terms, _k_terms, k_separable_bound
from .optics import PAULI_EIGENBASIS, BasisLabel


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
#: CSV tables: each spelling BasisLabel.parse accepts -> its index in _LABEL_ORDER, so
#: setting (a, b) is FULL_SETTINGS[6 * index(a) + index(b)]; each setting's "a,b," row prefix.
_LABEL_INDEX = {t: _LABEL_ORDER.index(BasisLabel.parse(t)) for t in "HVDARLhvdarl+-"}
_ROW_PREFIX = tuple(f"{s.a},{s.b}," for s in FULL_SETTINGS)
#: The joint projector |a b><a b| of every setting, in canonical order (6 * index(a) + index(b)).
_LABEL_KETS = np.array([x.ket for x in _LABEL_ORDER])
_PROJECTORS = pure_to_density(tensor_product(_LABEL_KETS, _LABEL_KETS))
#: Each projector transposed and flattened (36, 16), as real and imaginary tables: tr(rho P) = sum_ij rho_ij P_ji.
_W_RE, _W_IM = (np.ascontiguousarray(part(_PROJECTORS.swapaxes(-1, -2).reshape(36, 16))) for part in (np.real, np.imag))
#: States per block of _simulate's probabilities. A block's (16, 36, 16) float
#: temporaries take 72 KiB each, below glibc's 128 KiB mmap threshold, so they
#: are reused from the heap instead of mapped and faulted in anew on each call.
_PROBABILITY_BLOCK = 16
#: The largest mean numpy's Generator.poisson accepts, computed as numpy does.
_POISSON_MAX = float(np.iinfo("l").max - 10 * np.sqrt(np.iinfo("l").max))


def group_settings(i: int, j: int) -> tuple[Setting, ...]:
    """The four settings measuring the sigma_i (x) sigma_j eigenbasis, in
    outcome order (++, +-, -+, --). An index outside 1..3 is rejected as
    measures.covariance rejects it."""
    _check_pauli_indices("Pauli index", i, j)
    pa, ma = PAULI_EIGENBASIS[i]
    pb, mb = PAULI_EIGENBASIS[j]
    return (Setting(pa, pb), Setting(pa, mb), Setting(ma, pb), Setting(ma, mb))


#: _GROUP_SLOTS[i - 1, j - 1] holds the canonical ordinals of group_settings(i, j).
_GROUP_SLOTS = np.array([[[_ORDINAL[s] for s in group_settings(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)])
#: The 12-setting subset (three complete eigenbasis groups) sufficient for k.
KMODE_SETTINGS: tuple[Setting, ...] = tuple(FULL_SETTINGS[o] for o in np.sort(np.diagonal(_GROUP_SLOTS), axis=None))


@dataclass
class CountsTable:
    """Map from settings to nonnegative coincidence counts. A key that is
    not one of the 36 settings raises ValueError.

    source is 'exact' for noiseless expected counts (error bars are zero),
    'poisson' for sampled counts, and 'file' for parsed data of unknown
    provenance (treated as Poisson). seed records the sampling seed.
    """

    counts: dict[Setting, float]
    source: str = "file"
    seed: int | None = None
    _checked: InitVar[bool] = False  # set by parse_counts_csv, which has checked every count

    def __post_init__(self, _checked):
        for s, n in () if _checked else self.counts.items():
            if s not in _ORDINAL:  # a (BasisLabel, BasisLabel) tuple equals its Setting, so it passes
                raise ValueError(f"counts key {s!r} is not one of the 36 settings")
            if not 0 <= n < np.inf:  # written so that NaN fails too
                raise ValueError(f"count for {s} must be nonnegative and finite, got {n!r}")

    @property
    def is_exact(self) -> bool:
        return self.source == "exact"


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
    is not one 4x4 matrix, not finite, not Hermitian within 1e-10, of trace
    not 1 within 1e-10 or with an eigenvalue below -1e-10 raises ValueError.
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

    Under Poisson noise, each count is one sampler.poisson_counts draw on
    its own substream, keyed by the state's index and the setting's ordinal.

    The probability of a setting is tr(rho P) = sum_k r_k W_k over the 16
    entries r of rho and W of P transposed, each term r.real W.real -
    r.imag W.imag, summed by np.add.reduce along its last, contiguous axis:
    numpy's fixed pairwise order, the same on every CPU and BLAS kernel and
    for a single state as for each state of a stack. The flattened stack is
    taken _PROBABILITY_BLOCK states at a time, so the (block, S, 16) product
    temporaries stay small whatever the stack's size; each probability still
    sums its own 16 terms, so the block edges move no bit.
    """
    ords = [_ORDINAL[s] for s in settings]
    if not np.isfinite(rhos).all():  # checked before the product, so no numpy warning leaks out
        raise ValueError("state is not finite")
    validate_density(rhos, eig_tol=1e-10)
    r, w_re, w_im = rhos.reshape(-1, 1, 16), _W_RE[ords], _W_IM[ords]
    p = np.empty((len(r), len(ords)))
    for i in range(0, len(r), _PROBABILITY_BLOCK):
        b = r[i : i + _PROBABILITY_BLOCK]
        np.add.reduce(b.real * w_re - b.imag * w_im, axis=-1, out=p[i : i + _PROBABILITY_BLOCK])
    p = p.reshape(rhos.shape[:-2] + (len(ords),))
    counts = cfg.n_per_setting * np.where(p > 0.0, p, 0.0)
    if cfg.noise == "poisson":
        from .sampler import poisson_counts

        # p can pass 1 by rounding; no mean may pass numpy's limit
        counts = poisson_counts(np.minimum(counts, _POISSON_MAX), cfg.seed, ords)
    n = np.zeros(counts.shape[:-1] + (len(FULL_SETTINGS),))
    n[..., ords] = counts
    return n


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

_HEADER = "basis_a,basis_b,count"


def parse_counts_csv(text: str) -> CountsTable:
    """Parse the counts CSV format. Blank lines are skipped and '#' lines are
    comments, of which '# source:' and '# seed:' (as write_counts_csv writes
    them) restore the table's provenance. Then comes the header
    'basis_a,basis_b,count', then rows 'a,b,count' in any order: labels
    H V D A R L in either case, '+' for D and '-' for A, and a nonnegative
    finite count. Errors are ParseError subclasses whose message starts
    'line <n>:'. Read files as 'utf-8-sig', as the CLI does, to drop a BOM.
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
            s = FULL_SETTINGS[6 * _LABEL_INDEX[parts[0]] + _LABEL_INDEX[parts[1]]]
        except KeyError as exc:  # the first field that is not a label
            raise UnknownLabel(f"line {lineno}: unknown basis label {exc.args[0]!r}") from None
        try:
            n = float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: count {parts[2]!r} is not a number")
        if not 0 <= n < np.inf:  # written so that NaN fails too
            raise ParseError(f"line {lineno}: count must be a nonnegative number, got {parts[2]!r}")
        if s in counts:
            raise DuplicateSetting(f"line {lineno}: duplicate setting {s.a},{s.b}")
        counts[s] = n
    if not saw_header:
        raise ParseError("line 1: missing header line")
    return CountsTable(counts=counts, source=source, seed=seed, _checked=True)


def write_counts_csv(table: CountsTable) -> str:
    """Render a table in canonical setting order with provenance comments."""
    buf = io.StringIO()
    if table.source in ("exact", "poisson"):
        buf.write(f"# source: {table.source}\n")
    if table.seed is not None:
        buf.write(f"# seed: {table.seed}\n")
    buf.write(_HEADER + "\n")
    for o, n in sorted((_ORDINAL[s], n) for s, n in table.counts.items()):
        buf.write(f"{_ROW_PREFIX[o]}{int(n) if float(n).is_integer() else repr(float(n))}\n")
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
#: _delta's weight of outcome o of group g is sum_m _MOMENTS[m, o] df/dt_e over the moments m of g, e the entry
#: of t read from moment m (_T_SOURCE). Each term (3, 3, 4 outcomes, 4 moments) as an index into the 49 values
#: [df/dt, -df/dt, 0 x 17]: e, 32 where no entry of t reads moment m, plus 16 where _MOMENTS[m, o] = -1.
_OUTCOME_TERMS = (np.bincount(_T_SOURCE[1:], np.arange(1, 16) - 32, 36) + 32).astype(np.intp).reshape(3, 3, 1, 4) + 16 * (_MOMENTS.T < 0)


@functools.lru_cache
def _layout(settings: tuple[Setting, ...]) -> tuple[np.ndarray, operator.itemgetter, np.ndarray]:
    """A setting list's canonical ordinals, a getter of its counts from a
    table's dict, and the mask (3, 3) of the groups it reads."""
    ords = np.array([_ORDINAL[s] for s in settings], dtype=np.intp)
    read = np.isin(_GROUP_SLOTS, ords).any(axis=-1)
    ords.flags.writeable = read.flags.writeable = False  # every call shares them
    return ords, operator.itemgetter(*settings), read


def _estimate(table: CountsTable, settings: tuple[Setting, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group-normalized estimator on one table: t, the group counts and
    1/T from _pauli_matrix of its counts at the given settings. A table with
    an unreadable group raises ValueError naming the first, in row-major
    order."""
    ords, get, _ = _layout(settings)
    try:  # the counts at their canonical ordinals, zero elsewhere
        n = np.bincount(ords, weights=get(table.counts), minlength=len(FULL_SETTINGS))
    except KeyError as exc:  # the getter stops at the first setting the table lacks
        raise MissingSetting(f"counts table is missing setting {exc.args[0].a},{exc.args[0].b}") from None
    t, groups, inv, bad = _pauli_matrix(n, settings)
    if bad.any():
        raise ValueError(_unreadable(groups, bad))
    return t, groups, inv


def _unreadable(groups: np.ndarray, bad: np.ndarray) -> str:
    """'settings group (i, j) has zero|subnormal|non-finite total counts' for
    the first group, in row-major order, that bad (3, 3) marks in one table's
    group counts (3, 3, 4), both as _pauli_matrix returns them."""
    i, j = np.argwhere(bad)[0]
    total = sum(groups[i, j].tolist())  # a Python float overflows to inf without a numpy warning
    kind = "zero" if total == 0.0 else "subnormal" if total < 1.0 else "non-finite"
    return f"settings group ({i + 1}, {j + 1}) has {kind} total counts"


def _pauli_matrix(n: np.ndarray, settings: Iterable[Setting]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """t (..., 4, 4), the group counts n[..., _GROUP_SLOTS] (..., 3, 3, 4),
    the inverse group totals 1/T (..., 3, 3) and the mask bad (..., 3, 3) of
    unreadable groups, from canonical counts n (..., 36) of any leading
    shape, measured at the given settings. It never raises.

    Each group's moments are its signed sums scaled by 1/T, and t gathers
    them, with t[0, 0] = 1. Summing before scaling keeps t exact on integer
    counts. Groups outside the settings get 1/T = 0, so the entries that
    read them are 0. bad marks each read group whose total has no positive
    finite inverse: a zero, subnormal or non-finite total. Such a group is
    read as if it were outside the settings, so each table of a stack reads
    as it does alone, and finite counts give a finite t and _delta.
    """
    read = _layout(tuple(settings))[2]
    groups = n[..., _GROUP_SLOTS]
    with np.errstate(over="ignore", divide="ignore"):  # bad totals are marked below, not warned about
        sums = np.add.reduce(groups[..., None, :] * _MOMENTS, axis=-1)  # each moment times T
        # 1/T in the memory layout of the sums, a stack's tables innermost, as _delta's products run fastest
        inv = np.divide(1.0, sums[..., 0], out=np.zeros_like(sums[..., 0]), where=read)
    bad = read & ~((inv > 0.0) & (inv < np.inf))
    if bad.any():  # only here, so that readable tables pay no masked product
        sums[bad] = inv[bad] = 0.0
    t = (sums * inv[..., None]).reshape(n.shape).take(_T_SOURCE, axis=-1)  # C order, as a single table has it
    t[..., 0] = 1.0
    return t.reshape(n.shape[:-1] + (4, 4)), groups, inv, bad


def _delta(groups: np.ndarray, inv: np.ndarray, grad_t: np.ndarray, exact: bool) -> np.ndarray:
    """Poisson sigma of an estimate f(t), sqrt(sum over groups of var_p(w) / T)
    as in the module docstring, from _pauli_matrix's group counts and inverse
    totals and grad_t = df/dt (..., 4, 4). Zero when exact."""
    if exact:
        return np.zeros(inv.shape[:-2])
    grad = grad_t.reshape(grad_t.shape[:-2] + (16,))
    terms = np.concatenate([grad, -grad, np.zeros(grad.shape[:-1] + (17,))], axis=-1)[..., _OUTCOME_TERMS]
    w = np.add.reduce(terms, axis=-1)  # each outcome's weight, summed over the moments from zero
    p = groups * inv[..., None]
    dev = w - (p * w).sum(axis=-1, keepdims=True)
    # the nine group terms in C order, so that numpy sums them pairwise whatever the layout of the stack
    return np.sqrt(np.add.reduce(((p * dev * dev).sum(axis=-1) * inv).reshape(inv.shape[:-2] + (9,)).copy(), axis=-1))


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
    estimate = t, groups, inv = _estimate(table, FULL_SETTINGS)
    g, cov, grad = _g_terms(t)
    return GResult(g=float(g), covariance=cov, delta_g=float(_delta(groups, inv, grad, table.is_exact)), estimate=estimate)


def k_from_counts(table: CountsTable, s: SchmidtCoeffs, g: GResult | None = None) -> KResult:
    """Nonlocal variance sum from the 12-setting k-mode subset.

    Reads t00, t03, t30, t33, t11 and t22 only, so a full table gives the
    same result as its k-mode subset. Given g, the g_from_counts result of
    this same table, k reads the estimate that g was made from, and the
    result is the same bit for bit. The estimate is clamped at 0: the
    unbiased sum can dip marginally negative under Poisson noise when the
    true value is 0.
    """
    t, groups, inv = _estimate(table, KMODE_SETTINGS) if g is None else g.estimate
    k, m, grad = _k_terms(t, s.a, s.b)
    return KResult(
        k=float(k),
        expectations=tuple(m.tolist()),
        bound=k_separable_bound(s),
        delta_k=float(_delta(groups, inv, grad, table.is_exact)),
    )
