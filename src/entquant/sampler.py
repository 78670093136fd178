"""Poisson counts on numpy's seeded substreams, bit for bit.

Count o of a table is numpy's Generator(PCG64(SeedSequence(key))).poisson
of its mean, with key [seed, o] for a single table and [w0, o] for the
table at index (i, j, ...) of a stack, where w0 is word 0 of
SeedSequence([seed, i, j, ...]). poisson_counts is the module's one entry
point. It derives each key's four SeedSequence state words with
seed_states, SeedSequence's hashing as array code, and then draws a single
table one Generator per count, handing PCG64 the words, and any stack in
one array pass, poisson_array, that runs numpy's PCG64 and Poisson samplers
on every substream at once. counts imports this module only under Poisson
noise, and numpy.random is imported only for a single table: exact-noise
runs and the reading verbs load neither, and no Poisson sweep imports
numpy.random.

The array pass seeds the PCG64 streams of every positive mean at once and
splits them between numpy's two methods. It then draws in rounds, each over
the streams not yet done. A round's cost is mostly the fixed cost of its
numpy calls: about the same whether it serves 40 streams or 1,500. So the
small sets that need many draws, the multiplication method's streams and
PTRS's stragglers after its first round, draw in blocks: a stream's next n
states come in one step by jump-ahead, as an LCG allows (Brown, Random
number generation with arbitrary strides, Trans. Am. Nucl. Soc. 71, 202,
1994). A block is laid out (n, K), stream innermost, so its 128-bit
products broadcast the (n, 1) jump constants against a row of streams and
each method reduces over axis 0. PTRS's first round, one (u, v) pair for
every stream, takes two plain steps on flat (K,) arrays.

The algorithms are numpy's own: the PCG64 XSL-RR generator (O'Neill, PCG
tech report, 2014) and its random_poisson, which draws 0 at a mean of 0,
uses the multiplication method below 10 and Hoermann's PTRS transformed
rejection (Insurance: Math. Econ. 12, 39, 1993) from 10 on.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np


def poisson_counts(means: np.ndarray, seed: int, ords: np.ndarray | list[int]) -> np.ndarray:
    """One Poisson count per mean (..., S), count [..., s] keyed by the
    setting ordinal ords[s] as the module docstring states: a 1-d means is
    one table, seeded from seed and drawn one Generator per count, and a
    stack's table at index (i, j, ...) is seeded from word 0 of
    [seed, i, j, ...], the whole stack drawn in one array pass, whatever its
    size. Counts are floats."""
    if means.ndim == 1:
        from numpy.random import PCG64, Generator, bit_generator

        bit_generator.ISeedSequence.register(_StateWords)
        draws = [Generator(PCG64(_StateWords(w))).poisson(m) for m, w in zip(means.tolist(), seed_states(seed, np.asarray(ords)))]
        return np.array(draws, dtype=float)
    w0 = seed_states(seed, *np.indices(means.shape[:-1]))[..., :1]
    return poisson_array(means.ravel(), seed_states(w0, np.asarray(ords)).reshape(-1, 4)).reshape(means.shape)


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
    SeedSequence mixes a key of fewer than four words as if zero words
    followed it, so a shorter key is hashed padded with them. An array part
    with values on both sides of 2**32 gives keys of uneven word counts,
    such as the [w0, o] keys of a stack; each is at most four words long,
    and is hashed with its absent words, which are zero, moved last.
    """
    shape = np.broadcast_shapes(*(np.shape(p) for p in key))
    words = []  # (32-bit word, whether the key has it: True for every key, or an array)
    for part in key:
        if np.ndim(part) == 0 and (part := operator.index(part)) >= 0:
            words += [(part >> s & 0xFFFFFFFF, True) for s in range(0, max(part.bit_length(), 1), 32)]
        elif np.ndim(part) and (np.asarray(part) >= 0).all():
            part = np.asarray(part).astype(np.uint64)
            words.append((part.astype(np.uint32), True))
            if (high := part >> 32).any():
                words.append((high.astype(np.uint32), True if high.all() else high > 0))
        else:
            raise ValueError(f"seed must be a nonnegative integer, got {part!r}")
    entropy = np.zeros((max(len(words), 4),) + shape, dtype=np.uint32)
    for i, (word, _) in enumerate(words):
        entropy[i] = word
    entropy = entropy.reshape(len(entropy), -1)
    if not all(has is True for _, has in words):  # uneven keys: a stack's, when its w0 words straddle 2**32
        assert len(words) <= 4, "keys of uneven word counts must be at most four words long"
        have = np.stack([np.broadcast_to(has, shape) for _, has in words]).reshape(len(words), -1)
        entropy[: len(have)] = np.take_along_axis(entropy[: len(have)], np.argsort(~have, axis=0, kind="stable"), axis=0)
    return _seed_pool(entropy).reshape(shape + (4,))


@functools.lru_cache
def _hash_consts(c: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's hash constants c * mult**j mod 2**32, j = 0..n, as a
    read-only column, since every call shares it."""
    consts = np.array([c * pow(mult, j, 1 << 32) & 0xFFFFFFFF for j in range(n + 1)], dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


_U16, _MIX_X, _MIX_Y = np.uint32(16), np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_HASH = functools.partial(_hash_consts, 0x43B0D7E5, 0x931E8875)
_POOL_C = _POOL_HASH(16)
#: For each source word of the pool: the rows it mixes into, and the xor and multiplier columns of their hash calls.
_POOL_MIXES = [(np.array([d for d in range(4) if d != s]), _POOL_C[4 + 3 * s : 7 + 3 * s], _POOL_C[5 + 3 * s : 8 + 3 * s]) for s in range(4)]
#: generate_state's hash constants, as (2, 4, 1): output word i hashes pool word i % 4.
_STATE_XOR, _STATE_MUL = (_hash_consts(0x8B51F9DD, 0x58F38DED, 8)[j : j + 8].reshape(2, 4, 1) for j in (0, 1))


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of v by the hash constants xor and mul, as a new array."""
    v = v ^ xor
    v *= mul
    v ^= v >> _U16
    return v


def _mix(x: np.ndarray, hashed: np.ndarray) -> None:
    """SeedSequence's mix(x, hashed), in place on x; hashed is overwritten."""
    hashed *= _MIX_Y
    x *= _MIX_X
    x -= hashed
    x ^= x >> _U16


def _seed_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mixing and generate_state(4, np.uint64) for each
    column of the (L, K) uint32 entropy, L >= 4 words: (K, 4) uint64. Hash
    call j xors with constant j and multiplies by constant j + 1 whatever it
    hashes, so calls that do not depend on one another run as one array
    operation."""
    pool = _hashmix(entropy[:4], _POOL_C[:4], _POOL_C[1:5])
    for src, (dst, xor, mul) in enumerate(_POOL_MIXES):
        mixed = pool[dst]
        _mix(mixed, _hashmix(pool[src], xor, mul))
        pool[dst] = mixed
    for i, word in enumerate(entropy[4:], 4):  # hash calls 4i to 4i + 3
        c = _POOL_HASH(4 * i + 4)[4 * i :]
        _mix(pool, _hashmix(word, c[:4], c[1:]))
    v = _hashmix(pool, _STATE_XOR, _STATE_MUL).reshape(8, -1)
    # state word i is v[2i] | v[2i + 1] << 32, as generate_state reads them: little-endian 32-bit words
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


# Every 64-bit word stays an np.uint64: under numpy 1.x a Python-int operand
# would turn a uint64 scalar into a float64.
_U1, _U11, _U32, _U58, _U63 = (np.uint64(s) for s in (1, 11, 32, 58, 63))
_LO32 = np.uint64(0xFFFFFFFF)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG_DEFAULT_MULTIPLIER_128

#: Doubles a round of the multiplication method draws per stream, and (u, v)
#: pairs a round of PTRS draws per stream after its first round.
_MULT_BLOCK = 16
_PTRS_BLOCK = 4


def _jump_table(n: int) -> np.ndarray:
    """A_i, rows 0-3, and C_i, rows 4-7, for i = 1..n, as (n, 1) columns of
    the factors _mul128 takes, where A_i = mult**i and C_i = sum of mult**j
    over j < i, mod 2**128: i steps of the LCG take a state s to
    A_i s + C_i inc. A factor is its hi and lo words and lo's low and high
    32-bit limbs; the limbs stay uint64, as operands of 64-bit products,
    which a uint32 operand would be cast for on every call."""
    rows, a, c = [], 1, 0
    for _ in range(n):
        a, c = a * _PCG_MULT % (1 << 128), (c + a) % (1 << 128)
        rows.append([x >> s & (1 << w) - 1 for x in (a, c) for s, w in ((64, 64), (0, 64), (0, 32), (32, 32))])
    return np.array(rows, dtype=np.uint64).T.copy()[..., None]


_JUMPS = _jump_table(max(_MULT_BLOCK, 2 * _PTRS_BLOCK))
_MULT = list(_JUMPS[:4, 0, 0])  # A_1, the multiplier, as four np.uint64 scalars


def _mul128(xhi, xlo, y):
    """x * y mod 2**128 as hi/lo uint64 words, y a factor of _JUMPS; the
    high word of xlo * ylo is built from 32-bit limbs, so no partial product
    overflows."""
    yhi, ylo, y0, y1 = y
    x0, x1 = xlo & _LO32, xlo >> _U32
    mid = x1 * y0 + (x0 * y0 >> _U32)
    mulhi = x1 * y1 + (mid >> _U32) + ((mid & _LO32) + x0 * y1 >> _U32)
    return mulhi + xlo * yhi + xhi * ylo, xlo * ylo


def _add128(x, y):
    """x + y mod 2**128 of two (hi, lo) pairs."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _double(hi, lo):
    """PCG64's double of a state, (xsl_rr(state) >> 11) * 2**-53."""
    x, rot = hi ^ lo, hi >> _U58
    return ((x >> rot | x << (-rot & _U63)) >> _U11) * 2.0**-53


class _PCG64Streams:
    """numpy's PCG64 (128-bit LCG, XSL-RR output) run on many streams at once,
    the 128-bit states held as hi/lo uint64 words.

    Each stream is seeded from its four SeedSequence state words w as PCG64
    seeds itself (pcg_setseq_128_srandom_r): increment (w2:w3 << 1) | 1, the
    zero state stepped once, plus w0:w1, stepped again.
    """

    def __init__(self, words: np.ndarray):
        w0, w1, w2, w3 = words.T
        self.inc_hi, self.inc_lo = w2 << _U1 | w3 >> _U63, w3 << _U1 | _U1
        lo = self.inc_lo + w1  # the zero state stepped is inc
        self.hi, self.lo = self.inc_hi + w0 + (lo < w1), lo
        self._step()

    def __getitem__(self, mask: np.ndarray) -> _PCG64Streams:
        """The streams that mask selects, as a new _PCG64Streams."""
        streams = object.__new__(_PCG64Streams)
        streams.hi, streams.lo, streams.inc_hi, streams.inc_lo = self.hi[mask], self.lo[mask], self.inc_hi[mask], self.inc_lo[mask]
        return streams

    def _step(self) -> None:
        """state = state * mult + inc mod 2**128."""
        self.hi, self.lo = _add128(_mul128(self.hi, self.lo, _MULT), (self.inc_hi, self.inc_lo))

    def next_double(self) -> np.ndarray:
        """Each stream's next double."""
        self._step()
        return _double(self.hi, self.lo)

    def block(self, n: int) -> np.ndarray:
        """Each stream's next n doubles (n, K), stream innermost, its n next
        states reached at once by jump-ahead, A_i state + C_i inc for
        i = 1..n."""
        hi, lo = _add128(_mul128(self.hi, self.lo, _JUMPS[:4, :n]), _mul128(self.inc_hi, self.inc_lo, _JUMPS[4:, :n]))
        self.hi, self.lo = hi[-1], lo[-1]
        return _double(hi, lo)


def poisson_array(lam: np.ndarray, words: np.ndarray) -> np.ndarray:
    """numpy's random_poisson on every mean lam (K,) at once, stream i seeded
    from the state words words[i] (K, 4). Every stream of a positive mean is
    seeded at once, then split between the two methods. Each round draws for
    the streams not yet done, and a done stream is dropped. A round of the
    multiplication method draws _MULT_BLOCK doubles a stream; a stream's
    count is the first index where the running product falls to exp(-lam).
    PTRS's first round draws one (u, v) pair a stream, a later one
    _PTRS_BLOCK pairs, of which the stream takes the first that passes."""
    out = np.zeros(lam.size)
    idx = np.flatnonzero(lam > 0.0)
    streams, small = _PCG64Streams(words[idx]), lam[idx] < 10.0
    # no name keeps the whole set past the split: it would add to the pass's peak, PTRS's first round
    midx, mult, idx, streams = idx[small], streams[small], idx[~small], streams[~small]
    prod, count = np.ones(midx.size), 0
    enlam = np.array([math.exp(-m) for m in lam[midx].tolist()])  # libm's exp, as numpy's C
    while midx.size:
        prods = mult.block(_MULT_BLOCK)
        prods[0] *= prod
        np.multiply.accumulate(prods, axis=0, out=prods)
        stop = prods <= enlam
        done = stop[-1]  # the running product never rises
        out[midx[done]] = count + stop[:, done].argmax(axis=0)
        midx, prod, enlam, count, mult = midx[~done], prods[-1, ~done], enlam[~done], count + _MULT_BLOCK, mult[~done]
    par = _ptrs_params(lam[idx])
    with np.errstate(divide="ignore", invalid="ignore"):  # us = 0 sends k to -inf, then int64 min: rejected as C does
        # over all streams, two plain steps cost less than a block's two 128-bit products per draw
        k, done = _ptrs_round(streams.next_double() - 0.5, streams.next_double(), par)
        out[idx[done]] = k[done]
        idx, par, streams = idx[~done], par[:, ~done], streams[~done]
        while idx.size:
            draws = streams.block(2 * _PTRS_BLOCK)
            k, ok = _ptrs_round(draws[0::2] - 0.5, draws[1::2], par)
            done = ok.any(axis=0)
            out[idx[done]] = k[ok[:, done].argmax(axis=0), done]
            idx, par, streams = idx[~done], par[:, ~done], streams[~done]
    return out


def _ptrs_params(lam: np.ndarray) -> np.ndarray:
    """PTRS's constants lam, log(lam), a, b, invalpha and vr of each mean, as
    rows (6, K); a function, so that no (K,) temporary outlives it into the
    first round, where the pass peaks."""
    b = 0.931 + 2.53 * np.sqrt(lam)
    return np.stack([lam, np.log(lam), -0.059 + 0.02483 * b, b, 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2)])


def _ptrs_round(u: np.ndarray, v: np.ndarray, par: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PTRS's k and acceptance of each pair (u, v), u a double less 0.5 and
    v the next double, of the streams along the last axis of par."""
    lam, _, a, b, _, vr = par
    us = 0.5 - np.abs(u)
    k = np.floor((2 * a / us + b) * u + lam + 0.43).astype(np.int64)
    ok = (us >= 0.07) & (v <= vr)
    test = np.nonzero(~ok & (k >= 0) & ~((us < 0.013) & (v > us)))
    ok[test] = _ptrs_log_test(v[test], us[test], k[test], par[:, test[-1]])
    return k, ok


#: The guard band of _ptrs_log_test, relative to the sum of its terms' sizes.
_LOG_GUARD = 64 * 2.0**-52
_LOGGAM_COEFFS = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04, -5.952380952380952e-04,
                  8.417508417508418e-04, -1.917526917526918e-03, 6.410256410256410e-03, -2.955065359477124e-02,
                  1.796443723688307e-01, -1.39243221690590e+00)


def _ptrs_log_test(v: np.ndarray, us: np.ndarray, k: np.ndarray, par: np.ndarray) -> np.ndarray:
    """PTRS's acceptance test log(V) + log(invalpha) - log(a / us**2 + b) <=
    -lam + k log(lam) - loggam(k + 1), decided as numpy's C decides it.

    np.log can differ from libm's log by an ulp, so numpy decides only
    outside a band of _LOG_GUARD times the sum of the terms' sizes; inside
    it, and where loggam takes its small-argument branch (k + 1 < 7), the
    test is redone with math.log and _loggam, as the C code computes it.
    """
    lam, loglam, a, b, invalpha, _ = par
    x = (k + 1).astype(float)
    with np.errstate(divide="ignore"):  # v = 0 gives -inf, as libm's log does
        terms = np.stack([np.log(v), np.log(invalpha), -np.log(a / (us * us) + b), -lam, k * loglam,
                          -_stirling(np.maximum(x, 7.0), np.log)])
    lhs, rhs = terms[0] + terms[1] + terms[2], terms[3] + terms[4] + terms[5]
    ok = lhs <= rhs
    near = (np.abs(lhs - rhs) <= _LOG_GUARD * np.abs(terms).sum(axis=0)) | (x < 7.0)
    for i in np.flatnonzero(near & (v > 0.0)).tolist():  # v = 0: lhs is -inf on both sides
        lam_i, us_i, k_i = float(lam[i]), float(us[i]), int(k[i])
        lhs_i = math.log(v[i]) + math.log(invalpha[i]) - math.log(a[i] / (us_i * us_i) + b[i])
        ok[i] = lhs_i <= -lam_i + k_i * math.log(lam_i) - _loggam(float(k_i + 1))
    return ok


def _loggam(x: float) -> float:
    """numpy's random_loggam, log Gamma(x), transcribed with libm's log."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    gl = _stirling(x0, math.log)
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _stirling(x0, log):
    """random_loggam's Stirling series at x0 >= 7, with the given log."""
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for c in _LOGGAM_COEFFS[8::-1]:
        gl0 = gl0 * x2 + c
    return gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * log(x0) - x0
