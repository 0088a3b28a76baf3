"""Counter-based random streams, one triple per realization.

Every realization ``i`` owns three independent Philox4x64-10 streams
(Wiener increments, jump times, marks).  The stream key encodes the
configured seed, the realization index and the stream id, so path ``i``
draws the same numbers no matter how realizations are batched or spread
over workers.  That property is what makes output byte-identical for any
worker count.

Philox is a pure function of key and counter (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11): word ``w`` of a stream is
word ``w % 4`` of block ``w // 4``, which numpy's generator computes with
counter ``w // 4 + 1``.  So the engines draw a whole chunk at once:
``philox_words`` evaluates the blocks of many (realization, block) pairs
on uint64 arrays, and ``standard_normal``, ``standard_exponential`` and
``random`` turn words into numpy's draws.  The first two are the fast
path of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000)
with numpy's own tables; a draw they reject needs numpy's slow path,
whose libm ``exp``/``log1p`` numpy's array functions do not match bit for
bit, so that row goes on with numpy's generator from the rejected draw's
word offset.  ``KeyedStream`` serves a stream family: ``draws`` for a
chunk, ``at(i, word)`` as the one-row generator at any word offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ziggurat import KE_DOUBLE, KI_DOUBLE, WE_DOUBLE, WI_DOUBLE
from .errors import ParameterError

STREAM_WIENER = 0
STREAM_JUMP_TIMES = 1
STREAM_MARKS = 2

_STREAM_SHIFT = 60  # realization indices stay below 2**60

SLAB_BLOCKS = 1 << 14  # Philox blocks per pass; bounds the temporaries


@dataclass(frozen=True)
class SeedConfig:
    """Seeds for the three per-realization stream families."""

    wiener: int = 7
    jump_times: int = 20
    marks: int = 101

    def __post_init__(self):
        for field in ("wiener", "jump_times", "marks"):
            value = getattr(self, field)
            if not 0 <= value < 2 ** 64:
                raise ParameterError(
                    f"seed '{field}' must be in [0, 2**64), got {value}"
                )


def _key_word(realization: int, stream_id: int) -> int:
    """Second Philox key word: realization index and stream id."""
    if realization < 0 or realization >= 1 << _STREAM_SHIFT:
        raise ParameterError(f"realization index out of range: {realization}")
    return int(realization) + ((stream_id + 1) << _STREAM_SHIFT)


def stream(seed: int, realization: int, stream_id: int) -> np.random.Generator:
    """Generator for one (seed, realization, stream) triple."""
    key = np.array([seed, _key_word(realization, stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _families(seeds: SeedConfig):
    """(seed, stream id) of the wiener, jump_times and marks families."""
    return (
        (seeds.wiener, STREAM_WIENER),
        (seeds.jump_times, STREAM_JUMP_TIMES),
        (seeds.marks, STREAM_MARKS),
    )


def realization_streams(seeds: SeedConfig, realization: int):
    """(wiener, jump_times, marks) generators for one realization."""
    return tuple(stream(seed, realization, sid) for seed, sid in _families(seeds))


# ---------------------------------------------------------------------------
# Philox4x64-10 on arrays

_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: int, x):
    """(low, high) words of the 128-bit product of the constant ``m`` and
    the uint64 array ``x``, from 32-bit halves (array products wrap)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _32
    ll = m_lo * x_lo
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = (ll >> _32) + (lh & _LOW32) + (hl & _LOW32)
    high = m_hi * x_hi + (lh >> _32) + (hl >> _32) + (mid >> _32)
    low = (mid << _32) | (ll & _LOW32)
    return low, high


def philox_words(seed: int, stream_id: int, realizations, blocks) -> np.ndarray:
    """The four words of block ``blocks[k]`` of realization
    ``realizations[k]``'s stream, as a (len, 4) uint64 array: the words
    ``4 * blocks[k]`` to ``4 * blocks[k] + 3`` that ``stream(seed,
    realizations[k], stream_id)`` draws."""
    realizations = np.asarray(realizations, dtype=np.int64)
    if realizations.size and (
        realizations.min() < 0 or realizations.max() >= 1 << _STREAM_SHIFT
    ):
        bad = realizations[(realizations < 0) | (realizations >= 1 << _STREAM_SHIFT)][0]
        raise ParameterError(f"realization index out of range: {bad}")
    k1 = realizations.astype(np.uint64) + np.uint64((stream_id + 1) << _STREAM_SHIFT)
    c0 = np.asarray(blocks, dtype=np.uint64) + np.uint64(1)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0 = int(seed)
    for round_ in range(10):
        if round_:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1)


# ---------------------------------------------------------------------------
# words to draws, as numpy's Generator makes them (one word each on the
# fast path); each returns (values, accepted)


def standard_normal(words):
    """Ziggurat fast path of ``Generator.standard_normal``."""
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    r = words >> np.uint64(8)
    rabs = (r >> np.uint64(1)) & np.uint64(0x000FFFFFFFFFFFFF)
    x = rabs.astype(np.float64) * WI_DOUBLE[idx]
    return np.where((r & np.uint64(1)).astype(bool), -x, x), rabs < KI_DOUBLE[idx]


def standard_exponential(words):
    """Ziggurat fast path of ``Generator.standard_exponential``."""
    r = words >> np.uint64(3)
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    r = r >> np.uint64(8)
    return r.astype(np.float64) * WE_DOUBLE[idx], r < KE_DOUBLE[idx]


def random(words):
    """``Generator.random``: the top 53 bits over 2**53; never rejects."""
    x = (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return x, np.ones(x.shape, dtype=bool)


_FAST_PATHS = {
    "standard_normal": standard_normal,
    "standard_exponential": standard_exponential,
    "random": random,
}


def _ragged(counts):
    """Row and place in the row of every entry of rows of ``counts``
    entries laid out row after row."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


class KeyedStream:
    """One stream family (seed and stream id), realization by realization.

    ``at(i, word)`` is a generator drawing exactly what
    ``stream(seed, i, stream_id)`` draws from its word ``word`` on;
    ``fast_draws`` and ``draws`` draw for many realizations at once.
    """

    def __init__(self, seed: int, stream_id: int):
        self.seed = seed
        self.stream_id = stream_id
        # The state setter copies these arrays, so one dict serves every reset.
        self._state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, _key_word(0, stream_id)], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.generator = np.random.Generator(np.random.Philox(key=self._state["state"]["key"]))

    def at(self, realization: int, word: int = 0) -> np.random.Generator:
        """The generator, set to word ``word`` of realization
        ``realization``'s stream."""
        self._state["state"]["key"][1] = _key_word(realization, self.stream_id)
        self._state["state"]["counter"][0] = word // 4
        bits = self.generator.bit_generator
        bits.state = self._state
        if word % 4:
            bits.random_raw(word % 4)
        return self.generator

    @property
    def word(self) -> int:
        """Word offset of the generator's next draw."""
        state = self.generator.bit_generator.state
        return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]

    def fast_draws(self, kind: str, realizations, counts):
        """``counts[k]`` fast-path draws of ``kind`` (a ``Generator``
        method: "standard_normal", "standard_exponential" or "random")
        from word 0 of stream ``realizations[k]``, row after row in one
        flat array, and each row's first rejected draw (``counts[k]`` when
        none).  A row's values from its first rejection on are not
        numpy's.  Philox runs over at most SLAB_BLOCKS blocks at a time.
        """
        fast = _FAST_PATHS[kind]
        realizations = np.asarray(realizations, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.intp)
        blocks = (counts + 3) // 4
        block_end = np.cumsum(blocks)
        value_end = np.cumsum(counts)
        values = np.empty(int(value_end[-1]) if len(counts) else 0)
        first = counts.copy()
        lo = 0
        while lo < len(counts):
            base = block_end[lo] - blocks[lo]
            hi = max(lo + 1, int(np.searchsorted(block_end, base + SLAB_BLOCKS, side="right")))
            nb, nc = blocks[lo:hi], counts[lo:hi]
            row, block = _ragged(nb)
            words = philox_words(self.seed, self.stream_id, realizations[lo:hi][row], block)
            row, pos = _ragged(nc)
            x, ok = fast(words.ravel()[4 * (np.cumsum(nb) - nb)[row] + pos])
            values[value_end[lo] - nc[0]:value_end[hi - 1]] = x
            np.minimum.at(first, lo + row[~ok], pos[~ok])
            lo = hi
        return values, first

    def draws(self, kind: str, realizations, counts, ends=None):
        """``fast_draws`` with every rejecting row finished by numpy's
        generator from its first rejected draw, so every value is
        numpy's.  With ``ends``, an integer array like ``counts``, each
        row's word offset after its draws is stored there."""
        values, first = self.fast_draws(kind, realizations, counts)
        counts = np.asarray(counts, dtype=np.int64)
        if ends is not None:
            ends[:] = counts
        starts = np.cumsum(counts) - counts
        for k in np.nonzero(first < counts)[0].tolist():
            lo, hi = int(starts[k] + first[k]), int(starts[k] + counts[k])
            generator = self.at(int(realizations[k]), int(first[k]))
            values[lo:hi] = getattr(generator, kind)(hi - lo)
            if ends is not None:
                ends[k] = self.word
        return values


def keyed_streams(seeds: SeedConfig):
    """(wiener, jump_times, marks) keyed streams."""
    return tuple(KeyedStream(seed, sid) for seed, sid in _families(seeds))
