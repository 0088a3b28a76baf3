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
with numpy's own tables; the normal's width table is doubled with its
negation, so numpy's sign bit is part of the table index.  A draw they
reject is mostly a wedge draw, resolved in arrays from one more word and
libm's ``exp`` for the close calls (``_wedges``), which shifts the row's
later draws by one or two words; each row draws a few slack words for
that, up to the end of its last Philox block, so a row of ziggurat draws
is whole blocks and a pass over many rows takes Philox's words as they
come, with no gather.  A tail draw (numpy's libm ``log1p`` calls) and a
row that runs past its drawn words go on with numpy's generator from the
rejected draw's word.  So a row's word offset depends on its
rejections, and it stays inside this module: ``KeyedStream.draws`` is
the one way to draw for a chunk, and a caller counts its place in a
stream in draws, always drawn from draw 0.  ``KeyedStream.at(i)`` is
the one-row generator of realization ``i`` (for a mark sampler that
needs one); only ``draws`` sets it to a word offset.

A pass over arrays has a fixed cost of about half a millisecond, while
numpy's generator draws a short row in a few microseconds.  So a
``draws`` call for at most ``FEW_ROWS`` rows (a bridge top-up of one
or two rows, say) draws each row with its own generator from draw 0,
the reference every array value matches; only calls over more rows
take the array path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ziggurat import FE_DOUBLE, FI_DOUBLE, KE_DOUBLE, KI_DOUBLE, WE_DOUBLE, WI_DOUBLE
from .errors import ParameterError, check_integer

STREAM_WIENER = 0
STREAM_JUMP_TIMES = 1
STREAM_MARKS = 2

_STREAM_SHIFT = 60  # realization indices stay below 2**60

SLAB_BLOCKS = 1 << 14  # Philox blocks per pass; bounds the temporaries
FEW_ROWS = 128  # draws for at most this many rows come from numpy's generator


@dataclass(frozen=True)
class SeedConfig:
    """Seeds for the three per-realization stream families."""

    wiener: int = 7
    jump_times: int = 20
    marks: int = 101

    def __post_init__(self):
        for field in ("wiener", "jump_times", "marks"):
            value = check_integer(f"seed '{field}'", getattr(self, field), 0)
            if value >= 2 ** 64:
                raise ParameterError(f"seed '{field}' must be < 2**64, got {value}")
            object.__setattr__(self, field, value)


def _key_word(realization: int, stream_id: int) -> int:
    """Second Philox key word: realization index and stream id."""
    if realization < 0 or realization >= 1 << _STREAM_SHIFT:
        raise ParameterError(f"realization index out of range: {realization}")
    return int(realization) + ((stream_id + 1) << _STREAM_SHIFT)


def _check_realizations(realizations: np.ndarray) -> np.ndarray:
    """``realizations`` (int64), after raising for the first one out of range."""
    if realizations.size and (
        realizations.min() < 0 or realizations.max() >= 1 << _STREAM_SHIFT
    ):
        bad = realizations[(realizations < 0) | (realizations >= 1 << _STREAM_SHIFT)][0]
        raise ParameterError(f"realization index out of range: {bad}")
    return realizations


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


def _mulhilo(m: int, x, lo, hi, a, b):
    """Write the low and high words of the 128-bit products of the
    constant ``m`` and the uint64 array ``x`` into ``lo`` and ``hi``, with
    ``a`` and ``b`` as scratch; none of the four may be ``x``.  The high
    word is summed from the four 32-bit products: with t = lh + (ll >>
    32) and u = hl + (t & M32), it is hh + (t >> 32) + (u >> 32).  Array
    products wrap, so the low word is the uint64 product itself."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LOW32, out=a)  # x_lo
    np.right_shift(x, _32, out=b)  # x_hi
    np.multiply(a, m_hi, out=hi)  # hl
    np.multiply(a, m_lo, out=a)  # ll
    np.right_shift(a, _32, out=a)
    np.multiply(b, m_lo, out=lo)  # lh
    np.add(lo, a, out=a)  # t
    np.multiply(b, m_hi, out=b)  # hh
    np.right_shift(a, _32, out=lo)
    np.add(b, lo, out=b)  # hh + (t >> 32)
    np.bitwise_and(a, _LOW32, out=a)
    np.add(hi, a, out=a)  # u
    np.right_shift(a, _32, out=a)
    np.add(b, a, out=hi)
    np.multiply(x, np.uint64(m), out=lo)


def philox_words(seed: int, stream_id: int, realizations, blocks) -> np.ndarray:
    """The four words of block ``blocks[k]`` of realization
    ``realizations[k]``'s stream, as a (len, 4) uint64 array: the words
    ``4 * blocks[k]`` to ``4 * blocks[k] + 3`` that ``stream(seed,
    realizations[k], stream_id)`` draws.  The ten rounds run in place on
    preallocated buffers."""
    realizations = _check_realizations(np.asarray(realizations, dtype=np.int64))
    k1 = realizations.astype(np.uint64) + np.uint64((stream_id + 1) << _STREAM_SHIFT)
    c0 = np.asarray(blocks, dtype=np.uint64) + np.uint64(1)
    c1, c2, c3 = (np.zeros_like(c0) for _ in range(3))
    lo0, hi0, lo1, hi1, a, b = (np.empty_like(c0) for _ in range(6))
    k0 = int(seed)
    for round_ in range(10):
        if round_:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 += np.uint64(_PHILOX_W[1])
        _mulhilo(_PHILOX_M[0], c0, lo0, hi0, a, b)
        _mulhilo(_PHILOX_M[1], c2, lo1, hi1, a, b)
        np.bitwise_xor(hi1, c1, out=hi1)
        np.bitwise_xor(hi1, np.uint64(k0), out=hi1)
        np.bitwise_xor(hi0, c3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        # the new state (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0); the old
        # state's arrays are the next round's buffers
        c0, c1, c2, c3, lo0, hi0, lo1, hi1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    del lo0, hi0, lo1, hi1, a, b  # free the buffers before the stacked copy
    return np.stack([c0, c1, c2, c3], axis=-1)


# ---------------------------------------------------------------------------
# words to draws, as numpy's Generator makes them (one word each on the
# fast path); each returns (values, accepted), its values written to
# ``out`` if given.  A table index is read from the words seen as int64,
# which index without a cast.

# numpy's normal fast path reads the sign from bit 8 of a word, so the
# low 9 bits index a width table that carries the sign: negating a
# product is exact, and 0 times a negative width is numpy's -0.0
_WI_SIGNED = np.concatenate([WI_DOUBLE, -WI_DOUBLE])
_KI_TWICE = np.concatenate([KI_DOUBLE, KI_DOUBLE])


def standard_normal(words, out=None):
    """Ziggurat fast path of ``Generator.standard_normal``."""
    idx = words.view(np.int64) & 0x1FF
    rabs = (words >> np.uint64(9)) & np.uint64(0x000FFFFFFFFFFFFF)
    return np.multiply(rabs, _WI_SIGNED[idx], out=out), rabs < _KI_TWICE[idx]


def standard_exponential(words, out=None):
    """Ziggurat fast path of ``Generator.standard_exponential``."""
    idx = (words.view(np.int64) >> 3) & 0xFF
    r = words >> np.uint64(11)
    return np.multiply(r, WE_DOUBLE[idx], out=out), r < KE_DOUBLE[idx]


def random(words, out=None):
    """``Generator.random``: the top 53 bits over 2**53; never rejects."""
    x = np.multiply(words >> np.uint64(11), 1.0 / 9007199254740992.0, out=out)
    return x, np.ones(x.shape, dtype=bool)


# kind: (fast path, wedge) with the wedge's (index shift, table, exponent
# of its bound) as numpy's slow path reads a rejected word; "random"
# never rejects
_KINDS = {
    "standard_normal": (standard_normal, (0, FI_DOUBLE, lambda x: -0.5 * x * x)),
    "standard_exponential": (standard_exponential, (3, FE_DOUBLE, np.negative)),
    "random": (random, None),
}


def _slack(counts):
    """Words drawn per row for ``counts`` ziggurat draws: at least
    ``2 + counts // 16`` words past the last one the fast path needs, up
    to the end of the row's last Philox block (no row draws for none)."""
    drawn = 4 * ((counts + 2 + counts // 16 + 3) // 4)
    return np.where(counts > 0, drawn, 0)


def _segment_base(lead, values):
    """Each entry's value of ``values`` (non-decreasing) at the last
    ``lead`` entry up to it."""
    return np.maximum.accumulate(np.where(lead, values, values[:1]))


def _wedges(er, eq, word, after, x, counts, drawn, wedge):
    """Read rows of ziggurat draws from their drawn words as numpy does,
    resolving every rejected draw that is not a tail draw.

    Row ``k`` has ``drawn[k]`` words for ``counts[k]`` draws.  Its words
    that the fast path rejects are the events ``(er, eq)`` (row, place;
    in row and place order), with the word itself, the word after it
    (meaningless past the row's drawn words) and the fast path's ``x``.
    ``wedge`` is the kind's ``(shift, table, exponent)``: a rejected draw
    at ``idx = (word >> shift) & 0xFF`` other than 0 reads the next word
    as a uniform ``u`` (``Generator.random``) and keeps ``x`` if the wedge
    test ``(table[idx-1] - table[idx]) * u + table[idx] < exp(exponent(x))``
    holds, with libm's ``exp`` as numpy's C code calls it; else it draws
    again from the word after ``u``.  So each rejection shifts the row's
    later draws by one or two words.  Returns ``((row, value), delta,
    total, hand)``: the shift ``delta`` from value ``value`` of row
    ``row`` on, each row's total shift, and the rows handed to numpy's
    generator as ``(rows, value, word)``: at a tail draw (``idx == 0``),
    at a draw whose ``u`` was not drawn, or at the first word not drawn.
    """
    shift, table, exponent = wedge
    # a run of adjacent rejected words alternates draw, u, draw, ...
    k = np.arange(len(er))
    run = np.ones(len(er), dtype=bool)
    run[1:] = (eq[1:] != eq[:-1] + 1) | (er[1:] != er[:-1])
    draw = (k - _segment_base(run, k)) % 2 == 0
    er, eq, word, after, x = er[draw], eq[draw], word[draw], after[draw], x[draw]
    idx = ((word >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.intp)
    has_u = eq + 1 < drawn[er]
    u, _ = random(after)
    test = (table[idx - 1] - table[idx]) * u + table[idx]
    # np.exp is within a few ulps of libm's exp; libm decides the close calls
    power = exponent(x)
    bound = np.exp(power)
    close = np.flatnonzero(np.abs(test - bound) <= 1e-9 * bound)
    bound[close] = [math.exp(v) for v in power[close].tolist()]
    accept = test < bound
    step = np.where(accept, 1, 2)
    lead = np.ones(len(er), dtype=bool)
    lead[1:] = er[1:] != er[:-1]
    before = np.cumsum(step) - step
    value = eq - (before - _segment_base(lead, before))  # the draw's value
    live = value < counts[er]  # a prefix of each row's draws
    stop = live & ((idx == 0) | ~has_u)
    hand_rows, first = np.unique(er[stop], return_index=True)
    hand_value, hand_word = value[stop][first], eq[stop][first]
    cut = np.full(len(counts), np.iinfo(np.int64).max)
    cut[hand_rows] = hand_word
    live &= eq < cut[er]
    er, value, accept, step = er[live], value[live], accept[live], step[live]
    total = np.bincount(er, weights=step, minlength=len(counts)).astype(np.int64)
    over = np.flatnonzero((counts + total > drawn) & (cut > drawn))  # not handed yet
    hand = (
        np.concatenate([hand_rows, over]),
        np.concatenate([hand_value, drawn[over] - total[over]]),
        np.concatenate([hand_word, drawn[over]]),
    )
    return (er, value + accept), step, total, hand


class KeyedStream:
    """One stream family (seed and stream id), realization by realization.

    ``at(i, word)`` is a generator drawing exactly what
    ``stream(seed, i, stream_id)`` draws from its word ``word`` on;
    ``draws`` draws for many realizations at once.
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

    def _slabs(self, realizations, counts):
        """The first ``counts[k]`` Philox words of stream
        ``realizations[k]``, over at most SLAB_BLOCKS blocks at a time:
        yields ``(lo, hi, wv)``, the words of rows ``lo`` to ``hi - 1`` row
        after row.  Rows of whole blocks (every ziggurat row: see
        ``_slack``) are their blocks' words as Philox makes them; only a
        pass with a row that ends inside a block gathers."""
        blocks = (counts + 3) // 4
        block_end = np.cumsum(blocks)
        lo = 0
        while lo < len(counts):
            base = block_end[lo] - blocks[lo]
            hi = max(lo + 1, int(np.searchsorted(block_end, base + SLAB_BLOCKS, side="right")))
            nb = blocks[lo:hi]
            first = block_end[lo:hi] - nb - base  # each row's first block in the pass
            block = np.arange(block_end[hi - 1] - base) - np.repeat(first, nb)
            words = philox_words(
                self.seed, self.stream_id, np.repeat(realizations[lo:hi], nb), block
            ).ravel()
            n = counts[lo:hi]
            if (n % 4).any():
                words = words[np.arange(n.sum()) + np.repeat(4 * first - (np.cumsum(n) - n), n)]
            yield lo, hi, words
            lo = hi

    def draws(self, kind: str, realizations, counts):
        """The first ``counts[k]`` draws of ``kind`` (a ``Generator``
        method: "standard_normal", "standard_exponential" or "random") of
        stream ``realizations[k]``, row after row, every value numpy's.

        A call for at most ``FEW_ROWS`` rows draws each row with numpy's
        generator (``at``), which costs less than one pass over arrays.
        Over more rows, ziggurat rejections are resolved in arrays
        (``_wedges``) from a few slack words per row; a row with a tail
        draw or past its slack goes on with numpy's generator at the word
        of the first draw the arrays cannot make.  Uniforms never reject
        and draw no slack.  Both routes check the input alike.
        """
        if kind not in _KINDS:
            raise ParameterError(f"unknown draw kind {kind!r}, expected one of {sorted(_KINDS)}")
        fast, wedge = _KINDS[kind]
        realizations = np.asarray(realizations, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if realizations.ndim != 1 or realizations.shape != counts.shape:
            raise ParameterError(
                f"realizations and counts must be 1-d and of one length, "
                f"got shapes {realizations.shape} and {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            k = int(np.argmin(counts))
            raise ParameterError(
                f"draw count must be >= 0, got {counts[k]} (realization {realizations[k]})"
            )
        _check_realizations(realizations)
        if len(counts) <= FEW_ROWS:
            return np.concatenate([np.empty(0)] + [
                getattr(self.at(r), kind)(n)
                for r, n in zip(realizations.tolist(), counts.tolist())
            ])
        drawn = counts if wedge is None else _slack(counts)
        woff = np.cumsum(drawn) - drawn
        x = np.empty(int(drawn.sum()))
        none = np.empty(0, dtype=np.uint64)
        events = [(np.empty(0, dtype=np.int64), none, none)]
        for lo, hi, wv in self._slabs(realizations, drawn):
            at = woff[lo]
            _, ok = fast(wv, out=x[at:at + len(wv)])
            ev = np.flatnonzero(~ok)
            events.append((at + ev, wv[ev], wv[np.minimum(ev + 1, len(wv) - 1)]))
        if wedge is None:
            return x
        ev, word, after = (np.concatenate(parts) for parts in zip(*events))
        er = np.searchsorted(woff, ev, side="right") - 1
        (er, at), delta, total, hand = _wedges(
            er, ev - woff[er], word, after, x[ev], counts, drawn, wedge
        )
        # value v of row k is x[woff[k] + v + shift], the shift stepping up
        # at each resolved rejection and back to 0 at the row's end or
        # where the row is handed over: one cumsum over steps
        voff = np.cumsum(counts) - counts
        end = counts.copy()
        end[hand[0]] = hand[1]
        shifted = np.flatnonzero(total)
        place = np.ones(int(counts.sum()) + 1, dtype=np.int64)
        place[0] = 0
        np.add.at(
            place,
            np.concatenate([voff[1:], voff[er] + at, voff[shifted] + end[shifted]]),
            np.concatenate([np.diff(woff - voff), delta, -total[shifted]]),
        )
        values = np.take(x, np.cumsum(place[:-1], out=place[:-1]))
        for k, v, w in zip(*(np.asarray(a).tolist() for a in hand)):
            generator = self.at(int(realizations[k]), w)
            values[voff[k] + v:voff[k] + counts[k]] = getattr(generator, kind)(int(counts[k] - v))
        return values


def keyed_streams(seeds: SeedConfig):
    """(wiener, jump_times, marks) keyed streams."""
    return tuple(KeyedStream(seed, sid) for seed, sid in _families(seeds))
