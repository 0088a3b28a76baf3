"""An independent reference for ``rng.KeyedStream.draws``.

It shares no code with ``rng`` but numpy's ziggurat tables.  Words come
from a fresh numpy ``Philox`` per (realization, block), as the declared
layout states it: block ``b`` of realization ``r`` of the family (seed,
stream id) is the first four words that ``Philox(key=[seed, stream_id +
1], counter=[r, b, 0, 0]).random_raw(4)`` returns.  A scalar ziggurat
turns them into draws, one word at a time: numpy's algorithm
(numpy/random/src/distributions/distributions.c) with ``math.exp`` and
``math.log1p`` for libm's.  ``test_keyed_oracle`` anchors it: fed one
Philox's sequential words, it reproduces ``Generator.standard_normal``,
``standard_exponential`` and ``random`` bit for bit.
"""

import math

import numpy as np

from jumpmc._ziggurat import FE_DOUBLE, FI_DOUBLE, KE_DOUBLE, KI_DOUBLE, WE_DOUBLE, WI_DOUBLE
from jumpmc.rng import STREAM_JUMP_TIMES, STREAM_MARKS, STREAM_WIENER

KI, WI, FI = KI_DOUBLE.tolist(), WI_DOUBLE.tolist(), FI_DOUBLE.tolist()
KE, WE, FE = KE_DOUBLE.tolist(), WE_DOUBLE.tolist(), FE_DOUBLE.tolist()
NOR_R = 3.6541528853610087963519472518  # ziggurat_constants.h
NOR_INV_R = 0.27366123732975827203338247596
EXP_R = 7.6971174701310497140446280481


def block_words(seed, stream_id, realization, block):
    """The four words of block ``block`` of ``realization``'s stream."""
    key = np.array([seed, stream_id + 1], dtype=np.uint64)
    counter = np.array([realization, block, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(4).tolist()


class RowWords:
    """The words of one (seed, stream id, realization) stream in order,
    read block by block."""

    def __init__(self, seed, stream_id, realization):
        self.key = (seed, stream_id, realization)
        self.block, self.buffer = 0, []

    def __call__(self):
        if not self.buffer:
            self.buffer = block_words(*self.key, self.block)[::-1]
            self.block += 1
        return self.buffer.pop()


class SequentialWords:
    """The words of one numpy bit generator, in order, as Generator reads
    them."""

    def __init__(self, bits, chunk=4096):
        self.bits, self.chunk, self.buffer = bits, chunk, []

    def __call__(self):
        if not self.buffer:
            self.buffer = self.bits.random_raw(self.chunk).tolist()[::-1]
        return self.buffer.pop()


def next_double(word):
    return (word() >> 11) * (1.0 / 9007199254740992.0)


def standard_normal(word, tails=None):
    """One ``Generator.standard_normal`` from the words ``word()`` gives;
    counts a tail draw in ``tails`` (a list) if given."""
    while True:
        r = word()
        idx = r & 0xFF
        r >>= 8
        sign = r & 0x1
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * WI[idx]
        if sign:
            x = -x
        if rabs < KI[idx]:
            return x
        if idx == 0:
            if tails is not None:
                tails.append(1)
            while True:
                xx = -NOR_INV_R * math.log1p(-next_double(word))
                yy = -math.log1p(-next_double(word))
                if yy + yy > xx * xx:
                    return -(NOR_R + xx) if (rabs >> 8) & 0x1 else NOR_R + xx
        if (FI[idx - 1] - FI[idx]) * next_double(word) + FI[idx] < math.exp(-0.5 * x * x):
            return x


def standard_exponential(word, tails=None):
    """One ``Generator.standard_exponential`` from the words ``word()``
    gives; counts a tail draw in ``tails`` (a list) if given."""
    while True:
        ri = word() >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE[idx]
        if ri < KE[idx]:
            return x
        if idx == 0:
            if tails is not None:
                tails.append(1)
            return EXP_R - math.log1p(-next_double(word))
        if (FE[idx - 1] - FE[idx]) * next_double(word) + FE[idx] < math.exp(-x):
            return x


def random(word, tails=None):
    """One ``Generator.random`` from the words ``word()`` gives."""
    return next_double(word)


KINDS = {"standard_normal": standard_normal, "standard_exponential": standard_exponential,
         "random": random}


class RowStream:
    """A generator of one realization's keyed stream: the draws that
    ``KeyedStream(seed, stream_id).draws`` makes for it, in order."""

    def __init__(self, seed, stream_id, realization):
        self.word = RowWords(seed, stream_id, realization)

    def _draw(self, kind, size):
        shape = () if size is None else size
        values = np.array([KINDS[kind](self.word) for _ in range(int(np.prod(shape)))])
        return float(values[0]) if size is None else values.reshape(shape)

    def standard_normal(self, size=None):
        return self._draw("standard_normal", size)

    def standard_exponential(self, size=None):
        return self._draw("standard_exponential", size)

    def random(self, size=None):
        return self._draw("random", size)

    def exponential(self, scale=1.0, size=None):
        return scale * self._draw("standard_exponential", size)


def first_words(seed, stream_id, start, count, words):
    """The first ``words`` words (a multiple of 4) of the ``count``
    realizations from ``start`` on, as a (count, words) array: numpy's
    Philox steps the counter's first word, the realization, so one
    ``random_raw`` from counter ``(start, b, 0, 0)`` makes block ``b`` of
    every realization in turn."""
    key = np.array([seed, stream_id + 1], dtype=np.uint64)
    blocks = [
        np.random.Philox(key=key, counter=np.array([start, b, 0, 0], dtype=np.uint64))
        .random_raw(4 * count).reshape(count, 4)
        for b in range(words // 4)
    ]
    return np.concatenate(blocks, axis=1)


def draws(seed, stream_id, kind, realizations, counts):
    """What ``KeyedStream(seed, stream_id).draws(kind, realizations,
    counts)`` returns, one row at a time."""
    return np.array([
        KINDS[kind](word)
        for r, n in zip(np.asarray(realizations).tolist(), np.asarray(counts).tolist())
        for word in [RowWords(seed, stream_id, r)] for _ in range(n)
    ])


def row_streams(seeds, realization):
    """The (wiener, jump_times, marks) row streams of one realization."""
    return (
        RowStream(seeds.wiener, STREAM_WIENER, realization),
        RowStream(seeds.jump_times, STREAM_JUMP_TIMES, realization),
        RowStream(seeds.marks, STREAM_MARKS, realization),
    )


def _uniform(word):
    return (word >> 11) * (1.0 / 9007199254740992.0)


def _tail_words(kind, words, q):
    """How many words after the box-0 word ``words[q]`` numpy's tail draw
    reads (IndexError if ``words`` end first)."""
    if kind == "standard_exponential":
        words[q + 1]
        return 1
    j = q + 1
    while True:
        xx = -NOR_INV_R * math.log1p(-_uniform(words[j]))
        yy = -math.log1p(-_uniform(words[j + 1]))
        j += 2
        if yy + yy > xx * xx:
            return j - q - 1


def walk(kind, words, count):
    """numpy's ziggurat reading ``count`` draws of ``kind`` from
    ``words`` (Python ints), attempt by attempt: the attempts that leave
    the fast path, as ``(what, value, word)`` with what "tail", "accept"
    or "reject" (by the wedge test), and the words read (None if
    ``words`` end first)."""
    q, met = 0, []
    try:
        for value in range(count):
            while True:
                w = words[q]
                if kind == "random":
                    q += 1
                    break
                if kind == "standard_normal":
                    idx, r = w & 0xFF, (w >> 9) & 0x000FFFFFFFFFFFFF
                    x, fast, f = r * WI[idx], r < KI[idx], FI
                    power = -0.5 * x * x
                else:
                    idx, r = (w >> 3) & 0xFF, w >> 11
                    x, fast, f = r * WE[idx], r < KE[idx], FE
                    power = -x
                if fast:
                    q += 1
                    break
                if idx == 0:
                    met.append(("tail", value, q))
                    q += 1 + _tail_words(kind, words, q)
                    break
                ok = (f[idx - 1] - f[idx]) * _uniform(words[q + 1]) + f[idx] < math.exp(power)
                met.append(("accept" if ok else "reject", value, q))
                q += 2
                if ok:
                    break
    except IndexError:
        return met, None
    return met, q


def fast_path(kind, words):
    """Whether numpy's ziggurat fast path of ``kind`` takes each word (a
    uint64 array), and the word's box: the table index."""
    if kind == "standard_normal":
        box = words & np.uint64(0xFF)
        r = (words >> np.uint64(9)) & np.uint64(0x000FFFFFFFFFFFFF)
        return r < KI_DOUBLE[box.astype(np.intp)], box
    box = (words >> np.uint64(3)) & np.uint64(0xFF)
    return (words >> np.uint64(11)) < KE_DOUBLE[box.astype(np.intp)], box


def crafted_rows(seed, stream_id, kind, count, scan=40000):
    """Realizations below ``scan`` whose first ``count`` draws of ``kind``
    meet each case: "tail", "two_tails", "tail_last" (a tail draw among
    the last three values), "accept" and "reject" (wedge draws),
    "adjacent" (two rejected words in a row), and "u_last" and
    "tail_words_last": the first rejected word, a wedge or a tail draw,
    is the last word of a block with no rejection before it, so that
    ``count`` draws of ``first`` words (``first`` the block's end) run out
    there.  Returns {case: (realization, draws)}."""
    words = 4 * ((2 * count + 19) // 4)
    block = first_words(seed, stream_id, 0, scan, words)
    fast, box = fast_path(kind, block)
    rejected = ~fast
    tails = (rejected & (box == 0)).sum(axis=1)
    adjacent = (rejected[:, 1:] & rejected[:, :-1]).any(axis=1)
    candidates = np.flatnonzero((tails > 0) | adjacent | rejected[:, :count].any(axis=1))
    candidates = np.concatenate([candidates[tails[candidates] > 1], candidates[:4000]])
    found = {}
    for r in candidates.tolist():
        row = block[r].tolist()
        met, used = walk(kind, row, count)
        if used is None:
            continue
        cases = {what for what, _, _ in met}
        if sum(what == "tail" for what, _, _ in met) >= 2:
            cases.add("two_tails")
        if any(what == "tail" and v >= count - 3 for what, v, _ in met):
            cases.add("tail_last")
        if adjacent[r]:
            cases.add("adjacent")
        for case in cases:
            found.setdefault(case, (r, count))
        if met and met[0][2] % 4 == 3 and met[0][1] == met[0][2]:
            case = "tail_words_last" if met[0][0] == "tail" else "u_last"
            found.setdefault(case, (r, met[0][2] + 1))
    return found
