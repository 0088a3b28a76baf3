"""Counter-based random streams, one triple per realization.

Every realization ``i`` owns three independent streams (Wiener
increments, jump times, marks), each a sequence of Philox4x64-10 blocks
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
A stream family is one (seed, stream id) pair, and its Philox key is
``(seed, stream_id + 1)``.  Block ``b`` of realization ``i`` is the first
four words that ``np.random.Philox(key=[seed, stream_id + 1],
counter=[i, b, 0, 0]).random_raw(4)`` returns (numpy steps the counter
before each block).  A row's words depend only on (seed, family,
realization), so path ``i`` draws the same numbers however realizations
are batched or spread over workers: output is byte-identical for any
worker count and chunk size.

numpy's Philox steps the first counter word, the realization, so one
``random_raw`` call from counter ``(i, b, 0, 0)`` makes block ``b`` of
realizations ``i, i + 1, ...`` in C.  ``KeyedStream.draws`` draws a
call's rows in realization order, SLAB_BLOCKS blocks at a time, in
slabs of nearby realizations (a slab ends at a gap of more than SLAB_GAP
realizations and makes at most SLAB_SPAN blocks): one state set and one
``random_raw`` per block index over the slab's span, and one ``np.take``
of each row's blocks.  A row alone in its slab is drawn block by block.

``standard_normal``, ``standard_exponential`` and ``random`` turn words
into numpy's draws.  The first two are the fast path of numpy's ziggurat
(Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) with numpy's own tables;
the normal's width table is doubled with its negation, so numpy's sign
bit is part of the table index.  A draw they reject is resolved in
arrays (``_wedges``): a wedge draw from one more word and libm's ``exp``
for the close calls, a tail draw by numpy's tail formula with libm's
``log1p`` (``math.log1p``) on the words after it, read from its row's
drawn words.  Each shifts the row's later draws, so each row draws a few
slack words, up to the end of its last block; a row whose words still
run out (at a wedge draw without its ``u``, a tail draw without its
words, or before its last value) is drawn again, whole, with more
blocks.  So a row's word offset depends on its rejections, and it stays
inside this module: a caller counts its place in a stream in draws,
always drawn from draw 0.  The caller's row order goes into the one
final gather.

``stream`` and ``realization_streams`` are per-realization numpy
generators, keyed ``(seed, i + ((stream_id + 1) << 60))``: that key word
is never a family word, which stays below 2**60.  The engines never use
them: every draw of their set-up, the mark uniforms included, is a
``KeyedStream.draws`` call.  They serve the one-row functions
(``jumps.sample_jumps``, ``euler.sample_wiener_increments``) and the
tests that read those.
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

_STREAM_SHIFT = 60
REALIZATIONS = 1 << _STREAM_SHIFT  # realization indices stay below 2**60

# Philox blocks a pass of the fast path reads; bounds the temporaries
SLAB_BLOCKS = 1 << 12
# realizations not drawn between two rows of one slab: each block index of
# a slab costs a state set and a random_raw call, about as much as
# making that block for some 256 realizations more
SLAB_GAP = 256
# Philox blocks one slab makes at most (1 MB), realizations times blocks
SLAB_SPAN = 1 << 15
# draws a call makes at most where its caller splits its rows
# (``call_slabs``), so that the call's transients (words, slack words,
# fast-path values, index: a few times its output) are bounded by the
# slab.  On algorithm_d's 16,384-row Monte Carlo chunk at N=40 this cut
# the set-up's traced peak from 25.2 to 17.9 MiB (2**16: 16.0 MiB)
CALL_DRAWS = 1 << 17

# numpy's ziggurat tail constants (ziggurat_constants.h)
_NOR_R = 3.654152885361009
_NOR_INV_R = 0.2736612373297583
_EXP_R = 7.69711747013105


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


def _integers(name, values) -> np.ndarray:
    """``values`` as an integer array, of Python ints (dtype object) where
    numpy holds them in no integer dtype; ParameterError for the first
    that is not an integer (a float or a bool, even an integral one)."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    items = np.asarray(values, dtype=object)
    return np.array([check_integer(name, v) for v in items.flat], dtype=object).reshape(items.shape)


def _realization_array(realizations) -> np.ndarray:
    """``realizations`` as int64; ParameterError for the first one that is
    not an integer or is out of [0, 2**60), with its true value."""
    rows = _integers("realization index", realizations)
    bad = rows[(rows < 0) | (rows >= REALIZATIONS)]
    if bad.size:
        raise ParameterError(f"realization index out of range: {bad[0]}")
    return rows.astype(np.int64, copy=False)


def stream(seed: int, realization: int, stream_id: int) -> np.random.Generator:
    """Numpy's generator for one (seed, realization, stream) triple, keyed
    ``(seed, realization + ((stream_id + 1) << 60))``."""
    word = int(_realization_array([realization])[0]) + ((stream_id + 1) << _STREAM_SHIFT)
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


def _families(seeds: SeedConfig):
    """(seed, stream id) of the wiener, jump_times and marks families."""
    ids = (STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS)
    return zip((seeds.wiener, seeds.jump_times, seeds.marks), ids)


def realization_streams(seeds: SeedConfig, realization: int):
    """(wiener, jump_times, marks) generators for one realization."""
    return tuple(stream(seed, realization, sid) for seed, sid in _families(seeds))


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


# kind: (fast path, wedge) with the wedge's (index shift, table,
# ``table[idx - 1] - table[idx]`` for each box ``idx``, exponent of its
# bound) as numpy's slow path reads a rejected word; "random" never rejects
_FI_DROP, _FE_DROP = np.roll(FI_DOUBLE, 1) - FI_DOUBLE, np.roll(FE_DOUBLE, 1) - FE_DOUBLE
_KINDS = {
    "standard_normal": (standard_normal, (0, FI_DOUBLE, _FI_DROP, lambda x: -0.5 * x * x)),
    "standard_exponential": (standard_exponential, (3, FE_DOUBLE, _FE_DROP, np.negative)),
    "random": (random, None),
}


def _slack(counts):
    """Words drawn per row for ``counts`` ziggurat draws: at least
    ``2 + counts // 8`` words past the last one the fast path needs, up
    to the end of the row's last Philox block (no row draws for none).
    On 16,384 rows of 40 normals, 2 rows run out of them, against 209
    with ``2 + counts // 16``; ``3 + counts // 8`` raised adapt-d's peak
    RSS by 0.7 MB."""
    return 4 * ((counts + 5 + counts // 8) // 4) * (counts > 0)


def call_slabs(counts) -> list:
    """Cuts ``[0, ..., len(counts)]`` of rows into slabs of consecutive
    rows holding at most CALL_DRAWS of the ``counts`` draws in all, unless
    one row alone has more."""
    end, cuts = np.cumsum(counts), [0]
    while cuts[-1] < len(counts):
        base = end[cuts[-1]] - counts[cuts[-1]]
        cuts.append(max(cuts[-1] + 1, int(np.searchsorted(end, base + CALL_DRAWS, side="right"))))
    return cuts


def most_draws(blocks: int, spare: int = 0) -> int:
    """The most ziggurat draws of a row whose words (``_slack``), with
    ``spare`` more slack words, fit in ``blocks`` Philox blocks."""
    words = 4 * blocks - 2 - spare  # for count + count // 8: 9 per 8 draws
    return 8 * (words // 9) + min(7, words % 9)


def _segment_base(lead, values):
    """Each entry's value of ``values`` (non-decreasing) at the last
    ``lead`` entry up to it."""
    return np.maximum.accumulate(np.where(lead, values, values[:1]))


def _draw_events(er, eq):
    """Which rejected words (rows ``er``, places ``eq``, in row and place
    order) start a draw: a run of adjacent ones alternates draw, ``u``,
    draw, ..., since a wedge draw reads the word after it as its ``u``."""
    run = np.ones(len(er), dtype=bool)
    run[1:] = (eq[1:] != eq[:-1] + 1) | (er[1:] != er[:-1])
    if run.all():
        return run
    k = np.arange(len(er))
    return (k - _segment_base(run, k)) % 2 == 0


def _draws(kind, er, eq, box, drawn, kept):
    """The rejected words ``(er, eq)`` that start a draw, as indices, with
    each one's tail value and words used (0 where its row's words end
    first), each tail draw (box 0) read from its row's words in ``kept =
    (rows, words)``.  A row's first tail draw is resolved first, since
    the words it uses are not draws; so each round resolves one tail draw
    per row."""
    draw = np.flatnonzero(_draw_events(er, eq))
    if not (box[draw] == 0).any():
        return draw, np.zeros(len(draw)), np.zeros(len(draw), dtype=np.int64)
    krows, kwords = kept
    koff = np.cumsum(drawn[krows]) - drawn[krows]
    key = (er << 32) | eq  # ascending
    alive, tried = np.ones(len(er), dtype=bool), np.zeros(len(er), dtype=bool)
    used, value = np.zeros(len(er), dtype=np.int64), np.zeros(len(er))
    while True:
        live = np.flatnonzero(alive)
        draw = live[_draw_events(er[live], eq[live])]
        todo = draw[(box[draw] == 0) & ~tried[draw]]
        if not len(todo):
            return draw, value[draw], used[draw]
        todo = todo[np.unique(er[todo], return_index=True)[1]]
        tried[todo] = True
        for e in todo.tolist():
            at = koff[np.searchsorted(krows, er[e])]
            got = _tail(kind, kwords[at + eq[e]:at + drawn[er[e]]].tolist())
            if got is not None:
                value[e], used[e] = got
        done = todo[used[todo] > 0]
        alive[_ranges(done + 1, np.searchsorted(key, key[done] + used[done]) - done - 1)] = False


def _wedges(kind, er, eq, word, after, x, counts, drawn, kept):
    """Read rows of ziggurat draws of ``kind`` from their drawn words as
    numpy does, resolving every rejected draw whose words were drawn.

    Row ``k`` has ``drawn[k]`` words for ``counts[k]`` draws.  Its words
    that the fast path rejects are the events ``(er, eq)`` (row, place;
    in row and place order), with the word itself, the word after it
    (meaningless past the row's drawn words) and the fast path's ``x``.
    The kind's wedge reads a rejected draw's box ``idx = (word >> shift)
    & 0xFF``.  Box 0 is a tail draw, numpy's tail formula on the words
    after it (``_draws``, from the words of the rows in ``kept``).  Any
    other box reads the next word as a uniform ``u`` (``Generator.random``)
    and keeps ``x`` if the wedge test ``(table[idx-1] - table[idx]) * u +
    table[idx] < exp(exponent(x))`` holds, with libm's ``exp`` as numpy's
    C code calls it; else it draws again from the word after ``u``.  So
    each rejection shifts the row's later draws.  Returns ``((row, at,
    step), tails, redo)``: the shift ``step`` from value ``at`` of row
    ``row`` on, the tail values as ``(rows, value, tail value)``, and the
    rows whose words ran out (at a tail draw or a wedge draw whose words
    were not all drawn, or before their last value), whose values past
    there are meaningless.
    """
    shift, table, drop, exponent = _KINDS[kind][1]
    box = ((word >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.intp)
    draw, tail, used = _draws(kind, er, eq, box, drawn, kept)
    er, eq, after, x, box = (a[draw] for a in (er, eq, after, x, box))
    u, _ = random(after)
    test = drop[box] * u + table[box]
    # np.exp is within a few ulps of libm's exp; libm decides the close calls
    power = exponent(x)
    bound = np.exp(power)
    close = np.flatnonzero(np.abs(test - bound) <= 1e-9 * bound)
    bound[close] = [math.exp(v) for v in power[close].tolist()]
    wedge = box != 0
    accept = np.where(wedge, test < bound, used > 0)
    # steps never fall: _segment_base reads the row bases off a running max
    step = np.where(wedge, 2 - accept, np.maximum(used - 1, 0))
    lead = np.ones(len(er), dtype=bool)
    lead[1:] = er[1:] != er[:-1]
    before = np.cumsum(step) - step
    value = eq - (before - _segment_base(lead, before))  # the draw's value
    live = value < counts[er]  # a prefix of each row's draws
    short = live & np.where(wedge, eq + 1 >= drawn[er], ~accept)
    er, value, accept, step, tails = (a[live] for a in (er, value, accept, step, ~wedge))
    redo = counts + np.bincount(er, weights=step, minlength=len(counts)) > drawn
    redo[er[short[live]]] = True
    return (er, value + accept, step), (er[tails], value[tails], tail[live][tails]), np.flatnonzero(redo)


def _uniform(word: int) -> float:
    """``Generator.random`` of one word."""
    return (word >> 11) * (1.0 / 9007199254740992.0)


def _tail(kind, row):
    """numpy's tail draw of ``kind`` read from ``row`` (Python ints: the
    rejected word, then the words after it) with libm's ``log1p``:
    ``(value, words used)``, or None if ``row`` ends first.  The normal's
    sign is bit 8 of the rejected draw's ``rabs``, as numpy reads it."""
    if kind == "standard_exponential":
        return (_EXP_R - math.log1p(-_uniform(row[1])), 2) if len(row) > 1 else None
    for j in range(1, len(row) - 1, 2):
        xx = -_NOR_INV_R * math.log1p(-_uniform(row[j]))
        yy = -math.log1p(-_uniform(row[j + 1]))
        if yy + yy > xx * xx:
            return (-(_NOR_R + xx) if (row[0] >> 17) & 1 else _NOR_R + xx), j + 2
    return None


def _ranges(start, length):
    """The indices ``start[k]`` to ``start[k] + length[k] - 1``, row after row."""
    off = np.cumsum(length) - length
    return np.repeat(start - off, length) + np.arange(off[-1] + length[-1] if len(off) else 0)


def _read(kind, slabs, woff, drawn, counts, size):
    """Read ``counts[k]`` draws of ``kind`` from the ``drawn[k]`` words of
    row ``k``, which start at word ``woff[k]`` of the ``size`` words that
    ``slabs`` yields as ``(word offset, words)`` (whole rows).  Returns
    ``(x, (row, at, step), tails, redo)``: the fast path's value of every
    word, and ``_wedges``' shifts, tail values and rows whose words ran
    out, reading the tail draws from the words of their rows."""
    fast, wedge = _KINDS[kind]
    x = np.empty(size)
    found, kept = [], []
    for at, wv in slabs:
        _, ok = fast(wv, out=x[at:at + len(wv)])
        if wedge is not None and len(ev := np.flatnonzero(~ok)):
            found.append((at + ev, wv[ev], wv[np.minimum(ev + 1, len(wv) - 1)]))
            tail = ev[(wv[ev] >> np.uint64(wedge[0])) & np.uint64(0xFF) == 0]
            if len(tail):
                k = np.unique(np.searchsorted(woff, at + tail, side="right") - 1)
                kept.append((k, wv[_ranges(woff[k] - at, drawn[k])]))
    none = np.empty(0, dtype=np.int64)
    if not found:  # slack words are never short without a rejection
        return x, (none, none, none), (none, none, x[:0]), none
    ev, word, after = found[0] if len(found) == 1 else (np.concatenate(p) for p in zip(*found))
    kept = tuple(np.concatenate(p) for p in zip(*kept)) if kept else (none, word[:0])
    er = np.searchsorted(woff, ev, side="right") - 1
    return (x, *_wedges(kind, er, ev - woff[er], word, after, x[ev], counts, drawn, kept))


def _index(base, counts, er, at, step):
    """Where each row's values are read, row after row: value ``v`` of
    row ``k`` is word ``base[k] + v`` plus the steps of the row's
    rejections ``(er, at, step)``, each shifting the values from ``at`` on
    (``at <= counts[er]``)."""
    if not len(er):
        return _ranges(base, counts)
    voff = np.cumsum(counts) - counts
    total = np.bincount(er, weights=step, minlength=len(counts)).astype(np.int64)
    place = np.ones(int(voff[-1] + counts[-1]) + 1, dtype=np.int64)
    place[0] = 0
    np.add.at(
        place,
        np.concatenate([voff, voff[er] + at, voff + counts]),
        np.concatenate([np.diff(base - voff, prepend=0), step, -total]),
    )
    return np.cumsum(place[:-1], out=place[:-1])


class KeyedStream:
    """One stream family (seed and stream id), realization by realization:
    ``draws`` draws for many realizations at once."""

    def __init__(self, seed: int, stream_id: int):
        self.seed = seed
        self.stream_id = stream_id
        # The state setter copies the counter, so one dict serves every
        # slab; it reads Python lists faster than numpy arrays.
        self._counter = [0, 0, 0, 0]
        key = [seed, stream_id + 1]
        self._state = dict(bit_generator="Philox", state=dict(counter=self._counter, key=key),
                           buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)
        self._bits = np.random.Philox(key=np.array(key, dtype=np.uint64))

    def _slab(self, words, at, realizations, stop):
        """Write blocks 0 to ``stop[k] - 1`` of the nearby ascending
        ``realizations[k]`` to blocks ``at[k]`` on of ``words`` (blocks):
        per block index, one state set and one ``random_raw`` over their
        span, and one ``np.take`` of each row's blocks (a repeated
        realization takes its blocks again)."""
        self._counter[0] = int(realizations[0])
        if len(stop) == 1:  # a lone row's blocks go in place, one by one
            for b in range(int(stop[0])):
                self._counter[1] = b
                self._bits.state = self._state
                words[int(at[0]) + b] = self._bits.random_raw(4)
            return
        rel = realizations - realizations[0]
        n = int(rel[-1]) + 1
        slab = np.empty((int(stop.max()), n, 4), dtype=np.uint64)
        for b in range(len(slab)):
            self._counter[1] = b
            self._bits.state = self._state
            slab[b] = self._bits.random_raw(4 * n).reshape(n, 4)
        block = np.arange(int(stop.sum())) - np.repeat(at - at[0], stop)
        np.take(slab.reshape(-1, 4), block * n + np.repeat(rel, stop), axis=0,
                out=words[at[0]:at[0] + len(block)])

    def _slabs(self, realizations, stop):
        """Blocks 0 to ``stop[k] - 1`` of the ascending ``realizations[k]``,
        row after row: yields ``(word offset, words)`` of consecutive rows,
        SLAB_BLOCKS blocks at a time unless one row alone has more.  Their
        slabs (``_slab``) end at gaps of more than SLAB_GAP realizations
        and make at most SLAB_SPAN blocks unless one realization's need
        more."""
        end = np.cumsum(stop)
        lo = 0
        while lo < len(stop):
            base = int(end[lo] - stop[lo])
            hi = max(lo + 1, int(np.searchsorted(end, base + SLAB_BLOCKS, side="right")))
            r, s = realizations[lo:hi], stop[lo:hi]
            at = end[lo:hi] - s - base
            words = np.empty((int(end[hi - 1]) - base, 4), dtype=np.uint64)
            cut = (np.flatnonzero(np.diff(r) > SLAB_GAP) + 1).tolist()
            for a, z in zip([0] + cut, cut + [len(r)]):
                reach = max(1, SLAB_SPAN // max(int(s[a:z].max()), 1))
                while a < z:
                    y = a + int(np.searchsorted(r[a:z], r[a] + reach))
                    self._slab(words, at[a:y], r[a:y], s[a:y])
                    a = y
            yield 4 * base, words.reshape(-1)
            lo = hi

    def draws(self, kind: str, realizations, counts):
        """The first ``counts[k]`` draws of ``kind`` (a ``Generator``
        method: "standard_normal", "standard_exponential" or "random") of
        stream ``realizations[k]``, row after row, every value numpy's.

        The rows are drawn in realization order, and the caller's order
        is the final gather's (``_values``).  Ziggurat rejections are
        resolved in arrays (``_wedges``) from a few slack words per row;
        uniforms never reject and draw no slack.
        """
        if kind not in _KINDS:
            raise ParameterError(f"unknown draw kind {kind!r}, expected one of {sorted(_KINDS)}")
        realizations = _realization_array(realizations)
        counts = _integers("draw count", counts)
        if realizations.ndim != 1 or realizations.shape != counts.shape:
            raise ParameterError(
                f"realizations and counts must be 1-d and of one length, "
                f"got shapes {realizations.shape} and {counts.shape}"
            )
        bad = (counts < 0) | (counts >= 2**63)  # before the int64 cast, which would wrap
        if bad.any():
            k = int(np.argmax(bad))
            bound = ">= 0" if counts[k] < 0 else "< 2**63"
            raise ParameterError(
                f"draw count must be {bound}, got {counts[k]} (realization {realizations[k]})"
            )
        counts = counts.astype(np.int64, copy=False)
        if not counts.sum():
            return np.empty(0)
        order = np.argsort(realizations, kind="stable")
        return self._values(kind, realizations[order], counts[order], order)

    def _values(self, kind, rows, need, order, depth=0):
        """The first ``need[k]`` draws of ``kind`` of the ascending
        ``rows[k]`` as row ``order[k]`` of the values, rows after rows.

        One pass draws every row's words in slabs and gathers each value
        from the fast path's values, in the output's order.  Tail values
        are written over theirs, and the rows whose words ran out are
        drawn again, whole, by a further pass with 1, 3, 7, ... more
        blocks."""
        blocks = ((need if _KINDS[kind][1] is None else _slack(need)) + 3) // 4 + (1 << depth) - 1
        woff = 4 * (np.cumsum(blocks) - blocks)
        x, (er, at, step), (tu, tv, tz), redo = _read(
            kind, self._slabs(rows, blocks), woff, 4 * blocks, need,
            int(woff[-1] + 4 * blocks[-1]),
        )
        base, counts = np.empty_like(woff), np.empty_like(need)
        base[order], counts[order] = woff, need
        # clipped: past where its words ran out, a row drawn again below
        # may read outside x
        values = np.take(x, _index(base, counts, order[er], at, step), mode="clip")
        voff = np.cumsum(counts) - counts
        if len(tu):
            values[voff[order[tu]] + tv] = tz
        if len(redo):
            again = self._values(kind, rows[redo], need[redo], np.arange(len(redo)), depth + 1)
            values[_ranges(voff[order[redo]], need[redo])] = again
        return values


def keyed_streams(seeds: SeedConfig):
    """(wiener, jump_times, marks) keyed streams."""
    return tuple(KeyedStream(seed, sid) for seed, sid in _families(seeds))
