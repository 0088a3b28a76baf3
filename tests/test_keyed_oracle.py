"""The oracle of the keyed draws, and the draws' resolution paths.

``keyed_oracle``'s scalar ziggurat is anchored to numpy's generator on
one Philox's sequential words.  Then ``KeyedStream.draws`` is checked
against the oracle on crafted rows that take each resolution path: tail
draws read from the row's drawn words, wedge draws, and rows whose words
run out (a wedge draw without its ``u``, a tail draw without its words,
a row past its slack), which a further pass draws again.
"""

from functools import lru_cache

import numpy as np
import pytest

import keyed_oracle as oracle
from jumpmc import rng as rng_module
from jumpmc.rng import STREAM_JUMP_TIMES, KeyedStream

SEED = 2**64 - 11


@pytest.mark.parametrize("seed", [0, 20260, 2**64 - 1])
@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
def test_scalar_ziggurat_reproduces_the_generator(seed, kind):
    count = 200_000
    tails = []
    words = oracle.SequentialWords(np.random.Philox(seed))
    got = np.array([oracle.KINDS[kind](words, tails) for _ in range(count)])
    want = getattr(np.random.Generator(np.random.Philox(seed)), kind)(count)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(tails) >= (kind != "random")  # each ziggurat meets its tail


def test_row_words_follow_the_declared_layout():
    # block b of realization r: the first four words from counter (r, b, 0, 0)
    key = np.array([SEED, STREAM_JUMP_TIMES + 1], dtype=np.uint64)
    for r in (0, 7, (1 << 60) - 1):
        row = oracle.RowWords(SEED, STREAM_JUMP_TIMES, r)
        got = [row() for _ in range(12)]
        want = [
            np.random.Philox(key=key, counter=np.array([r, b, 0, 0], dtype=np.uint64))
            .random_raw(4).tolist()
            for b in range(3)
        ]
        assert got == sum(want, [])


@lru_cache(maxsize=None)
def crafted(kind):
    """{case: (realization, draws)} of ``keyed_oracle.crafted_rows``."""
    found = oracle.crafted_rows(SEED, STREAM_JUMP_TIMES, kind, 41)
    assert set(found) == {
        "tail", "two_tails", "tail_last", "accept", "reject", "adjacent", "u_last",
        "tail_words_last",
    }, found
    return found


def run_crafted(monkeypatch, kind, slack):
    """Draw every crafted row of ``kind`` and some plain ones in one call
    with ``slack`` words past each row's draws (the default if None);
    check them against the oracle and their own one-row calls, and return
    what ``_wedges`` resolved: (tail values, rows drawn again)."""
    if slack is not None:
        monkeypatch.setattr(rng_module, "_slack", lambda counts: (counts + slack) * (counts > 0))
    seen = {"tails": 0, "redo": 0}
    wedges = rng_module._wedges

    def spy(*args):
        events, tails, redo = wedges(*args)
        seen["tails"] += len(tails[0])
        seen["redo"] += len(redo)
        return events, tails, redo

    monkeypatch.setattr(rng_module, "_wedges", spy)
    cases = crafted(kind)
    rows = np.array([r for r, _ in cases.values()] + list(range(40, 60)))
    counts = np.array([n for _, n in cases.values()] + [0, 1, 6, 41] * 5)
    keyed = KeyedStream(SEED, STREAM_JUMP_TIMES)
    values = keyed.draws(kind, rows, counts)
    want = oracle.draws(SEED, STREAM_JUMP_TIMES, kind, rows, counts)
    np.testing.assert_array_equal(values.view(np.uint64), want.view(np.uint64))
    at = np.cumsum(counts) - counts
    for r, n, a in zip(rows.tolist(), counts.tolist(), at.tolist()):
        np.testing.assert_array_equal(keyed.draws(kind, [r], [n]), values[a:a + n])
    return seen


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential"])
def test_tail_draws_are_read_from_the_drawn_words(monkeypatch, kind):
    seen = run_crafted(monkeypatch, kind, None)
    assert seen["tails"] >= 3  # "tail", "two_tails" and "tail_last" resolved in place


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential"])
@pytest.mark.parametrize("slack", [0, 1])
def test_rows_whose_words_run_out_are_drawn_again(monkeypatch, kind, slack):
    # no slack: the "u_last" row's wedge draw has no u, the
    # "tail_words_last" row's tail draw no words, and a row past its
    # slack stops at its first word not drawn
    seen = run_crafted(monkeypatch, kind, slack)
    assert seen["redo"] >= 3


def test_a_run_of_rejected_words_alternates_draw_and_u():
    # a wedge draw reads the word after it as its u: in a run of adjacent
    # rejected words every other one starts a draw, from the run's first
    er = np.array([0, 0, 0, 0, 0, 1, 1, 2])
    eq = np.array([3, 4, 5, 6, 9, 10, 11, 0])
    got = rng_module._draw_events(er, eq)
    assert got.tolist() == [True, False, True, False, True, True, False, True]
