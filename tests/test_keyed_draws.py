"""``KeyedStream.draws`` against the oracle of ``keyed_oracle``.

Calls mix realizations in any order, repeated, sparse (gaps wider than
SLAB_GAP) and near the top of the index range, with zero counts, passes
of four blocks, slabs of a few realizations, little slack, and the crafted rows of
``test_keyed_oracle`` (tail draws, wedge draws, words that run out).
Every value must be the oracle's, and every row its own one-row call's.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import keyed_oracle as oracle  # noqa: E402
from jumpmc import rng as rng_module  # noqa: E402
from jumpmc.rng import STREAM_JUMP_TIMES, KeyedStream  # noqa: E402
from test_keyed_oracle import SEED, crafted  # noqa: E402

KINDS = ["standard_normal", "standard_exponential", "random"]
TOP = (1 << 60) - 1


@st.composite
def calls(draw):
    """(kind, realizations, counts, SLAB_BLOCKS, SLAB_SPAN, slack) of one call."""
    kind = draw(st.sampled_from(KINDS), label="kind")
    special = [] if kind == "random" else sorted(crafted(kind).values())
    index = st.one_of(
        st.integers(0, 300),
        st.integers(TOP - 300, TOP),
        st.integers(0, 4 * rng_module.SLAB_GAP).map(lambda r: 5000 + 3 * r),
    )
    rows = draw(st.lists(index, min_size=1, max_size=24), label="rows")
    counts = draw(
        st.lists(st.integers(0, 60), min_size=len(rows), max_size=len(rows)), label="counts"
    )
    picked = draw(st.lists(st.sampled_from(special), max_size=4) if special else st.just([]))
    rows += [r for r, _ in picked]
    counts += [n for _, n in picked]
    order = draw(st.permutations(range(len(rows))), label="order")
    slab_blocks = draw(st.sampled_from([4, rng_module.SLAB_BLOCKS]), label="SLAB_BLOCKS")
    slab_span = draw(st.sampled_from([16, rng_module.SLAB_SPAN]), label="SLAB_SPAN")
    slack = draw(st.sampled_from([None, 0, 1]), label="slack")
    return (
        kind, np.array(rows)[order], np.array(counts)[order], slab_blocks, slab_span, slack,
    )


@settings(max_examples=120, deadline=None)
@given(call=calls())
def test_draws_match_the_oracle(call):
    kind, rows, counts, slab_blocks, slab_span, slack = call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "SLAB_BLOCKS", slab_blocks)
        mp.setattr(rng_module, "SLAB_SPAN", slab_span)
        if slack is not None:
            mp.setattr(rng_module, "_slack", lambda c: (c + slack) * (c > 0))
        keyed = KeyedStream(SEED, STREAM_JUMP_TIMES)
        values = keyed.draws(kind, rows, counts)
        want = oracle.draws(SEED, STREAM_JUMP_TIMES, kind, rows, counts)
        np.testing.assert_array_equal(values.view(np.uint64), want.view(np.uint64))
        at = np.cumsum(counts) - counts
        for r, n, a in zip(rows.tolist(), counts.tolist(), at.tolist()):
            np.testing.assert_array_equal(keyed.draws(kind, [r], [n]), values[a:a + n])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**64 - 1),
    stream_id=st.integers(0, 2),
    rows=st.lists(st.integers(0, TOP), min_size=1, max_size=6),
    count=st.integers(0, 30),
)
def test_draws_match_the_oracle_on_any_family(kind, seed, stream_id, rows, count):
    counts = np.full(len(rows), count)
    values = KeyedStream(seed, stream_id).draws(kind, rows, counts)
    want = oracle.draws(seed, stream_id, kind, rows, counts)
    np.testing.assert_array_equal(values.view(np.uint64), want.view(np.uint64))
