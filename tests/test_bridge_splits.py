"""``euler._bridge_splits`` against a loop of ``bridge_split``.

``_bridge_splits`` splits the steps of many rows at once and makes all
the redraws of a stuck step in one pass.  Every row must come out as
one ``bridge_split`` call per step, in order, with the generator of its
Wiener stream after its position: the same halves bit for bit (the sign
of a zero included), from the same number of normals.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import SeedConfig  # noqa: E402
from jumpmc.euler import REDRAWS, _absorb, _bridge_splits, _BridgeNormals, bridge_split  # noqa: E402
from jumpmc.rng import keyed_streams  # noqa: E402

WIENER = keyed_streams(SeedConfig())[0]


class Fed:
    """A generator whose normals are ``values``, in order; counts them."""

    def __init__(self, values):
        self.values, self.drawn = values, 0

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out = self.values[self.drawn:self.drawn + n].reshape(shape)
        self.drawn += n
        return out


def split_rows(rows, realizations, positions):
    """Split ``rows`` (lists of ``(dt, dw)`` steps) with ``_bridge_splits``
    and each row's steps with ``bridge_split`` in order, from normal
    ``positions[h]`` of stream ``realizations[h]``; check that both give
    the same halves and draw as many normals.  Returns the halves."""
    w = len(rows[0][0][1])
    k = np.array([len(row) for row in rows])
    srow = np.repeat(np.arange(len(rows)), k)
    rank = np.arange(k.sum()) - (np.cumsum(k) - k)[srow]
    dt = np.array([d for row in rows for d, _ in row])
    whole = np.array([x for row in rows for _, x in row], dtype=float).reshape(-1, w)
    realizations = np.asarray(realizations, dtype=np.int64)
    positions = np.asarray(positions, dtype=np.int64)
    normals = _BridgeNormals(WIENER, realizations, positions, k, w)
    first, second, used = _bridge_splits(dt, whole, rank, srow, normals)
    for h in range(len(rows)):
        # more normals than any row of the test can draw
        z = WIENER.draws("standard_normal", realizations[h:h + 1], [positions[h] + 4096])
        generator = Fed(z[positions[h]:])
        for s in np.flatnonzero(srow == h).tolist():
            want = bridge_split(dt[s], whole[s], generator)
            for got, half in zip((first[s], second[s]), want):
                np.testing.assert_array_equal(got.view(np.int64), half.view(np.int64))
        assert used[h] == generator.drawn, h
    return first, second


def steps(w):
    dt = st.one_of(st.floats(1e-9, 4.0), st.floats(5e-324, 2.2e-308))  # subnormals too
    dw = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
        st.floats(-1e-300, 1e-300),
        st.floats(-1e-12, 1e-12),  # far below sqrt(dt) for most dt
        st.floats(-3.0, 3.0),
    )
    return st.tuples(dt, st.lists(dw, min_size=w, max_size=w))


@pytest.mark.parametrize("w", [1, 2])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_splits_match_a_bridge_split_loop(w, data):
    rows = data.draw(
        st.lists(st.lists(steps(w), min_size=1, max_size=4), min_size=1, max_size=4),
        label="rows",
    )
    realizations = data.draw(
        st.lists(st.integers(0, 10**6), min_size=len(rows), max_size=len(rows), unique=True),
        label="realizations",
    )
    positions = data.draw(
        st.lists(st.integers(0, 64), min_size=len(rows), max_size=len(rows)), label="positions"
    )
    split_rows(rows, realizations, positions)


def channel_redraws(dt, dw, realization):
    """The redraws ``bridge_split`` makes for each channel of ``dw`` on its
    own, from normal 0 of the stream (channel c reads every w-th normal
    from normal c on), and the first halves it gives."""
    w = len(dw)
    z = WIENER.draws("standard_normal", [realization], [w * (REDRAWS + 1)])
    out = []
    for c in range(w):
        generator = Fed(z[c::w])
        first, _ = bridge_split(dt, np.array([dw[c]]), generator)
        out.append((generator.drawn - 1, first[0]))
    return out, z.reshape(REDRAWS + 1, w)


# (dt, dw, realization) of a step split from normal 0 of the stream,
# found by a search over the realizations of SeedConfig()'s Wiener stream
TWO_CHANNELS = (0.2, [0.03, 0.03], 71)
TENTH_REDRAW = (0.2, [0.01], 68)
MIDPOINT = (0.2, [0.01], 47)


@pytest.mark.parametrize("case", ["two_channels", "tenth_redraw", "midpoint"])
def test_crafted_steps_take_each_redraw_path(case):
    dt, dw, realization = {
        "two_channels": TWO_CHANNELS, "tenth_redraw": TENTH_REDRAW, "midpoint": MIDPOINT
    }[case]
    taken, z = channel_redraws(dt, dw, realization)
    half, scale = 0.5 * dw[0], 0.5 * np.sqrt(dt)
    if case == "two_channels":
        # the channels settle at different redraws, so the step draws the
        # later one's and the earlier channel keeps its own candidate
        assert [n for n, _ in taken] == [1, 4]
    elif case == "tenth_redraw":
        # only the last redraw settles, with no correction round after it
        ((n, first),) = taken
        assert n == REDRAWS and first != half
    else:
        # nothing settles: the exact midpoint, although a correction round
        # after the last redraw would have settled it
        ((n, first),) = taken
        assert n == REDRAWS and first == half
        f = np.array([half + z[REDRAWS, 0] * scale])
        g = np.array(dw) - f
        assert (np.array(dw) - (f + g) != 0.0).all()
        f, g = _absorb(np.array(dw), f, g)
        assert (np.array(dw) - (f + g) == 0.0).all()
    # the step first in its row, with steps after it and a row besides
    w = len(dw)
    rows = [[(dt, dw), (0.1, [0.25] * w), (0.05, [-1e-3] * w)], [(0.3, [0.5] * w)]]
    first, _ = split_rows(rows, [realization, realization + 1], [0, 7])
    np.testing.assert_array_equal(first[0], [f for _, f in taken])
