"""Property test of the batched augmented-grid builder.

Every column of ``build_grid_batch`` must equal the grid its row gets on
its own, and the grid of the per-jump loop the batched builder replaced
(kept below as the reference).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc.jumps import (  # noqa: E402
    COLLISION_RTOL,
    JumpRealization,
    build_augmented_grid,
    build_grid_batch,
    column_grid,
)

HORIZON = 1.0
TOL = COLLISION_RTOL * HORIZON


def reference_grid(det, tau):
    """(times, jump_index, collisions) by a sorted merge and one search
    per jump."""
    pos = np.searchsorted(det, tau)
    left = det[np.clip(pos - 1, 0, len(det) - 1)]
    right = det[np.clip(pos, 0, len(det) - 1)]
    nearest = np.where(np.abs(tau - left) <= np.abs(right - tau), left, right)
    collide = np.abs(tau - nearest) <= TOL
    times = np.sort(np.concatenate([det, tau[~collide]]))
    jump_index = np.full(len(times), -1, dtype=np.intp)
    for k in range(len(tau)):
        n = int(np.searchsorted(times, nearest[k] if collide[k] else tau[k]))
        assert jump_index[n] == -1
        jump_index[n] = k
    return times, jump_index, int(np.count_nonzero(collide))


@st.composite
def meshes(draw):
    n = draw(st.integers(1, 8))
    inner = draw(
        st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1, unique=True)
    )
    det = np.array([0.0, *sorted(inner), HORIZON])
    if np.any(np.diff(det) <= 1e-3):
        det = np.linspace(0.0, HORIZON, n + 1)
    return det


@st.composite
def jump_rows(draw, det, forced):
    """Strictly increasing jump times in (0, horizon): some within the
    collision tolerance of distinct mesh nodes (at least ``forced``), the
    rest farther from every node."""
    nodes = draw(
        st.lists(st.integers(0, len(det) - 1), min_size=forced, max_size=3, unique=True)
    )
    near = [det[j] + draw(st.floats(-TOL, TOL)) for j in nodes]
    free = draw(st.lists(st.floats(0.0, HORIZON, exclude_min=True, exclude_max=True), max_size=5))
    free = [t for t in free if np.min(np.abs(det - t)) > 2 * TOL]
    tau = np.unique([t for t in near + free if 0.0 < t < HORIZON])
    marks = np.arange(2.0 * len(tau)).reshape(len(tau), 2) + draw(st.integers(0, 99))
    return JumpRealization(times=tau, marks=marks)


@st.composite
def chunks(draw):
    det = draw(meshes())
    rows = draw(st.lists(jump_rows(det, 0), min_size=1, max_size=6))
    # always a row without jumps and a row with a jump forced onto a node
    rows.insert(draw(st.integers(0, len(rows))), JumpRealization(np.array([]), np.empty((0, 2))))
    rows.insert(draw(st.integers(0, len(rows))), draw(jump_rows(det, 1)))
    return det, rows


@settings(max_examples=150, deadline=None)
@given(chunk=chunks())
def test_grid_groups_place_every_jump_once_and_match_one_row_builds(chunk):
    det, rows = chunk
    flat = (
        [len(r.times) for r in rows],
        np.concatenate([r.times for r in rows]),
        np.concatenate([r.marks for r in rows]),
    )
    batch = build_grid_batch(det, *flat, horizon=HORIZON)
    # longest first, each step count's rows in order
    assert (batch.n_steps[1:] <= batch.n_steps[:-1]).all()
    ties = batch.n_steps[1:] == batch.n_steps[:-1]
    assert (batch.rows[1:][ties] > batch.rows[:-1][ties]).all()
    assert not (np.arange(len(batch.times))[:, None] > batch.n_steps)[batch.jump_flag].any()
    placed = {}
    for b, row in enumerate(batch.rows.tolist()):
        assert row not in placed
        placed[row] = column_grid(batch, b, det, batch.collisions[b])
    assert sorted(placed) == list(range(len(rows)))

    n = len(det) - 1
    for row, jumps in enumerate(rows):
        grid = placed[row]
        tau = jumps.times
        collisions = sum(np.min(np.abs(det - t)) <= TOL for t in tau)
        assert grid.collisions == collisions
        assert grid.n_steps == n + len(tau) - collisions
        # each jump exactly once, at its own time or at the node it merged into
        at = grid.jump_index >= 0
        np.testing.assert_array_equal(np.sort(grid.jump_index[at]), np.arange(len(tau)))
        for k, t in enumerate(tau):
            (node,) = np.nonzero(grid.jump_index == k)[0]
            # a merged jump sits at a deterministic node's time, an
            # inserted one at its own time, which is no node of the mesh
            if np.min(np.abs(det - t)) <= TOL:
                assert grid.times[node] in det and abs(grid.times[node] - t) <= TOL
            else:
                assert grid.times[node] == t and t not in det
        np.testing.assert_array_equal(grid.marks, jumps.marks)

        alone = build_augmented_grid(det, jumps, horizon=HORIZON)
        times, jump_index, ref_collisions = reference_grid(det, tau)
        for other in (alone.times, times):
            np.testing.assert_array_equal(grid.times, other)
        for other in (alone.jump_index, jump_index):
            np.testing.assert_array_equal(grid.jump_index, other)
        assert alone.collisions == ref_collisions == grid.collisions
        np.testing.assert_array_equal(alone.marks, grid.marks)
