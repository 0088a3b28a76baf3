"""The node-major forward layer against the rows-first one it replaced.

``rows_first_forward`` keeps the earlier rows-first ``euler_batch`` and
``euler_terminal``.  On hypothesis-drawn batches (up to three step
counts, longest first, ``wiener_dim`` 1 or 2, jumps at node 0 and at a
row's last node) the node-major ``euler_batch``, ``euler_terminal`` and
``terminal_values`` must give their bytes at every node each row reaches.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import rows_first_forward as oracle  # noqa: E402
from jumpmc import uniform_mesh  # noqa: E402
from jumpmc.euler import euler_batch, euler_terminal, terminal_values  # noqa: E402
from rows_first_forward import RowsFirstPaths, to_node_major  # noqa: E402
from test_box_kernel import random_model  # noqa: E402


@st.composite
def ragged_batches(draw):
    """A rows-first batch of rows with up to three step counts, longest
    first, on ``wiener_dim`` 1 or 2 (``test_box_kernel.random_model``):
    random jumps, and jumps at node 0 and at a row's last node."""
    l = draw(st.integers(1, 2), label="wiener_dim")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    counts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3), label="rows per count")
    N = draw(st.integers(1, 4), label="mesh steps")
    rng = np.random.default_rng(seed)
    det = uniform_mesh(1.0, N)
    rows = []
    for k, B in enumerate(counts):
        extra = len(counts) - 1 - k  # longest first
        inner = np.sort(rng.uniform(0.05, 0.95, (B, extra)), axis=1)
        rows += list(np.sort(np.concatenate([np.tile(det, (B, 1)), inner], axis=1), axis=1))
    n_steps = np.array([len(t) - 1 for t in rows])
    n = int(n_steps.max())
    B = len(rows)
    times = np.empty((B, n + 1))
    for b, t in enumerate(rows):
        times[b, : len(t)], times[b, len(t):] = t, t[-1]
    dt = np.diff(times, axis=1)
    dw = rng.standard_normal((B, n, l)) * np.sqrt(dt)[..., None]
    jump_flag = (rng.random((B, n + 1)) < 0.3) & (np.arange(n + 1) <= n_steps[:, None])
    jump_flag[::2, 0] = True
    jump_flag[np.arange(1, B, 2), n_steps[1::2]] = True
    marks = np.where(jump_flag[..., None], rng.uniform(-1.0, 1.0, (B, n + 1, 1)), 0.0)
    model = random_model(draw(st.integers(1, 3), label="dim"), l, seed)[1]
    return model, RowsFirstPaths(times, dw, jump_flag, marks, dt, n_steps)


@settings(max_examples=60, deadline=None)
@given(case=ragged_batches())
def test_node_major_forward_matches_the_rows_first_oracle(case):
    model, first = case
    paths = to_node_major(first)
    values, left = euler_batch(model, paths)
    want_values, want_left = oracle.euler_batch(model, first)
    real = np.arange(len(paths.times))[:, None] <= paths.n_steps
    assert values[real].tobytes() == want_values.swapaxes(0, 1)[real].tobytes()
    assert left[real].tobytes() == want_left.swapaxes(0, 1)[real].tobytes()
    terminal = euler_terminal(model, paths)
    assert terminal.tobytes() == oracle.euler_terminal(model, first).tobytes()
    assert terminal.tobytes() == terminal_values(paths, values).tobytes()
