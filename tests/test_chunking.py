"""Chunk-size invariance of both engines (property test).

Realizations are set up a chunk at a time from counter-based words,
both engines run the density kernel on blocks bounded in steps, and the
density layer takes a block's steps a slice at a time; neither the chunk
sizes, the block budgets, the slice nor the first index may change any
output bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import (  # noqa: E402
    SeedConfig,
    build_model,
    run_mesh_batch,
    run_stochastic_batch,
    split_tolerance,
    uniform_mesh,
)
from jumpmc import controller as ctl  # noqa: E402
from jumpmc import density  # noqa: E402

MODEL = build_model("test5")
SEEDS = SeedConfig(wiener=11, jump_times=12, marks=13)
STOCH = dict(tol=0.04, tol_t=split_tolerance(0.04).time, n_a_bar=5.0)


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@settings(max_examples=15, deadline=None)
@given(
    chunk=st.integers(1, 400),
    block=st.integers(1, 4000),
    start=st.integers(0, 10**6),
    n=st.sampled_from([5, 40]),
    want_density=st.booleans(),
    steps=st.integers(1, 2000),
)
@example(chunk=300, block=4, start=0, n=5, want_density=True, steps=2000)
def test_mesh_batch_does_not_depend_on_chunking(chunk, block, start, n, want_density, steps):
    # a block budget below every row's step count (each row has at least
    # n) makes one-row blocks
    det = uniform_mesh(1.0, n)
    kw = dict(tol=0.05, want_density=want_density)
    want = run_mesh_batch(MODEL, det, SEEDS, start, 300, **kw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctl, "MESH_CHUNK", chunk)
        patch.setattr(ctl, "MESH_BLOCK_STEPS", block)
        patch.setattr(density, "DENSITY_SLICE", steps)
        got = run_mesh_batch(MODEL, det, SEEDS, start, 300, **kw)
    assert_same(got, want)
    # each realization's rows are the same when the range starts later
    later = run_mesh_batch(MODEL, det, SEEDS, start + 100, 200, **kw)
    assert_same(later, {key: value[100:] for key, value in want.items()})


def test_mesh_batch_rows_do_not_depend_on_the_batch_size():
    # rows with one inserted jump node once had columns-first grids, and
    # numpy chose the order of their signed totals' sums by the size of
    # their step-count group: 28 of these 200 rows changed at 4000 rows
    det = uniform_mesh(1.0, 40)
    kw = dict(tol=0.05, want_density=True)
    few = run_mesh_batch(MODEL, det, SEEDS, 0, 200, **kw)
    many = run_mesh_batch(MODEL, det, SEEDS, 0, 4000, **kw)
    assert_same(few, {key: value[:200] for key, value in many.items()})


@settings(max_examples=8, deadline=None)
@given(
    chunk=st.integers(1, 70),
    block=st.integers(1, 400),
    start=st.integers(0, 10**6),
    steps=st.integers(1, 400),
)
def test_stochastic_batch_does_not_depend_on_chunking(chunk, block, start, steps):
    # a budget below a row's step count makes one-row blocks
    det = uniform_mesh(1.0, 5)
    want = run_stochastic_batch(MODEL, det, SEEDS, start, 60, **STOCH)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctl, "STOCH_CHUNK", chunk)
        patch.setattr(ctl, "STOCH_BLOCK_STEPS", block)
        patch.setattr(density, "DENSITY_SLICE", steps)
        got = run_stochastic_batch(MODEL, det, SEEDS, start, 60, **STOCH)
    assert_same(got, want)
