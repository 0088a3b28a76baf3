"""Chunk-size invariance of both engines (property test).

Realizations are set up a chunk at a time from counter-based words, and
the per-realization engine refines them in blocks; neither the chunk
sizes nor the first index may change any output bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
    start=st.integers(0, 10**6),
    n=st.sampled_from([5, 40]),
    want_density=st.booleans(),
)
def test_mesh_batch_does_not_depend_on_chunking(chunk, start, n, want_density):
    det = uniform_mesh(1.0, n)
    kw = dict(tol=0.05, want_density=want_density)
    want = run_mesh_batch(MODEL, det, SEEDS, start, 300, **kw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctl, "MESH_CHUNK", chunk)
        got = run_mesh_batch(MODEL, det, SEEDS, start, 300, **kw)
    assert_same(got, want)
    # each realization's rows are the same when the range starts later
    later = run_mesh_batch(MODEL, det, SEEDS, start + 100, 200, **kw)
    assert_same(later, {key: value[100:] for key, value in want.items()})


@settings(max_examples=8, deadline=None)
@given(chunk=st.integers(1, 70), block=st.integers(1, 70), start=st.integers(0, 10**6))
def test_stochastic_batch_does_not_depend_on_chunking(chunk, block, start):
    det = uniform_mesh(1.0, 5)
    want = run_stochastic_batch(MODEL, det, SEEDS, start, 60, **STOCH)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ctl, "STOCH_CHUNK", chunk)
        patch.setattr(ctl, "STOCH_BLOCK", block)
        got = run_stochastic_batch(MODEL, det, SEEDS, start, 60, **STOCH)
    assert_same(got, want)
