"""Marks of any dimension take the one quantile path.

A model's mark law is a ``UniformMarks`` quantile of ``mark_dim``
uniforms per jump.  The chunk's marks must be the one-row
``sample_marks`` draws on the row streams of ``keyed_oracle``, bit for
bit, and a run must not depend on the chunk size.
"""

import keyed_oracle as oracle
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import (  # noqa: E402
    JumpDiffusionModel,
    SeedConfig,
    UniformMarks,
    run_mesh_batch,
    uniform_mesh,
)
from jumpmc import controller as ctl  # noqa: E402
from jumpmc.jumps import intensity_integral_for, sample_jump_chunk, sample_jumps  # noqa: E402
from jumpmc.rng import keyed_streams  # noqa: E402


def nested_quantile(t, u):
    """Conditional quantiles on R^q: z_1 is uniform on [0, 1 + t], and
    each later entry is uniform on [0, the entry before it]."""
    return (1.0 + t)[:, None] * np.cumprod(u, axis=1)


def mark_model(mark_dim):
    """A scalar jump diffusion whose jumps add the sum of their
    ``mark_dim`` marks; no closed integrated intensity, so the table."""
    return JumpDiffusionModel(
        dim=1,
        wiener_dim=1,
        mark_dim=mark_dim,
        drift=lambda t, x: -0.5 * x,
        diffusion=lambda t, x: np.full(x.shape + (1,), 0.3),
        jump=lambda t, x, z: z.sum(axis=-1, keepdims=True) - 0.5 * x,
        intensity=lambda t: 2.0 / (1.0 + t),
        intensity_bound=2.0,
        mark_sampler=UniformMarks(nested_quantile),
        payoff=lambda x: x[..., 0] ** 2,
        x0=[0.25],
        vectorized=True,
        name=f"marks{mark_dim}",
    )


mark_dims = st.sampled_from([1, 2, 3])


@settings(max_examples=12, deadline=None)
@given(mark_dim=mark_dims, start=st.integers(0, 10**9), count=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1))
def test_chunk_marks_are_the_one_row_marks(mark_dim, start, count, seed):
    model = mark_model(mark_dim)
    integral = intensity_integral_for(model)
    seeds = SeedConfig(jump_times=seed, marks=seed)
    rows = range(start, start + count)
    n_jumps, times, marks = sample_jump_chunk(model, integral, *keyed_streams(seeds)[1:], rows)
    assert marks.shape == (len(times), mark_dim)
    at = 0
    for i, n in zip(rows, n_jumps.tolist()):
        one = sample_jumps(model, integral, *oracle.row_streams(seeds, i)[1:])
        np.testing.assert_array_equal(times[at:at + n], one.times)
        np.testing.assert_array_equal(marks[at:at + n], one.marks)
        at += n
    assert at == len(times)


@settings(max_examples=6, deadline=None)
@given(mark_dim=mark_dims, start=st.integers(0, 10**9))
def test_a_run_does_not_depend_on_the_chunk(mark_dim, start):
    model, det = mark_model(mark_dim), uniform_mesh(1.0, 4)
    runs = []
    for chunk in (1, 7, ctl.MESH_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctl, "MESH_CHUNK", chunk)
            runs.append(run_mesh_batch(model, det, SeedConfig(), start, 30))
    assert runs[0]["n_jumps"].sum() > 0
    for run in runs[1:]:
        assert run.keys() == runs[0].keys()
        for key in run:
            np.testing.assert_array_equal(run[key], runs[0][key])
