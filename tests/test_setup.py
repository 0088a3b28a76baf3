"""The batched realization set-up against the one-row pieces it replaces.

The reference draws each realization on its own, as the engines did
before the set-up was batched: the row streams of ``keyed_oracle``
(``engine_streams``), ``sample_jumps``, ``build_augmented_grid`` and
``sample_wiener_increments`` per realization, then ``stack_paths`` per
step count into the kernel.  The mesh engine must match it bit for bit
(the per-realization engine is checked against its own one-row reference
in ``test_controller``).
"""

import tracemalloc
from dataclasses import replace

import keyed_oracle as oracle
import numpy as np
import pytest

from jumpmc import (
    SeedConfig,
    build_model,
    run_mesh_batch,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc import rng
from jumpmc.density import cutoff_density_S, interval_sums
from jumpmc.euler import sample_wiener_increments, stack_paths
from jumpmc.jumps import build_augmented_grid, intensity_integral_for, sample_jumps
from jumpmc.model import as_vectorized
from jumpmc.rng import keyed_streams


def reference_mesh_batch(model, det, seeds, start, count, tol=None, want_density=False):
    model = as_vectorized(model)
    integral = intensity_integral_for(model)
    groups = {}
    for i in range(start, start + count):
        w_rng, t_rng, z_rng = oracle.engine_streams(model, seeds, i)
        jumps = sample_jumps(model, integral, t_rng, z_rng)
        grid = build_augmented_grid(det, jumps, horizon=model.horizon)
        dw = sample_wiener_increments(grid, w_rng, model.wiener_dim)
        groups.setdefault(grid.n_steps, []).append((i, grid, dw))
    out = {
        "payoff": np.empty(count),
        "n_a": np.empty(count, dtype=np.intp),
        "n_jumps": np.empty(count, dtype=np.intp),
        "collisions": np.empty(count, dtype=np.intp),
    }
    if want_density:
        out["signed_interval"] = np.empty((count, len(det) - 1))
        out["r"] = np.empty((count, len(det) - 1))
        out["signed_total"] = np.empty(count)
    widths = np.diff(det)
    for n_steps in sorted(groups):
        index = [i for i, _, _ in groups[n_steps]]
        grids = [g for _, g, _ in groups[n_steps]]
        paths = stack_paths(model, grids, [w for _, _, w in groups[n_steps]])
        payoff, rho = ctl._path_batch(model, paths, index, want_density)
        slots = np.array(index) - start
        out["payoff"][slots] = payoff
        out["n_a"][slots] = n_steps
        out["n_jumps"][slots] = [g.n_jumps for g in grids]
        out["collisions"][slots] = [g.collisions for g in grids]
        if want_density:
            contrib = rho * paths.dt(slice(None), n_steps) ** 2
            signed = interval_sums(contrib, paths.times.T, det)
            out["signed_interval"][slots] = signed
            out["r"][slots] = cutoff_density_S(signed / widths ** 2, tol) * widths ** 2
            out["signed_total"][slots] = contrib.sum(axis=1)
    return out


@pytest.mark.parametrize(
    "n, start, count, want_density, vectorized, slab",
    [
        pytest.param(5, 0, 500, True, True, None, id="N5-density"),
        pytest.param(40, 0, 200, False, True, None, id="N40-forward"),
        pytest.param(5, 0, 100, True, False, None, id="N5-density-row-loop"),
        pytest.param(5, 1000, 200, True, True, None, id="N5-density-start1000"),
        # every row has at least 5 normals, so no two rows of 6 share a
        # slab and a row of 7 or more is alone over the bound
        pytest.param(5, 0, 300, True, True, 11, id="N5-density-one-row-slabs"),
        # some 9 rows a slab, spanning the step-count groups
        pytest.param(40, 1000, 200, False, True, 400, id="N40-forward-slabs"),
    ],
)
def test_mesh_batch_matches_one_row_setup(
    monkeypatch, n, start, count, want_density, vectorized, slab
):
    if slab is not None:
        monkeypatch.setattr(rng, "CALL_DRAWS", slab)
    m = replace(build_model("test5"), vectorized=vectorized)
    det = uniform_mesh(1.0, n)
    kw = dict(tol=0.05, want_density=want_density)
    got = run_mesh_batch(m, det, SeedConfig(), start, count, **kw)
    want = reference_mesh_batch(m, det, SeedConfig(), start, count, **kw)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)



def test_setup_holds_one_slab_of_normals_at_a_time(monkeypatch):
    # The Wiener normals are drawn a slab of rows at a time and scaled
    # into the increments, so beyond what it keeps the set-up holds one
    # slab's transients (the draw's words, slack words, fast-path values
    # and index: about six times its normals) and the chunk's jumps.  One
    # draw of the chunk's 1.3 MiB of normals held about 2.4 times them.
    monkeypatch.setattr(rng, "CALL_DRAWS", 1 << 12)
    model = build_model("test5")
    args = (model, uniform_mesh(1.0, 40), keyed_streams(SeedConfig()), 0, 4096,
            intensity_integral_for(model))
    ctl._setup_paths(*args)
    tracemalloc.start()
    try:
        rows, paths, n_jumps, collisions = ctl._setup_paths(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (rows, n_jumps, collisions, paths.times, paths.dw,
                                  paths.jump_flag, paths.marks, paths.n_steps))
    assert peak - kept <= 16 * 8 * rng.CALL_DRAWS < paths.n_steps.sum() * 8 / 2
