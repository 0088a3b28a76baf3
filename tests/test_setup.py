"""The batched realization set-up against the one-row pieces it replaces.

The reference draws each realization on its own, as the engines did
before the set-up was batched: new generators from
``realization_streams``, ``sample_jumps``, ``build_augmented_grid`` and
``sample_wiener_increments`` per realization, then ``stack_paths`` per
step count into the kernel.  The mesh engine must match it bit for bit
(the per-realization engine is checked against its own one-row reference
in ``test_controller``).
"""

from dataclasses import replace

import numpy as np
import pytest

from jumpmc import (
    SeedConfig,
    build_model,
    run_mesh_batch,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc.density import cutoff_density_S, interval_sums
from jumpmc.euler import sample_wiener_increments, stack_paths
from jumpmc.jumps import build_augmented_grid, intensity_integral_for, sample_jumps
from jumpmc.model import as_vectorized
from jumpmc.rng import realization_streams


def reference_mesh_batch(model, det, seeds, start, count, tol=None, want_density=False):
    model = as_vectorized(model)
    integral = intensity_integral_for(model)
    groups = {}
    for i in range(start, start + count):
        w_rng, t_rng, z_rng = realization_streams(seeds, i)
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
    "n, start, count, want_density, vectorized",
    [
        pytest.param(5, 0, 500, True, True, id="N5-density"),
        pytest.param(40, 0, 200, False, True, id="N40-forward"),
        pytest.param(5, 0, 100, True, False, id="N5-density-row-loop"),
        pytest.param(5, 1000, 200, True, True, id="N5-density-start1000"),
    ],
)
def test_mesh_batch_matches_one_row_setup(n, start, count, want_density, vectorized):
    m = replace(build_model("test5"), vectorized=vectorized)
    det = uniform_mesh(1.0, n)
    kw = dict(tol=0.05, want_density=want_density)
    got = run_mesh_batch(m, det, SeedConfig(), start, count, **kw)
    want = reference_mesh_batch(m, det, SeedConfig(), start, count, **kw)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)

