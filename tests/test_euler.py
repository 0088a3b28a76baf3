"""Euler stepping, left limits, and Brownian-bridge refinement."""

from dataclasses import replace

import numpy as np
import pytest

from jumpmc import (
    ParameterError,
    PathDivergenceError,
    RefinementDepthError,
    SeedConfig,
    build_model,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc.euler import (
    bridge_split,
    brownian_bridge_refine,
    euler_batch,
    euler_path,
    euler_terminal,
    sample_wiener_increments,
)
from jumpmc.jumps import JumpRealization, build_augmented_grid, intensity_integral_for
from jumpmc.model import JumpDiffusionModel, as_vectorized
from jumpmc.rng import keyed_streams

from rows_first_forward import setup_groups, with_jumps

NO_JUMPS = JumpRealization(times=np.empty(0), marks=np.empty((0, 1)))


def toy_model(drift=None, diffusion=None, jump=None, x0=(0.0,)):
    """One-dimensional model with pluggable coefficients, zero by default."""
    d = len(x0)

    def zero_drift(t, x):
        return np.zeros(d)

    def zero_diffusion(t, x):
        return np.zeros((d, 1))

    def add_mark(t, x, z):
        return np.full(d, z[0])

    return JumpDiffusionModel(
        dim=d,
        wiener_dim=1,
        mark_dim=1,
        drift=drift or zero_drift,
        diffusion=diffusion or zero_diffusion,
        jump=jump or add_mark,
        intensity=lambda t: 0.0,
        intensity_bound=0.0,
        mark_sampler=lambda t, rng: np.zeros(1),
        payoff=lambda x: float(np.sum(x)),
        x0=np.asarray(x0, float),
        horizon=1.0,
        name="toy",
    )


def plain_grid(n):
    return build_augmented_grid(uniform_mesh(1.0, n), NO_JUMPS, horizon=1.0)


def test_constant_drift_is_exact():
    m = toy_model(drift=lambda t, x: np.ones(1))
    grid = plain_grid(4)
    path = euler_path(m, grid, np.zeros((4, 1)))
    assert path.terminal[0] == pytest.approx(1.0, abs=0.0)
    np.testing.assert_array_equal(path.values, path.left_values)


def test_frozen_linear_sde_two_steps():
    # x0 = 1, a = x, b = 1, dt = 0.5, dw = (0.1, -0.2):
    #   x1 = 1 + 0.5 + 0.1 = 1.6;  x2 = 1.6 + 0.8 - 0.2 = 2.2
    m = toy_model(
        drift=lambda t, x: x.copy(),
        diffusion=lambda t, x: np.ones((1, 1)),
        x0=(1.0,),
    )
    grid = plain_grid(2)
    path = euler_path(m, grid, np.array([[0.1], [-0.2]]))
    np.testing.assert_allclose(path.values[:, 0], [1.0, 1.6, 2.2], rtol=1e-15)


def test_jump_node_keeps_left_limit():
    jumps = JumpRealization(times=np.array([0.5]), marks=np.array([[2.0]]))
    grid = build_augmented_grid(uniform_mesh(1.0, 1), jumps, horizon=1.0)
    m = toy_model()
    path = euler_path(m, grid, np.zeros((grid.n_steps, 1)))
    k = int(np.nonzero(grid.jump_index >= 0)[0][0])
    assert grid.times[k] == 0.5
    assert path.left_values[k, 0] == 0.0
    assert path.values[k, 0] == 2.0
    assert path.terminal[0] == 2.0


def test_jump_merged_into_initial_node():
    # A jump within the collision tolerance of t=0 lands on node 0 and is
    # applied before the first step.
    jumps = JumpRealization(times=np.array([1e-16]), marks=np.array([[3.0]]))
    grid = build_augmented_grid(uniform_mesh(1.0, 2), jumps, horizon=1.0)
    assert grid.jump_index[0] == 0 and grid.collisions == 1
    path = euler_path(toy_model(), grid, np.zeros((grid.n_steps, 1)))
    assert path.left_values[0, 0] == 0.0
    assert path.values[0, 0] == 3.0


def test_increment_shape_checked():
    m = toy_model()
    grid = plain_grid(3)
    with pytest.raises(ParameterError):
        euler_path(m, grid, np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        euler_path(m, grid, np.zeros((3, 2)))


def test_wiener_increment_moments():
    grid = plain_grid(4)  # dt = 0.25
    rng = np.random.Generator(np.random.Philox(key=11))
    draws = np.stack(
        [sample_wiener_increments(grid, rng, 1)[:, 0] for _ in range(20000)]
    )
    se_mean = np.sqrt(0.25 / 20000)
    assert np.all(np.abs(draws.mean(axis=0)) < 5 * se_mean)
    se_var = 0.25 * np.sqrt(2.0 / 20000)
    assert np.all(np.abs(draws.var(axis=0) - 0.25) < 5 * se_var)


def test_divergence_reports_step():
    def late_blowup(t, x):
        return np.array([1e200 if t >= 0.5 else 0.0])

    m = toy_model(drift=late_blowup)
    grid = plain_grid(4)
    with pytest.raises(PathDivergenceError) as exc:
        euler_path(m, grid, np.zeros((4, 1)))
    assert exc.value.step == 2


def test_non_finite_state_diverges():
    m = toy_model(drift=lambda t, x: np.array([np.nan]))
    grid = plain_grid(2)
    with pytest.raises(PathDivergenceError) as exc:
        euler_path(m, grid, np.zeros((2, 1)))
    assert exc.value.step == 0


def test_bridge_split_sums_bitwise():
    rng = np.random.Generator(np.random.Philox(key=23))
    for _ in range(1000):
        dt = float(rng.uniform(1e-9, 2.0))
        dw = rng.standard_normal(3) * np.sqrt(dt)
        first, second = bridge_split(dt, dw, rng)
        assert np.all(first + second == dw)


def test_bridge_split_midpoint_law():
    # For a unit step with fixed increment w, the first half is
    # N(w/2, 1/4) per channel.
    rng = np.random.Generator(np.random.Philox(key=37))
    w = np.array([0.8])
    firsts = np.array([bridge_split(1.0, w, rng)[0][0] for _ in range(100000)])
    se_mean = 0.5 / np.sqrt(100000)
    assert abs(firsts.mean() - 0.4) < 3 * se_mean
    se_var = 0.25 * np.sqrt(2.0 / 100000)
    assert abs(firsts.var() - 0.25) < 3 * se_var


def test_bridge_split_requires_positive_step():
    rng = np.random.Generator(np.random.Philox(key=1))
    with pytest.raises(ParameterError):
        bridge_split(0.0, np.zeros(1), rng)


def test_refine_nothing_is_identity():
    grid = plain_grid(3)
    dw = np.zeros((3, 1))
    rng = np.random.Generator(np.random.Philox(key=5))
    out_grid, out_dw = brownian_bridge_refine(grid, dw, np.zeros(3, bool), rng)
    assert out_grid is grid and out_dw is dw


def test_refine_bisects_selected_steps():
    grid = plain_grid(2)
    rng = np.random.Generator(np.random.Philox(key=7))
    dw = sample_wiener_increments(grid, rng, 1)
    refined, new_dw = brownian_bridge_refine(grid, dw, np.array([True, False]), rng)
    np.testing.assert_allclose(refined.times, [0.0, 0.25, 0.5, 1.0])
    assert refined.n_steps == 3
    # The midpoint is a new time, not a jump node.
    assert refined.times[1] not in grid.times and refined.jump_index[1] == -1
    # The split halves sum back to the original increment bitwise.
    assert np.all(new_dw[0] + new_dw[1] == dw[0])
    assert np.all(new_dw[2] == dw[1])
    # Deterministic mesh is untouched.
    np.testing.assert_array_equal(refined.det_times, grid.det_times)


def test_refine_rejects_bad_selectors():
    grid = plain_grid(3)
    dw = np.zeros((3, 1))
    rng = np.random.Generator(np.random.Philox(key=2))
    with pytest.raises(ParameterError):
        brownian_bridge_refine(grid, dw, np.zeros(2, bool), rng)
    with pytest.raises(ParameterError):  # step indices, not a mask
        brownian_bridge_refine(grid, dw, [0, 1, 2], rng)


def test_refine_rejects_increments_of_the_wrong_shape():
    grid = plain_grid(6)
    rng = np.random.Generator(np.random.Philox(key=2))
    for dw in (np.zeros((9, 1)), np.zeros((3, 1)), np.zeros(6), np.zeros((6, 1, 1))):
        with pytest.raises(ParameterError):
            brownian_bridge_refine(grid, dw, np.ones(6, bool), rng)


def test_refine_below_floor_raises():
    det = np.array([0.0, 2.0 ** -31, 1.0])
    grid = build_augmented_grid(det, NO_JUMPS, horizon=1.0)
    dw = np.zeros((2, 1))
    rng = np.random.Generator(np.random.Philox(key=3))
    with pytest.raises(RefinementDepthError):
        brownian_bridge_refine(grid, dw, np.array([True, False]), rng)
    # The wide step is still splittable.
    refined, _ = brownian_bridge_refine(grid, dw, np.array([False, True]), rng)
    assert refined.n_steps == 3


def test_jump_survives_refinement():
    jumps = JumpRealization(times=np.array([0.3]), marks=np.array([[1.5]]))
    grid = build_augmented_grid(uniform_mesh(1.0, 2), jumps, horizon=1.0)
    rng = np.random.Generator(np.random.Philox(key=4))
    dw = sample_wiener_increments(grid, rng, 1)
    refined, new_dw = brownian_bridge_refine(
        grid, dw, np.ones(grid.n_steps, bool), rng
    )
    k = int(np.nonzero(refined.jump_index >= 0)[0][0])
    assert refined.times[k] == 0.3
    assert refined.jump_index[k] == 0
    assert refined.n_steps == 2 * grid.n_steps
    # Total Wiener displacement is preserved bitwise.
    total = new_dw.sum(axis=0)
    assert np.all(np.abs(total - dw.sum(axis=0)) < 1e-15)


# ---------------------------------------------------------------------------
# the forward-only path (euler_terminal) against the full path


def _test5_groups(model, start, count):
    """(realizations, PathBatch) of each step-count group of test5's
    realizations [start, start+count) on 40 uniform steps."""
    model = as_vectorized(model)
    groups = setup_groups(model, uniform_mesh(1.0, 40), start, count)
    return model, [(start + rows, paths) for rows, paths, _ in groups]


def _divergent(name):
    """test5 whose drift leaves the bound (1e300, as ``diverging_model``)
    or turns NaN, below the bound, once x1 passes an edge."""
    base = build_model("test5")
    bad, edge = (1e300, 0.3) if name == "overflow" else (np.nan, 0.25)
    return replace(
        base, drift=lambda t, x: np.where(x[..., :1] > edge, bad, base.drift(t, x))
    )


# (step, realization) of each step-count group's PathDivergenceError for
# realizations 300-499, as the full-path kernel raised them before the
# forward-only path existed
DIVERGENCE_AT = {
    "overflow": {40: None, 41: (18, 451), 42: (29, 417), 43: (26, 369), 44: (28, 454)},
    "nan": {40: None, 41: (17, 451), 42: (28, 354), 43: (25, 369), 44: (26, 454)},
}


@pytest.mark.parametrize("name", sorted(DIVERGENCE_AT))
def test_forward_only_and_full_path_raise_the_same_divergence(name):
    model, groups = _test5_groups(_divergent(name), 300, 200)
    assert sorted(len(paths.dw) for _, paths in groups) == sorted(DIVERGENCE_AT[name])
    for rows, paths in groups:
        expected = DIVERGENCE_AT[name][len(paths.dw)]
        for forward in (euler_batch, euler_terminal):
            if expected is None:
                forward(model, paths, realizations=rows.tolist())
                continue
            step, which = expected
            t = paths.times[step + 1, list(rows).index(which)]
            with pytest.raises(PathDivergenceError) as exc:
                forward(model, paths, realizations=rows.tolist())
            assert type(exc.value) is PathDivergenceError
            assert (exc.value.step, exc.value.realization, str(exc.value)) == (
                step, which, f"path diverged at step {step} (t={t:g}, realization {which})"
            )


def test_forward_only_terminal_matches_the_full_path_with_edge_jumps():
    model, groups = _test5_groups(build_model("test5"), 0, 400)
    rows, paths = max(groups, key=lambda g: len(g[0]))
    # jumps at node 0 on every third row and at the last node on others
    first, last = range(0, len(rows), 3), range(1, len(rows), 3)
    edged = with_jumps(paths, [*first, *last], [0] * len(first) + [len(paths.dw)] * len(last), 0.7)
    values, left = euler_batch(model, edged, realizations=rows.tolist())
    terminal = euler_terminal(model, edged, realizations=rows.tolist())
    assert terminal.shape == values[-1].shape
    assert terminal.tobytes() == values[-1].tobytes()
    assert (values[0, ::3] != left[0, ::3]).any(axis=1).all()
    assert (values[-1, 1::3] != left[-1, 1::3]).any(axis=1).all()


def test_one_forward_pass_over_a_chunk_gives_the_per_group_payoffs():
    model = as_vectorized(build_model("test5"))
    det = uniform_mesh(1.0, 40)
    rows, paths, _, _ = ctl._setup_paths(
        model, det, keyed_streams(SeedConfig()), 0, 3000, intensity_integral_for(model)
    )
    groups = paths.by_step_count()
    assert len(groups) > 3
    whole, _ = ctl._path_batch(model, paths, rows.tolist(), False)
    for cols, n in groups:
        payoff, _ = ctl._path_batch(model, paths.take(cols), rows[cols].tolist(), False)
        assert payoff.tobytes() == whole[cols].tobytes()
    out = ctl.run_mesh_batch(model, det, SeedConfig(), 0, 3000)
    assert out["payoff"][rows].tobytes() == whole.tobytes()
