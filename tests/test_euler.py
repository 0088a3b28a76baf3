"""Euler stepping, left limits, and Brownian-bridge refinement."""

import numpy as np
import pytest

from jumpmc import (
    ParameterError,
    PathDivergenceError,
    RefinementDepthError,
    bridge_split,
    brownian_bridge_refine,
    build_augmented_grid,
    euler_path,
    no_jumps,
    sample_wiener_increments,
    uniform_mesh,
)
from jumpmc.jumps import JumpRealization
from jumpmc.model import JumpDiffusionModel


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
    return build_augmented_grid(uniform_mesh(1.0, n), no_jumps(), horizon=1.0)


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
    refined, new_dw = brownian_bridge_refine(grid, dw, [0], rng)
    np.testing.assert_allclose(refined.times, [0.0, 0.25, 0.5, 1.0])
    assert refined.n_steps == 3
    # New midpoint is neither deterministic nor a jump node.
    assert not refined.is_det[1] and refined.jump_index[1] == -1
    # The split halves sum back to the original increment bitwise.
    assert np.all(new_dw[0] + new_dw[1] == dw[0])
    assert np.all(new_dw[2] == dw[1])
    # Deterministic mesh is untouched.
    np.testing.assert_array_equal(refined.det_times, grid.det_times)


def test_refine_accepts_index_and_mask_forms():
    grid = plain_grid(4)
    rng = np.random.Generator(np.random.Philox(key=9))
    dw = sample_wiener_increments(grid, rng, 1)
    mask = np.array([True, False, True, False])
    g1, d1 = brownian_bridge_refine(
        grid, dw, mask, np.random.Generator(np.random.Philox(key=10))
    )
    g2, d2 = brownian_bridge_refine(
        grid, dw, [0, 2], np.random.Generator(np.random.Philox(key=10))
    )
    np.testing.assert_array_equal(g1.times, g2.times)
    np.testing.assert_array_equal(d1, d2)


def test_refine_rejects_bad_selectors():
    grid = plain_grid(3)
    dw = np.zeros((3, 1))
    rng = np.random.Generator(np.random.Philox(key=2))
    with pytest.raises(ParameterError):
        brownian_bridge_refine(grid, dw, [3], rng)
    with pytest.raises(ParameterError):
        brownian_bridge_refine(grid, dw, np.zeros(2, bool), rng)


def test_refine_rejects_increments_of_the_wrong_shape():
    grid = plain_grid(6)
    rng = np.random.Generator(np.random.Philox(key=2))
    for dw in (np.zeros((9, 1)), np.zeros((3, 1)), np.zeros(6), np.zeros((6, 1, 1))):
        with pytest.raises(ParameterError):
            brownian_bridge_refine(grid, dw, [0], rng)


def test_refine_below_floor_raises():
    det = np.array([0.0, 2.0 ** -31, 1.0])
    grid = build_augmented_grid(det, no_jumps(), horizon=1.0)
    dw = np.zeros((2, 1))
    rng = np.random.Generator(np.random.Philox(key=3))
    with pytest.raises(RefinementDepthError):
        brownian_bridge_refine(grid, dw, [0], rng)
    # The wide step is still splittable.
    refined, _ = brownian_bridge_refine(grid, dw, [1], rng)
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
