"""Error densities, cutoffs, and indicators against hand-traced values."""

import numpy as np
import pytest

from jumpmc import (
    ParameterError,
    SeedConfig,
    build_model,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc.density import cutoff_density_S, interval_sums, rho_per_step
from jumpmc.duals import backward_duals
from jumpmc.euler import euler_path
from jumpmc.jumps import (
    JumpRealization,
    build_augmented_grid,
    column_grid,
    intensity_integral_for,
)
from jumpmc.model import JumpDiffusionModel
from jumpmc.rng import keyed_streams

NO_JUMPS = JumpRealization(times=np.empty(0), marks=np.empty((0, 1)))


def scalar_drift_model():
    """d=1, a(t,x)=x, b=0, g(x)=x; one Euler step doubles X(0)=1."""

    def zeros(*shape):
        def f(t, x, *args):
            return np.zeros(shape)

        return f

    return JumpDiffusionModel(
        dim=1,
        wiener_dim=1,
        mark_dim=1,
        drift=lambda t, x: x.copy(),
        diffusion=zeros(1, 1),
        jump=zeros(1),
        intensity=lambda t: 0.0,
        intensity_bound=0.0,
        mark_sampler=lambda t, rng: np.zeros(1),
        payoff=lambda x: float(x[0]),
        drift_t=zeros(1),
        drift_x=lambda t, x: np.ones((1, 1)),
        drift_xx=zeros(1, 1, 1),
        drift_xxx=zeros(1, 1, 1, 1),
        diffusion_t=zeros(1, 1),
        diffusion_x=zeros(1, 1, 1),
        diffusion_xx=zeros(1, 1, 1, 1),
        diffusion_xxx=zeros(1, 1, 1, 1, 1),
        jump_x=zeros(1, 1),
        jump_xx=zeros(1, 1, 1),
        jump_xxx=zeros(1, 1, 1, 1),
        payoff_x=lambda x: np.ones(1),
        payoff_xx=lambda x: np.zeros((1, 1)),
        payoff_xxx=lambda x: np.zeros((1, 1, 1)),
        x0=np.array([1.0]),
        horizon=1.0,
        name="scalardrift",
    )


def single_step_path(model):
    grid = build_augmented_grid(uniform_mesh(1.0, 1), NO_JUMPS, horizon=1.0)
    return euler_path(model, grid, np.zeros((1, 1)))


def test_per_step_density_hand_trace():
    # At (t=0, X=1): da/dt = 0, a' a = 1, second order terms 0, so
    # rho_tilde(0) = 0.5 * 1 * phi(1-) = 0.5.
    m = scalar_drift_model()
    path = single_step_path(m)
    assert path.left_values[1, 0] == 2.0
    duals = backward_duals(m, path, order=3)
    rho = rho_per_step(m, path, duals)
    assert rho.shape == (1,)
    assert rho[0] == pytest.approx(0.5, rel=1e-15)


def test_per_interval_density_hand_trace():
    # rho(0) = 0.5 (a(1, 2) - a(0, 1)) . phi(1-) * dt / width^2 = 0.5; one
    # realization of the interval engine on the one-interval mesh, whose
    # total is rho(0) * width^2.  No noise and no jumps, so the seeds do
    # not matter.
    out = ctl.run_interval_batch(scalar_drift_model(), uniform_mesh(1.0, 1), SeedConfig(), 1)
    assert out["payoff"][0] == 2.0
    assert out["total"][0] == pytest.approx(0.5, rel=1e-15)


def constant_coefficient_model():
    zeros = lambda shape: (lambda t, x, *a: np.zeros(x.shape[:-1] + shape))
    m = build_model("test5")
    import dataclasses

    return dataclasses.replace(
        m,
        drift=lambda t, x: np.broadcast_to([0.3, -0.1], x.shape).copy(),
        drift_t=zeros((2,)),
        drift_x=zeros((2, 2)),
        drift_xx=zeros((2, 2, 2)),
        drift_xxx=zeros((2, 2, 2, 2)),
        diffusion=lambda t, x: np.broadcast_to(
            [[0.5], [0.2]], x.shape[:-1] + (2, 1)
        ).copy(),
        diffusion_t=zeros((2, 1)),
        diffusion_x=zeros((2, 1, 2)),
        diffusion_xx=zeros((2, 1, 2, 2)),
        diffusion_xxx=zeros((2, 1, 2, 2, 2)),
        name="constcoef",
    )


def test_constant_coefficients_zero_density():
    m = constant_coefficient_model()
    jumps = JumpRealization(times=np.array([0.4]), marks=np.array([[0.7]]))
    grid = build_augmented_grid(uniform_mesh(1.0, 4), jumps, horizon=1.0)
    rng = np.random.Generator(np.random.Philox(key=41))
    dw = rng.standard_normal((grid.n_steps, 1)) * np.sqrt(grid.dt)[:, None]
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=3)
    np.testing.assert_array_equal(rho_per_step(m, path, duals), 0.0)
    assert_zero_interval_density(m)


def assert_zero_interval_density(m):
    """The interval engine's totals are 0 on realizations with jumps."""
    det = uniform_mesh(1.0, 4)
    assert ctl.run_mesh_batch(m, det, SeedConfig(), 0, 20)["n_jumps"].any()
    np.testing.assert_array_equal(ctl.run_interval_batch(m, det, SeedConfig(), 20)["total"], 0.0)


def test_pure_jump_zero_density():
    m = build_model("purejump")
    jumps = JumpRealization(
        times=np.array([0.2, 0.6]), marks=np.array([[1.1], [-0.4]])
    )
    grid = build_augmented_grid(uniform_mesh(1.0, 5), jumps, horizon=1.0)
    path = euler_path(m, grid, np.zeros((grid.n_steps, 1)))
    duals = backward_duals(m, path, order=3)
    np.testing.assert_array_equal(rho_per_step(m, path, duals), 0.0)
    assert_zero_interval_density(m)


def test_density_order_requirements():
    m = scalar_drift_model()
    path = single_step_path(m)
    with pytest.raises(ParameterError):
        rho_per_step(m, path, backward_duals(m, path, order=2))


def test_density_grid_mismatch():
    m = scalar_drift_model()
    path = single_step_path(m)
    grid2 = build_augmented_grid(uniform_mesh(1.0, 2), NO_JUMPS, horizon=1.0)
    path2 = euler_path(m, grid2, np.zeros((2, 1)))
    duals2 = backward_duals(m, path2, order=3)
    with pytest.raises(ParameterError):
        rho_per_step(m, path, duals2)


def test_cutoff_frozen_values():
    assert cutoff_density_S(np.array([0.0]), 0.01)[0] == pytest.approx(
        0.5995, rel=1e-3
    )
    assert cutoff_density_S(np.array([0.0]), 0.01)[0] == 0.01 ** (1.0 / 9.0)
    assert cutoff_density_S(np.array([1e6]), 0.01)[0] == 100.0
    assert cutoff_density_S(np.array([-1.0]), 0.01)[0] == 1.0


def test_cutoff_tol_validation():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            cutoff_density_S(np.zeros(1), bad)


def test_cutoff_band_invariant_randomized():
    rng = np.random.Generator(np.random.Philox(key=53))
    for _ in range(50):
        tol = float(rng.uniform(1e-6, 0.5))
        rho = rng.standard_normal(20) * 10.0 ** rng.integers(-9, 9)
        out = cutoff_density_S(rho, tol)
        assert np.all(out >= tol ** (1.0 / 9.0)) and np.all(out <= 1.0 / tol)


def _interval_cutoff(rho, grid, tol):
    """The per-interval refinement density of one path's per-step rho:
    interval sums of rho dt^2 over the squared widths, clamped."""
    widths = np.diff(grid.det_times)
    sums = interval_sums((rho * grid.dt ** 2)[None], grid.times[None], grid.det_times)[0]
    return sums, cutoff_density_S(sums / widths ** 2, tol)


def test_interval_aggregation_example():
    # Coarse step 0.2 holding substeps 0.1/0.1 with rho 3 and 5:
    # |0.01*3 + 0.01*5| / 0.04 = 2, inside the clamp band.
    det = np.array([0.0, 0.2])
    jumps = JumpRealization(times=np.array([0.1]), marks=np.array([[0.0]]))
    grid = build_augmented_grid(det, jumps, horizon=0.2)
    np.testing.assert_allclose(grid.dt, [0.1, 0.1])
    sums, out = _interval_cutoff(np.array([3.0, 5.0]), grid, 0.01)
    assert sums[0] == pytest.approx(0.08, rel=1e-14)
    assert out[0] == pytest.approx(2.0, rel=1e-14)
    # Signed aggregation keeps the sign; the clamp takes the magnitude.
    sums, out = _interval_cutoff(np.array([-3.0, -5.0]), grid, 0.01)
    assert sums[0] == pytest.approx(-0.08, rel=1e-14)
    assert out[0] == pytest.approx(2.0, rel=1e-14)


def test_interval_cutoff_matches_step_cutoff_without_jumps():
    grid = build_augmented_grid(uniform_mesh(1.0, 4), NO_JUMPS, horizon=1.0)
    rng = np.random.Generator(np.random.Philox(key=67))
    for _ in range(10):
        rho = rng.standard_normal(4) * 3.0
        np.testing.assert_allclose(
            _interval_cutoff(rho, grid, 0.02)[1],
            cutoff_density_S(rho, 0.02),
            rtol=1e-13,
        )


def reference_rho_per_interval(m, path, duals):
    """The one-row interval density as computed before it was batched:
    rows-first stacks, d = b b^T / 2 by matmul.  Independent of
    ``density.rho_interval_batch``."""
    grid = path.grid

    def coefficients(times, values):
        return np.asarray(m.drift(times, values)), np.asarray(m.diffusion(times, values))

    a_lo, b_lo = coefficients(grid.times[:-1], path.values[:-1])
    a_hi, b_hi = coefficients(grid.times[1:], path.left_values[1:])

    def dd_of(b):
        return 0.5 * b @ np.swapaxes(b, -1, -2)

    step_sum = np.einsum("nk,nk->n", a_hi - a_lo, duals.phi_left[1:]) + np.einsum(
        "nkm,nkm->n", dd_of(b_hi) - dd_of(b_lo), duals.phi1_left[1:]
    )
    widths = np.diff(grid.det_times)
    acc = interval_sums((step_sum * grid.dt)[None], grid.times[None], grid.det_times)[0]
    return 0.5 * acc / widths ** 2


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_interval_totals_match_the_one_row_pipeline(monkeypatch, workers):
    # --density rhodef: the batched chunks (three of them here, so
    # workers=2 runs a pool) against the per-realization pipeline the CLI
    # ran before, bit for bit.
    monkeypatch.setattr(ctl, "MESH_CHUNK", 40)
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    totals = ctl.run_interval_batch(m, det, SeedConfig(), 100, workers=workers)["total"]
    rows = {}
    chunk_rows, paths, _, collisions = ctl._setup_paths(
        m, det, keyed_streams(SeedConfig()), 0, 100, intensity_integral_for(m)
    )
    for b, row in enumerate(chunk_rows.tolist()):
        rows[row] = column_grid(paths, b, det, collisions[b]), paths.dw[: paths.n_steps[b], b]
    widths = np.diff(det)
    for i in range(100):
        grid, dw = rows[i]
        path = euler_path(m, grid, dw)
        rho = reference_rho_per_interval(m, path, backward_duals(m, path, order=3))
        assert totals[i] == float(np.sum(rho * widths ** 2))
