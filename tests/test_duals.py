"""Dual weight recursion against frozen values and finite differences."""

import numpy as np
import pytest

from jumpmc import (
    CapabilityError,
    ParameterError,
    SeedConfig,
    build_model,
    uniform_mesh,
)
from jumpmc.density import rho_per_step
from jumpmc.duals import (
    _euler_map_callbacks,
    _stack_calls,
    backward_duals,
    euler_map_derivatives,
    jump_map_derivatives,
)
from jumpmc.euler import euler_path, sample_wiener_increments
from jumpmc.jumps import (
    JumpRealization,
    build_augmented_grid,
    intensity_integral_for,
    sample_jumps,
)
from jumpmc.model import JumpDiffusionModel, UniformMarks, as_vectorized
from jumpmc.rng import realization_streams

NO_JUMPS = JumpRealization(times=np.empty(0), marks=np.empty((0, 1)))


def linear_model(rate=2.0, payoff_quadratic=True):
    """a = rate * x, b = 1, no jumps; duals have closed products."""

    def drift(t, x):
        return rate * x

    def diffusion(t, x):
        return np.ones((1, 1))

    return JumpDiffusionModel(
        dim=1,
        wiener_dim=1,
        mark_dim=1,
        drift=drift,
        diffusion=diffusion,
        jump=lambda t, x, z: np.zeros(1),
        intensity=lambda t: 0.0,
        intensity_bound=0.0,
        mark_sampler=UniformMarks(lambda t, u: np.zeros_like(u)),
        payoff=lambda x: float(x[0] ** 2),
        drift_t=lambda t, x: np.zeros(1),
        drift_x=lambda t, x: np.array([[rate]]),
        drift_xx=lambda t, x: np.zeros((1, 1, 1)),
        drift_xxx=lambda t, x: np.zeros((1, 1, 1, 1)),
        diffusion_t=lambda t, x: np.zeros((1, 1)),
        diffusion_x=lambda t, x: np.zeros((1, 1, 1)),
        diffusion_xx=lambda t, x: np.zeros((1, 1, 1, 1)),
        diffusion_xxx=lambda t, x: np.zeros((1, 1, 1, 1, 1)),
        jump_x=lambda t, x, z: np.zeros((1, 1)),
        jump_xx=lambda t, x, z: np.zeros((1, 1, 1)),
        jump_xxx=lambda t, x, z: np.zeros((1, 1, 1, 1)),
        payoff_x=lambda x: 2.0 * x,
        payoff_xx=lambda x: 2.0 * np.eye(1),
        payoff_xxx=lambda x: np.zeros((1, 1, 1)),
        x0=np.array([1.0]),
        horizon=1.0,
        name="linear",
    )


def frozen_test5_path(n=4, key=314, with_jumps=True):
    m = build_model("test5")
    if with_jumps:
        jumps = JumpRealization(
            times=np.array([0.3, 0.7]), marks=np.array([[0.8], [-0.6]])
        )
    else:
        jumps = NO_JUMPS
    grid = build_augmented_grid(uniform_mesh(1.0, n), jumps, horizon=1.0)
    rng = np.random.Generator(np.random.Philox(key=key))
    dw = sample_wiener_increments(grid, rng, m.wiener_dim)
    return m, grid, dw


def test_euler_operator_jacobian_frozen():
    # a = 2x, b = 0 noise: A = x + 2x dt, so dA/dx = 1 + 2 * 0.05 = 1.1.
    # One point, stacked as the kernel stacks a one-step row.
    m = as_vectorized(linear_model(rate=2.0))
    cb = _stack_calls(
        m, _euler_map_callbacks(3), np.zeros((1, 1)), np.array([[[3.0]]]), running=[1]
    )
    A1, A2, A3 = euler_map_derivatives(cb, np.array([0.05]), np.zeros((1, 1)), order=3)
    assert A1[0, 0, 0] == pytest.approx(1.1, rel=1e-15)
    assert np.all(A2 == 0.0) and np.all(A3 == 0.0)


def test_euler_operator_includes_noise_term():
    m = build_model("test5")
    x = np.array([0.4, -0.2])
    cb = _stack_calls(m, _euler_map_callbacks(1), np.zeros((1, 1)), x[None, None], running=[1])
    A1, A2, A3 = euler_map_derivatives(cb, np.array([0.1]), np.array([[0.25]]), order=1)
    assert A2 is None and A3 is None
    expect = np.eye(2) + 0.1 * m.drift_x(0.0, x) + 0.25 * m.diffusion_x(0.0, x)[:, 0, :]
    np.testing.assert_allclose(A1[..., 0], expect, rtol=1e-14)


def test_jump_operator_frozen_second_derivative():
    # c2 = z cos(x1)/sqrt(1+t) - x2 at t=0.5, x=(0,3), z=1:
    # d2 c2 / dx1 dx1 = -cos(0)/sqrt(1.5).
    m = build_model("test5")
    cb = _stack_calls(
        m, ["jump_x", "jump_xx", "jump_xxx"], np.array([[0.5]]),
        np.array([[[0.0, 3.0]]]), np.array([[[1.0]]]), running=[1],
    )
    C1, C2, C3 = (c[..., 0] for c in jump_map_derivatives(cb, order=3))
    np.testing.assert_allclose(C1, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert C2[1, 0, 0] == pytest.approx(-1.0 / np.sqrt(1.5), rel=1e-14)
    assert C3[1, 0, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_linear_model_closed_form_duals():
    # One step of size dt multiplies phi by (1 + rate dt); phi' picks up
    # the square of the same factor.
    m = linear_model(rate=2.0)
    grid = build_augmented_grid(uniform_mesh(1.0, 5), NO_JUMPS, horizon=1.0)
    dw = np.zeros((5, 1))
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=2)
    x_T = path.terminal[0]
    factor = 1.0 + 2.0 * 0.2
    for n in range(6):
        expect_phi = 2.0 * x_T * factor ** (5 - n)
        assert duals.phi[n, 0] == pytest.approx(expect_phi, rel=1e-13)
        assert duals.phi1[n, 0, 0] == pytest.approx(
            2.0 * factor ** (2 * (5 - n)), rel=1e-13
        )


def test_terminal_duals_are_payoff_derivatives():
    m, grid, dw = frozen_test5_path()
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=3)
    x_T = path.terminal
    np.testing.assert_allclose(duals.phi[-1], 2.0 * x_T, rtol=1e-15)
    np.testing.assert_allclose(duals.phi1[-1], 2.0 * np.eye(2), rtol=1e-15)
    np.testing.assert_allclose(duals.phi2[-1], np.zeros((2, 2, 2)), atol=1e-15)


def payoff_from(m, grid, dw, x0):
    return float(m.payoff(euler_path(m, grid, dw, x0=x0).terminal))


def test_first_order_duals_match_finite_differences():
    m, grid, dw = frozen_test5_path()
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=1)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (
            payoff_from(m, grid, dw, m.x0 + e) - payoff_from(m, grid, dw, m.x0 - e)
        ) / (2.0 * h)
        assert fd == pytest.approx(duals.phi_left[0, j], rel=1e-4, abs=1e-8)


def test_second_order_duals_match_finite_differences():
    m, grid, dw = frozen_test5_path()
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=2)
    h = 1e-4
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = h
            ej[j] = h
            fd = (
                payoff_from(m, grid, dw, m.x0 + ei + ej)
                - payoff_from(m, grid, dw, m.x0 + ei - ej)
                - payoff_from(m, grid, dw, m.x0 - ei + ej)
                + payoff_from(m, grid, dw, m.x0 - ei - ej)
            ) / (4.0 * h * h)
            assert fd == pytest.approx(duals.phi1_left[0, i, j], rel=1e-3, abs=1e-6)


def test_duals_symmetry_randomized():
    # phi' is a Hessian and phi'' a third derivative of the same scalar
    # map, so both are symmetric in their derivative axes.
    for key in range(8):
        m, grid, dw = frozen_test5_path(n=3, key=1000 + key)
        path = euler_path(m, grid, dw)
        duals = backward_duals(m, path, order=3)
        for arr in (duals.phi1, duals.phi1_left):
            assert np.max(np.abs(arr - arr.transpose(0, 2, 1))) <= 1e-12
        for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
            assert np.max(np.abs(duals.phi2 - duals.phi2.transpose(*perm))) <= 1e-12


def test_zero_jump_map_passes_duals_through():
    # c == 0 makes the jump block the identity, so left limits equal node
    # values even at jump nodes.
    m = linear_model()
    jumps = JumpRealization(times=np.array([0.5]), marks=np.array([[1.0]]))
    grid = build_augmented_grid(uniform_mesh(1.0, 2), jumps, horizon=1.0)
    dw = np.zeros((grid.n_steps, 1))
    path = euler_path(m, grid, dw)
    duals = backward_duals(m, path, order=2)
    np.testing.assert_array_equal(duals.phi, duals.phi_left)
    np.testing.assert_array_equal(duals.phi1, duals.phi1_left)


def test_order_validation_and_capability():
    m, grid, dw = frozen_test5_path()
    path = euler_path(m, grid, dw)
    with pytest.raises(ParameterError):
        backward_duals(m, path, order=4)
    import dataclasses

    # test5 declares drift_xx zero, so it may be omitted; diffusion_xx may not
    crippled = dataclasses.replace(build_model("test5"), diffusion_xx=None)
    with pytest.raises(CapabilityError, match="diffusion_xx"):
        backward_duals(crippled, path, order=2)
    # Order 1 does not need the missing callback.
    backward_duals(crippled, path, order=1)


def test_higher_arrays_none_below_order():
    m, grid, dw = frozen_test5_path()
    path = euler_path(m, grid, dw)
    d1 = backward_duals(m, path, order=1)
    assert d1.phi1 is None and d1.phi2 is None
    d2 = backward_duals(m, path, order=2)
    assert d2.phi1 is not None and d2.phi2 is None


# Realizations 0-9 of test5 on the uniform N=5 mesh with SeedConfig():
# (sum of rho dt^2, phi_left[0], phi1_left[0]) from the earlier
# tensordot-based scalar dual sweep, an implementation independent of the
# batched einsum sweep that backward_duals now runs.
TENSORDOT_ORACLE = [
    (-0.030727552629985076, [-0.032807334073131314, 0.00357154821501302], [[4.20108828762883, -0.4573486325144964], [-0.4573486325144964, 0.049788949277459235]]),
    (-0.0004530543775717736, [0.0005421666684998827, -0.0007709462219714815], [[0.6632475698535093, -0.9431199627692342], [-0.9431199627692344, 1.3410908755689812]]),
    (-0.2840644043464369, [0.9564088001796013, -0.03670033536879295], [[-2.355654352107052, 0.09039367341564679], [0.0903936734156468, -0.003468682146116181]]),
    (-0.02337725298747778, [0.4010378585062365, -0.03676543412214637], [[0.2890066330780813, -0.0264948909533694], [-0.026494890953369404, 0.0024289381844093566]]),
    (0.0, [0.0, 0.0], [[0.18824263652846282, 0.9288261343588993], [0.9288261343588993, 4.9186839628440024]]),
    (0.0, [0.0, 0.0], [[7.165154361087346, 1.3484715798022444], [1.3484715798022446, 3.6404801626560666]]),
    (-0.05536553278621105, [-0.0939888941862602, 0.00023705487358147398], [[-0.07538303860515846, 0.0001901279597068132], [0.00019012795970681318, -4.795328197317046e-07]]),
    (0.0, [0.0, 0.0], [[1.5933201224400468, 1.0355153972562356], [1.0355153972562356, 4.464006514240343]]),
    (0.0, [0.0, 0.0], [[3.3255550958977333, -0.7385693682861554], [-0.7385693682861553, 6.232991600148772]]),
    (-0.4603344114231006, [1.7572116873041013, -0.2138900909343202], [[-6.719104537047644, 0.8178581390106657], [0.8178581390106657, -0.09955075588686982]]),
]


def test_duals_and_density_match_tensordot_oracle():
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    integral = intensity_integral_for(m)
    for i, (signed_total, phi0, phi1_0) in enumerate(TENSORDOT_ORACLE):
        w_rng, t_rng, z_rng = realization_streams(SeedConfig(), i)
        grid = build_augmented_grid(det, sample_jumps(m, integral, t_rng, z_rng), horizon=1.0)
        path = euler_path(m, grid, sample_wiener_increments(grid, w_rng, m.wiener_dim))
        duals = backward_duals(m, path, order=3)
        rho = rho_per_step(m, path, duals)
        assert abs(np.sum(rho * grid.dt ** 2) - signed_total) <= 1e-15, i
        assert np.max(np.abs(duals.phi_left[0] - phi0)) <= 7.8e-16, i
        assert np.max(np.abs(duals.phi1_left[0] - np.array(phi1_0))) <= 7.1e-15, i
