"""Model construction, coefficient evaluation, and derivative adapters."""

import math
from dataclasses import replace

import numpy as np
import pytest

from jumpmc import (
    CapabilityError,
    ParameterError,
    build_model,
    finite_difference_adapter,
    oscillator_problem,
    pure_jump_problem,
)
from jumpmc.density import second_moment_arrays
from jumpmc.duals import _dense, _stack_calls
from jumpmc.jumps import IntensityIntegral
from jumpmc.model import JumpDiffusionModel, UniformMarks, as_vectorized


def test_oscillator_coefficients_frozen_point():
    # hand-evaluated at t=0, x=(pi/2, 1)
    m = oscillator_problem()
    t = 0.0
    x = np.array([math.pi / 2.0, 1.0])
    b = m.diffusion(t, x)
    np.testing.assert_allclose(m.drift(t, x), [-1.0, math.pi / 2.0 + 0.5], rtol=1e-15)
    np.testing.assert_allclose(b, [[1.0], [0.0]], atol=1e-15)
    np.testing.assert_allclose(0.5 * b @ b.T, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_oscillator_coefficients_at_origin():
    m = oscillator_problem()
    b = m.diffusion(0.0, np.zeros(2))
    np.testing.assert_allclose(m.drift(0.0, np.zeros(2)), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(b, [[0.0], [0.0]], atol=1e-15)
    np.testing.assert_allclose(0.5 * b @ b.T, np.zeros((2, 2)), atol=1e-15)


def test_second_moment_symmetry():
    # d = b b^T / 2 and its derivatives at 20 points of one row, stacked
    # as the kernel stacks a row
    m = as_vectorized(oscillator_problem())
    rng = np.random.default_rng(5)
    t, x = rng.uniform(0.0, 1.0, size=20), rng.normal(size=(20, 2))
    names = ["diffusion", "diffusion_t", "diffusion_x", "diffusion_xx"]
    cb = _stack_calls(m, names, t[:, None], x[:, None], running=[1] * 20)
    for d in second_moment_arrays(*(cb[name] for name in names)):
        d = _dense(d, m.dim)
        np.testing.assert_allclose(d, np.swapaxes(d, 0, 1), atol=1e-15)


def stacked_test5_callbacks():
    """test5's drift_t, drift_x, diffusion and diffusion_t in their
    earlier form, stacked from ones_like and zeros_like pieces."""

    def drift_t(t, x):
        t = np.asarray(t, float)
        x2 = x[..., 1]
        z = np.zeros_like(x2)
        return np.stack([z, -0.5 * x2 / (1.0 + t) ** 2], axis=-1)

    def drift_x(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        one = np.ones_like(x1)
        zero = np.zeros_like(x1)
        lam = 1.0 / (1.0 + t) * one
        row0 = np.stack([zero, -one], axis=-1)
        row1 = np.stack([one, 0.5 * lam], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def diffusion(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        top = np.sin(x1) / (1.0 + t)
        return np.stack([top, np.zeros_like(top)], axis=-1)[..., None]

    def diffusion_t(t, x):
        t = np.asarray(t, float)
        x1 = x[..., 0]
        top = -np.sin(x1) / (1.0 + t) ** 2
        return np.stack([top, np.zeros_like(top)], axis=-1)[..., None]

    return dict(drift_t=drift_t, drift_x=drift_x, diffusion=diffusion, diffusion_t=diffusion_t)


def test_filled_test5_callbacks_give_the_stacked_bytes():
    # the callbacks that fill one array return the bytes, shape and dtype
    # of the stacked forms, for one point and for K rows
    m = build_model("test5")
    rng = np.random.default_rng(3)
    K = 257
    points = [
        (0.3, rng.normal(size=2)),
        (np.float64(0.0), np.array([-0.0, 1e-300])),
        (rng.uniform(0.0, 1.0, K), rng.normal(size=(K, 2))),
        (np.zeros(K), np.zeros((K, 2))),
    ]
    looped = as_vectorized(replace(m, vectorized=False))
    for name, stacked in stacked_test5_callbacks().items():
        for t, x in points:
            got, want = getattr(m, name)(t, x), stacked(t, x)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes(), name
        t, x = points[2]
        assert getattr(looped, name)(t, x).tobytes() == getattr(m, name)(t, x).tobytes()


def test_filled_test5_callbacks_agree_with_finite_differences():
    # drift_t, drift_x and diffusion_t differenced from drift and
    # diffusion, at one point and over K rows
    m = build_model("test5")
    fd = finite_difference_adapter(replace(m, drift_t=None, drift_x=None, diffusion_t=None))
    rng = np.random.default_rng(29)
    for t, x in ((0.4, rng.normal(size=2)), (rng.uniform(0.1, 0.9, 50), rng.normal(size=(50, 2)))):
        for name in ("drift_t", "drift_x", "diffusion_t"):
            np.testing.assert_allclose(getattr(fd, name)(t, x), getattr(m, name)(t, x), atol=1e-8)


def test_oscillator_intensity_inverse_roundtrip():
    # Lambda(t) = log(1+t): Lambda^{-1}(log 2) = 1
    m = oscillator_problem()
    assert m.intensity_integral(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert m.intensity_integral_inverse(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)


def test_oscillator_drift_jacobian_entry():
    # d a_2 / d x_1 = 1 for every (t, x)
    m = oscillator_problem()
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0.0, 1.0)
        x = rng.normal(size=2)
        jac = np.asarray(m.drift_x(t, x), float)
        assert jac[1, 0] == pytest.approx(1.0, abs=1e-15)
        assert jac[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_analytic_derivatives_match_finite_differences():
    # every analytic callback agrees with central differences of its parent
    m = oscillator_problem()
    stripped = JumpDiffusionModel(
        dim=m.dim,
        wiener_dim=m.wiener_dim,
        mark_dim=m.mark_dim,
        drift=m.drift,
        diffusion=m.diffusion,
        jump=m.jump,
        intensity=m.intensity,
        intensity_bound=m.intensity_bound,
        mark_sampler=m.mark_sampler,
        payoff=m.payoff,
        x0=m.x0,
        horizon=m.horizon,
    )
    fd = finite_difference_adapter(stripped, h=1e-6)
    rng = np.random.default_rng(23)
    for _ in range(10):
        t = rng.uniform(0.1, 0.9)
        x = rng.normal(size=2)
        z = rng.normal(size=1)
        np.testing.assert_allclose(fd.drift_t(t, x), m.drift_t(t, x), atol=2e-7)
        np.testing.assert_allclose(fd.drift_x(t, x), m.drift_x(t, x), atol=2e-7)
        np.testing.assert_allclose(fd.diffusion_x(t, x), m.diffusion_x(t, x), atol=2e-7)
        np.testing.assert_allclose(fd.jump_x(t, x, z), m.jump_x(t, x, z), atol=2e-7)
        np.testing.assert_allclose(fd.payoff_x(x), m.payoff_x(x), atol=2e-7)
        # higher orders difference the analytic lower order: tight
        np.testing.assert_allclose(fd.drift_xx(t, x), m.drift_xx(t, x), atol=1e-5)
        np.testing.assert_allclose(
            fd.diffusion_xx(t, x), m.diffusion_xx(t, x), atol=1e-5
        )


def test_finite_difference_adapter_first_order_entry():
    # d b^1_1 / d x_1 at (0, 0) = cos(0)/(1+0) = 1
    m = oscillator_problem()
    stripped = JumpDiffusionModel(
        dim=2,
        wiener_dim=1,
        mark_dim=1,
        drift=m.drift,
        diffusion=m.diffusion,
        jump=m.jump,
        intensity=m.intensity,
        intensity_bound=m.intensity_bound,
        mark_sampler=m.mark_sampler,
        payoff=m.payoff,
        horizon=1.0,
    )
    fd = finite_difference_adapter(stripped, h=1e-5)
    got = np.asarray(fd.diffusion_x(0.0, np.zeros(2)), float)
    assert got[0, 0, 0] == pytest.approx(1.0, abs=1e-8)


def test_finite_difference_adapter_constant_jump():
    # constant jump amplitude: every derivative vanishes
    base = JumpDiffusionModel(
        dim=1,
        wiener_dim=1,
        mark_dim=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.zeros(x.shape + (1,)),
        jump=lambda t, x, z: np.ones_like(x),
        intensity=lambda t: 1.0,
        intensity_bound=1.0,
        mark_sampler=UniformMarks(lambda t, u: np.zeros_like(u)),
        payoff=lambda x: x[..., 0],
        horizon=1.0,
    )
    fd = finite_difference_adapter(base, h=1e-5)
    np.testing.assert_allclose(fd.jump_x(0.5, np.array([2.0]), np.array([1.0])), 0.0, atol=1e-10)
    np.testing.assert_allclose(
        fd.jump_xx(0.5, np.array([2.0]), np.array([1.0])), 0.0, atol=1e-6
    )


def test_finite_difference_adapter_rejects_bad_step():
    m = oscillator_problem()
    with pytest.raises(ParameterError):
        finite_difference_adapter(m, h=0.0)
    with pytest.raises(ParameterError):
        finite_difference_adapter(m, h=-1e-5)


def test_require_reports_missing_callbacks():
    base = JumpDiffusionModel(
        dim=1,
        wiener_dim=1,
        mark_dim=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.zeros(x.shape + (1,)),
        jump=lambda t, x, z: np.zeros_like(x),
        intensity=lambda t: 0.0,
        intensity_bound=0.0,
        mark_sampler=UniformMarks(lambda t, u: np.zeros_like(u)),
        payoff=lambda x: x[..., 0],
        horizon=1.0,
    )
    with pytest.raises(CapabilityError, match="drift_x"):
        base.require("drift", "drift_x", "payoff_x")


def test_model_validation():
    kwargs = dict(
        wiener_dim=1,
        mark_dim=1,
        drift=lambda t, x: np.zeros_like(x),
        diffusion=lambda t, x: np.zeros(x.shape + (1,)),
        jump=lambda t, x, z: np.zeros_like(x),
        intensity=lambda t: 1.0,
        intensity_bound=1.0,
        mark_sampler=UniformMarks(lambda t, u: np.zeros_like(u)),
        payoff=lambda x: x[..., 0],
        horizon=1.0,
    )
    with pytest.raises(ParameterError):
        JumpDiffusionModel(dim=0, **kwargs)
    with pytest.raises(ParameterError):
        JumpDiffusionModel(dim=1, x0=np.zeros(3), **kwargs)
    with pytest.raises(ParameterError):
        JumpDiffusionModel(dim=1, **{**kwargs, "horizon": 0.0})
    with pytest.raises(ParameterError):
        JumpDiffusionModel(dim=1, **{**kwargs, "intensity_bound": -1.0})


def test_registry():
    assert build_model("test5").name == "test5"
    assert build_model("purejump").name == "purejump"
    with pytest.raises(ParameterError, match="test5"):
        build_model("nope")


def test_pure_jump_has_zero_dynamics():
    m = pure_jump_problem()
    x = np.array([1.0, -2.0])
    np.testing.assert_allclose(m.drift(0.3, x), 0.0, atol=0)
    np.testing.assert_allclose(m.diffusion(0.3, x), 0.0, atol=0)
    # same jump law as the oscillator
    osc = oscillator_problem()
    z = np.array([0.7])
    np.testing.assert_allclose(m.jump(0.3, x, z), osc.jump(0.3, x, z), rtol=1e-15)


def test_exact_value_and_defaults():
    m = oscillator_problem()
    assert m.exact_value == 0.5
    np.testing.assert_allclose(m.x0, np.zeros(2), atol=0)
    assert m.horizon == 1.0
    assert m.vectorized


def test_a_plain_mark_sampler_is_refused_with_the_fix():
    # a sampler called per jump with a generator is no longer a mark law
    base = oscillator_problem()
    with pytest.raises(CapabilityError, match=r"UniformMarks\(quantile\)"):
        replace(base, mark_sampler=lambda t, rng: np.zeros(1))
    fields = {f: getattr(base, f) for f in base.__dataclass_fields__}
    with pytest.raises(CapabilityError, match="must be a model.UniformMarks"):
        JumpDiffusionModel(**{**fields, "mark_sampler": base.mark_sampler.quantile})


@pytest.mark.parametrize("given", ["intensity_integral", "intensity_integral_inverse"])
def test_half_of_the_intensity_pair_is_refused(given):
    base = oscillator_problem()
    half = dict(intensity_integral=None, intensity_integral_inverse=None)
    half[given] = getattr(base, given)
    with pytest.raises(ParameterError, match="together or not at all"):
        replace(base, **half)
    closed_form, inverse = half.values()
    with pytest.raises(ParameterError, match="together or not at all"):
        IntensityIntegral(base.intensity, 1.0, bound=1.0, closed_form=closed_form, inverse=inverse)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda m: replace(m, horizon=math.inf), id="model-horizon-inf"),
        pytest.param(lambda m: replace(m, horizon=math.nan), id="model-horizon-nan"),
        pytest.param(
            lambda m: IntensityIntegral(m.intensity, math.inf, bound=1.0),
            id="integral-horizon-inf",
        ),
        pytest.param(lambda m: replace(m, x0=[math.nan, 0.0]), id="x0-nan"),
        pytest.param(lambda m: replace(m, x0=[0.0, -math.inf]), id="x0-inf"),
        pytest.param(lambda m: finite_difference_adapter(m, h=math.inf), id="fd-step-inf"),
        pytest.param(lambda m: finite_difference_adapter(m, h=math.nan), id="fd-step-nan"),
    ],
)
def test_non_finite_inputs_are_refused_at_construction(build):
    # each used to pass its check and fail later, inside a run
    with pytest.raises(ParameterError, match="finite"):
        build(oscillator_problem())
