"""Derivative tensors a model declares zero outside a support.

``JumpDiffusionModel.derivative_support`` lists, per derivative
callback, the entries that may be non-zero.  The kernel copies and
contracts only the bounding box of that support and never calls a
callback whose support is empty, so every engine's output must be bit
for bit that of the same model without the declaration.
"""

from dataclasses import replace

import numpy as np
import pytest

from jumpmc import ParameterError, SeedConfig, build_model, uniform_mesh
from jumpmc import controller as ctl
from jumpmc.density import second_moment_arrays
from jumpmc.duals import _dense, _euler_map_callbacks, _stack_calls, euler_map_derivatives
from jumpmc.model import (
    MODELS,
    SUPPORT_AXES,
    as_vectorized,
    finite_difference_adapter,
)

ROWS = 600
DET = uniform_mesh(1.0, 7)
STOCH = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=7.0)


def _bytes(result):
    arrays = {k: np.asarray(v) for k, v in result.items()}
    return {k: (a.dtype, a.shape, a.tobytes()) for k, a in arrays.items()}


def _undeclared(model):
    return replace(model, derivative_support={})


ENGINES = {
    "mesh": lambda m: ctl.run_mesh_batch(m, DET, SeedConfig(), 0, ROWS),
    "mesh-density": lambda m: ctl.run_mesh_batch(
        m, DET, SeedConfig(), 0, ROWS, tol=0.05, want_density=True
    ),
    "stochastic": lambda m: ctl.run_stochastic_batch(m, DET, SeedConfig(), 0, ROWS, **STOCH),
    "interval": lambda m: ctl.run_interval_batch(m, DET, SeedConfig(), ROWS),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_declared_zeros_leave_every_engine_bit_identical(name, engine):
    declared = build_model(name)
    assert declared.derivative_support
    run = ENGINES[engine]
    assert _bytes(run(declared)) == _bytes(run(_undeclared(declared)))


def _omitted(model):
    """``model`` without the callbacks it declares zero."""
    return replace(
        model, **{n: None for n, entries in model.derivative_support.items() if not entries}
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_a_callback_declared_zero_may_be_omitted(name, engine):
    model = build_model(name)
    omitted = _omitted(model)
    assert omitted.drift_xx is None and omitted.drift_xxx is None
    run = ENGINES[engine]
    assert _bytes(run(omitted)) == _bytes(run(model))


def _row_derivatives(model, t, x, dw):
    """The Euler-map derivatives (dt = 0.1) and those of d = b b^T / 2 at
    the points (t, x) of one row, stacked as the kernel stacks a row, as
    dense (tensor..., points) arrays."""
    names = _euler_map_callbacks(3) + ["diffusion", "diffusion_t"]
    cb = _stack_calls(model, names, t[:, None], x[:, None], running=[1] * len(t))
    A = euler_map_derivatives(cb, np.full(len(t), 0.1), dw.T)
    D = second_moment_arrays(
        cb["diffusion"], cb["diffusion_t"], cb["diffusion_x"], cb["diffusion_xx"]
    )
    return [_dense(v, model.dim) for v in A + D]


@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_pointwise_derivatives_take_an_omitted_zero_callback(name):
    model = build_model(name)
    t, x, dw = np.array([0.3]), np.array([[0.4, -1.2]]), np.array([[0.7]])
    for a, b in zip(
        _row_derivatives(_omitted(model), t, x, dw), _row_derivatives(model, t, x, dw)
    ):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_the_kernel_never_calls_a_declared_callback(name):
    model = build_model(name)
    calls = []

    def counted(fn, tag):
        return lambda *a: calls.append(tag) or fn(*a)

    wrapped = {n: counted(getattr(model, n), n) for n in SUPPORT_AXES}
    model = replace(model, **wrapped)
    calls.clear()  # construction probes each declared callback once
    ctl.run_mesh_batch(model, DET, SeedConfig(), 0, 50, tol=0.05, want_density=True)
    ctl.run_stochastic_batch(model, DET, SeedConfig(), 0, 50, **STOCH)
    ctl.run_interval_batch(model, DET, SeedConfig(), 50)
    called = {n for n, entries in model.derivative_support.items() if entries}
    assert set(calls) == called


@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_pointwise_derivatives_match_the_undeclared_model(name):
    declared = build_model(name)
    rng = np.random.default_rng(3)
    t, x, dw = rng.random(20), rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
    for a, b in zip(
        _row_derivatives(declared, t, x, dw),
        _row_derivatives(_undeclared(declared), t, x, dw),
    ):
        assert a.shape[-1] == 20
        np.testing.assert_array_equal(a, b)


def test_only_drift_and_diffusion_state_derivatives_can_be_declared():
    model = build_model("test5")
    for bad in ("drift_x", "diffusion_t", "jump_xx", "payoff_xxx", "nonsense"):
        with pytest.raises(ParameterError, match="derivative_support may name only"):
            replace(model, derivative_support={bad: ()})


@pytest.mark.parametrize(
    "entries",
    [((2, 0, 0),), ((0, 1, 0),), ((0, 0),), ((0, 0, 0, 0),), ((-1, 0, 0),), ((0.5, 0, 0),)],
)
def test_a_support_index_outside_the_tensor_is_rejected(entries):
    model = build_model("test5")  # diffusion_x is (2, 1, 2)
    with pytest.raises(ParameterError, match="derivative_support of diffusion_x"):
        replace(model, derivative_support={"diffusion_x": entries})


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_declared_callback_that_is_not_zero_is_rejected(vectorized):
    model = build_model("test5")
    if not vectorized:  # probed with a scalar call, and as rows after as_vectorized
        model = replace(model, vectorized=False)
        assert as_vectorized(model).derivative_support == model.derivative_support
    support = dict(model.derivative_support)
    # diffusion_xx of test5 is -sin(x1) / (1 + t) at entry 0, 0, 0, 0: zero at
    # x0 = 0, so it is probed away from the origin
    moved = replace(model, x0=np.array([0.5, 0.0]))
    with pytest.raises(ParameterError, match="diffusion_xx is not zero outside"):
        replace(moved, derivative_support={**support, "diffusion_xx": ()})
    # diffusion_x is cos(x1) / (1 + t) at entry 0, 0, 0, not at 1, 0, 0
    with pytest.raises(ParameterError, match="diffusion_x is not zero outside"):
        replace(model, derivative_support={**support, "diffusion_x": ((1, 0, 0),)})
    with pytest.raises(ParameterError, match="drift_xx is not zero outside"):
        replace(model, drift_xx=lambda t, x: np.full(np.shape(x)[:-1] + (2, 2, 2), np.nan))
    with pytest.raises(ParameterError, match="drift_xxx is not zero outside"):
        replace(model, drift_xxx=lambda t, x: np.ones(np.shape(x)[:-1] + (2, 2, 2, 2)))
    with pytest.raises(ParameterError, match="drift_xx returned shape"):
        replace(model, drift_xx=lambda t, x: np.zeros(np.shape(x)[:-1] + (2, 2)))


def test_finite_differences_keep_the_declaration():
    model = build_model("test5")
    filled = finite_difference_adapter(replace(model, drift_x=None, drift_xx=None))
    assert filled.derivative_support == model.derivative_support
    assert filled.drift_x is not None
    assert filled.drift_xx is None  # declared zero: not filled
    ENGINES["mesh-density"](filled)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_builtin_declared_callbacks_are_zero(name):
    model = build_model(name)
    rng = np.random.default_rng(17)
    t = rng.random(1000)
    x = rng.normal(scale=3.0, size=(1000, model.dim))
    for cb, entries in sorted(model.derivative_support.items()):
        value = np.asarray(getattr(model, cb)(t, x))
        outside = np.ones(value.shape, bool)
        for entry in entries:
            outside[(...,) + entry] = False
        assert value.shape[0] == 1000 and not value[outside].any(), cb
