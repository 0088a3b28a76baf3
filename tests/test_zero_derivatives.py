"""Derivative callbacks a model declares identically zero.

The kernel neither evaluates nor stores a declared callback and drops the
term it enters, so every engine's output must be bit for bit that of the
same model without the declaration.
"""

from dataclasses import replace

import numpy as np
import pytest

from jumpmc import ParameterError, SeedConfig, build_model, uniform_mesh
from jumpmc import controller as ctl
from jumpmc.duals import euler_operator_derivatives
from jumpmc.model import (
    MODELS,
    ZERO_DERIVATIVE_NAMES,
    as_vectorized,
    second_moment_derivatives,
)

ROWS = 600
DET = uniform_mesh(1.0, 7)
STOCH = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=7.0)


def _bytes(result):
    arrays = {k: np.asarray(v) for k, v in result.items()}
    return {k: (a.dtype, a.shape, a.tobytes()) for k, a in arrays.items()}


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
    assert declared.zero_derivatives
    undeclared = replace(declared, zero_derivatives=frozenset())
    run = ENGINES[engine]
    assert _bytes(run(declared)) == _bytes(run(undeclared))


@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_the_kernel_never_calls_a_declared_callback(name):
    model = build_model(name)
    calls = []

    def counted(fn, tag):
        return lambda *a: calls.append(tag) or fn(*a)

    wrapped = {n: counted(getattr(model, n), n) for n in ZERO_DERIVATIVE_NAMES}
    model = replace(model, **wrapped)
    calls.clear()  # construction probes each declared callback once
    ctl.run_mesh_batch(model, DET, SeedConfig(), 0, 50, tol=0.05, want_density=True)
    ctl.run_stochastic_batch(model, DET, SeedConfig(), 0, 50, **STOCH)
    assert set(calls) == ZERO_DERIVATIVE_NAMES - model.zero_derivatives


@pytest.mark.parametrize("name", ["test5", "purejump"])
def test_pointwise_derivatives_match_the_undeclared_model(name):
    declared = build_model(name)
    undeclared = replace(declared, zero_derivatives=frozenset())
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, x, dw = rng.random(), rng.normal(size=2), rng.normal(size=1)
        for a, b in zip(
            euler_operator_derivatives(declared, t, x, 0.1, dw),
            euler_operator_derivatives(undeclared, t, x, 0.1, dw),
        ):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(
            second_moment_derivatives(declared, t, x),
            second_moment_derivatives(undeclared, t, x),
        ):
            np.testing.assert_array_equal(a, b)


def test_only_second_and_third_state_derivatives_can_be_declared():
    model = build_model("test5")
    for bad in ({"drift_x"}, {"jump_xx"}, {"payoff_xxx"}, {"drift_xx", "nonsense"}):
        with pytest.raises(ParameterError, match="zero_derivatives may name only"):
            replace(model, zero_derivatives=frozenset(bad))


@pytest.mark.parametrize("vectorized", [True, False])
def test_a_declared_callback_that_is_not_zero_is_rejected(vectorized):
    model = build_model("test5")
    if not vectorized:  # probed with a scalar call, and as rows after as_vectorized
        model = replace(model, vectorized=False)
        assert as_vectorized(model).zero_derivatives == model.zero_derivatives
    # diffusion_xx of test5 is -sin(x1) / (1 + t) at entry 0, 0, 0, 0: zero at
    # x0 = 0, so it is probed away from the origin
    moved = replace(model, x0=np.array([0.5, 0.0]))
    with pytest.raises(ParameterError, match="diffusion_xx is declared zero"):
        replace(moved, zero_derivatives=moved.zero_derivatives | {"diffusion_xx"})
    with pytest.raises(ParameterError, match="drift_xx is declared zero"):
        replace(model, drift_xx=lambda t, x: np.full(np.shape(x)[:-1] + (2, 2, 2), np.nan))
    with pytest.raises(ParameterError, match="drift_xxx is declared zero"):
        replace(model, drift_xxx=lambda t, x: np.ones(np.shape(x)[:-1] + (2, 2, 2, 2)))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_builtin_declared_callbacks_are_zero(name):
    model = build_model(name)
    rng = np.random.default_rng(17)
    t = rng.random(1000)
    x = rng.normal(scale=3.0, size=(1000, model.dim))
    for cb in sorted(model.zero_derivatives):
        value = np.asarray(getattr(model, cb)(t, x))
        assert value.shape[0] == 1000 and not value.any(), cb
