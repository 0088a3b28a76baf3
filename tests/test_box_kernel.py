"""The box kernel against the full tensors, on random polynomial models.

A model declares in ``derivative_support`` the entries of its derivative
tensors that may be non-zero, and the kernel contracts only their
bounding boxes (``duals.box_einsum``, ``duals.box_sum``).  Every entry
outside a declared support is an exact zero, so the declared and the
undeclared model must give the same bytes: the forward-and-density
kernel ``controller._path_batch``, the dual sweep ``dual_batch`` at
orders 1 to 3, and ``rho_interval_batch`` on its order-2 weights.

The models draw d in {1, 2, 3} and l in {1, 2}, a support for each of
the five declarable callbacks (undeclared, empty, or random entries),
and callbacks that are random polynomials in (t, x) vanishing outside
it.  Paths are random same-length batches, from one row and one step up,
with jumps at random nodes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import controller as ctl  # noqa: E402
from jumpmc.density import INTERVAL_DENSITY_CALLBACKS, rho_interval_batch  # noqa: E402
from jumpmc.duals import _euler_map_callbacks, _stack_calls, dual_batch  # noqa: E402
from jumpmc.euler import PathBatch, euler_batch  # noqa: E402
from jumpmc.jumps import uniform_mesh  # noqa: E402
from jumpmc.model import SUPPORT_AXES, JumpDiffusionModel, UniformMarks  # noqa: E402


def polynomial(rng, shape, d, mask=None, timed=True, marked=False):
    """A callback c0 + c1 (v.x) + c2 t (w.x)^2 [times z] of the given
    tensor shape, its coefficients zero (+0.0) outside ``mask``."""
    c = [rng.uniform(-1.0, 1.0, shape) for _ in range(3)]
    if mask is not None:
        c = [np.where(mask, ci, 0.0) for ci in c]
    v, w = rng.uniform(-1.0, 1.0, (2, d))
    tail = (None,) * len(shape)

    def value(t, x, z=None):
        s1 = (x @ v)[(...,) + tail]
        s2 = (x @ w)[(...,) + tail] ** 2
        if timed:
            s2 = np.asarray(t, float)[(...,) + tail] * s2
        out = c[0] + c[1] * s1 + c[2] * s2
        return out * z[..., :1][(...,) + tail[1:]] if marked else out

    if not timed:
        return lambda x: value(None, x)
    return value if marked else (lambda t, x: value(t, x))


def random_support(rng, shape):
    """None (undeclared), () (zero), or random entries of ``shape``."""
    kind = rng.integers(3)
    if kind == 0:
        return None
    if kind == 1:
        return ()
    mask = rng.random(shape) < rng.uniform(0.1, 0.6)
    return tuple(map(tuple, np.argwhere(mask).tolist()))


def random_model(d, l, seed):
    """(declared, undeclared) random polynomial models of one seed."""
    rng = np.random.default_rng(seed)
    shapes = {
        "drift": (d,), "drift_t": (d,), "drift_x": (d, d),
        "diffusion": (d, l), "diffusion_t": (d, l),
    }
    support = {}
    for name, axes in SUPPORT_AXES.items():
        shapes[name] = tuple(d if a == "x" else l for a in axes)
        entries = random_support(rng, shapes[name])
        if entries is not None:
            support[name] = entries
    cb = {}
    for name, shape in shapes.items():
        mask = None
        if name in support:
            mask = np.zeros(shape, bool)
            for entry in support[name]:
                mask[entry] = True
        cb[name] = polynomial(rng, shape, d, mask)
    for k, name in enumerate(("jump", "jump_x", "jump_xx", "jump_xxx")):
        cb[name] = polynomial(rng, (d,) * (k + 1), d, marked=True)
    for k, name in enumerate(("payoff", "payoff_x", "payoff_xx", "payoff_xxx")):
        cb[name] = polynomial(rng, (d,) * k, d, timed=False)
    common = dict(
        dim=d, wiener_dim=l, mark_dim=1,
        intensity=lambda t: 1.0, intensity_bound=1.0,
        mark_sampler=UniformMarks(lambda t, u: u[:, None]),
        x0=rng.uniform(-0.5, 0.5, d), vectorized=True, **cb,
    )
    return (
        JumpDiffusionModel(derivative_support=support, **common),
        JumpDiffusionModel(**common),
    )


def random_paths(rng, B, det, extra, l):
    """B same-length paths on the mesh ``det`` with ``extra`` more nodes
    each, jumps at random nodes."""
    inner = np.sort(rng.uniform(0.0, 1.0, (B, extra)), axis=1)
    times = np.sort(np.concatenate([np.tile(det, (B, 1)), inner], axis=1), axis=1)
    dt = np.diff(times, axis=1)
    n = dt.shape[1]
    dw = rng.standard_normal((B, n, l)) * np.sqrt(dt)[..., None]
    jump_flag = rng.random((B, n + 1)) < 0.3
    marks = np.where(jump_flag[..., None], rng.uniform(-1.0, 1.0, (B, n + 1, 1)), 0.0)
    return PathBatch(times, dw, jump_flag, marks, dt)


def as_bytes(value):
    """Nested outputs as comparable bytes."""
    if isinstance(value, (list, tuple)):
        return [as_bytes(v) for v in value]
    if isinstance(value, (int, np.integer)):
        return int(value)
    a = np.ascontiguousarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def kernel_outputs(model, paths, det):
    B = len(paths.dt)
    out = {"path_batch": ctl._path_batch(model, paths, list(range(B)), True)}
    values, left = euler_batch(model, paths)
    times, running = paths.times, paths.running()
    for order in (1, 2, 3):
        names = _euler_map_callbacks(order) + INTERVAL_DENSITY_CALLBACKS
        cb = _stack_calls(model, names, times[:, :-1], values[:, :-1], running=running)
        stores, first, at_jumps = dual_batch(model, cb, paths, values, left, order)
        out[f"duals{order}"] = (stores, first, at_jumps)
        if order == 2:
            hi = _stack_calls(
                model, INTERVAL_DENSITY_CALLBACKS, times[:, 1:], left[:, 1:], running=running
            )
            out["rho_interval"] = rho_interval_batch(cb, hi, *stores, paths, det)
    return as_bytes(list(out.values()))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    l=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 40),
    N=st.integers(1, 4),
    extra=st.integers(0, 2),
)
def test_declared_supports_leave_the_kernel_bit_identical(d, l, seed, B, N, extra):
    declared, undeclared = random_model(d, l, seed)
    det = uniform_mesh(1.0, N)
    paths = random_paths(np.random.default_rng(seed + 1), B, det, extra, l)
    assert kernel_outputs(declared, paths, det) == kernel_outputs(undeclared, paths, det)
