"""The box kernel against the full tensors, on random polynomial models.

A model declares in ``derivative_support`` the entries of its derivative
tensors that may be non-zero, and the kernel contracts only their
bounding boxes (``duals.box_einsum``, ``duals.box_sum``).  Every entry
outside a declared support is an exact zero, so the declared and the
undeclared model must give the same bytes: the forward-and-density
kernel ``controller._path_batch``, the dual sweep ``dual_batch`` at
orders 1 to 3, and ``rho_interval_batch`` on its order-2 weights.
``dual_batch`` plans its box contractions once per sweep
(``duals.Plans``), which must give the bytes of planning every call.

``dual_batch`` gathers the rows of a jump block with ``np.take``, so its
weights stay rows last and contiguous, and scatters the weights after
the jump into the sweep's arrays in place.  On ragged blocks, with jumps
at node 0 and at the last node of the first rows to join the sweep, it
must give the bytes of the copy-then-gather sweep it replaced (kept
below), leave its inputs as they were, and repeat bit for bit.

The models draw d in {1, 2, 3} and l in {1, 2}, a support for each of
the five declarable callbacks (undeclared, empty, or random entries),
and callbacks that are random polynomials in (t, x) vanishing outside
it.  Paths are random same-length batches, from one row and one step up,
with jumps at random nodes.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import build_model  # noqa: E402
from jumpmc import controller as ctl  # noqa: E402
from jumpmc import duals  # noqa: E402
from jumpmc.density import INTERVAL_DENSITY_CALLBACKS, rho_interval_batch  # noqa: E402
from jumpmc.duals import _euler_map_callbacks, _stack_calls, dual_batch  # noqa: E402
from jumpmc.euler import concat_paths, euler_batch, terminal_values  # noqa: E402
from jumpmc.jumps import uniform_mesh  # noqa: E402
from jumpmc.model import SUPPORT_AXES, JumpDiffusionModel, UniformMarks  # noqa: E402
from rows_first_forward import RowsFirstPaths, to_node_major, to_rows_first  # noqa: E402


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
    return to_node_major(RowsFirstPaths(times, dw, jump_flag, marks, dt))


def as_bytes(value):
    """Nested outputs as comparable bytes."""
    if isinstance(value, (list, tuple)):
        return [as_bytes(v) for v in value]
    if isinstance(value, (int, np.integer)):
        return int(value)
    a = np.ascontiguousarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def sweep_inputs(paths, values, left):
    """What ``dual_batch`` reads of the forward paths: X(T) and the left
    limits at the jumps."""
    return terminal_values(paths, values), duals.jump_left_limits(paths, left)


def kernel_outputs(model, paths, det):
    B = len(paths.n_steps)
    out = {"path_batch": ctl._path_batch(model, paths, list(range(B)), True)}
    values, left = euler_batch(model, paths)
    times, running = paths.times, paths.running()
    for order in (1, 2, 3):
        names = _euler_map_callbacks(order) + INTERVAL_DENSITY_CALLBACKS
        cb = _stack_calls(model, names, times[:-1], values[:-1], running=running)
        inputs = sweep_inputs(paths, values, left)
        stores, first, at_jumps = dual_batch(model, cb, paths, *inputs, order)
        out[f"duals{order}"] = (stores, first, at_jumps)
        if order == 2:
            hi = _stack_calls(
                model, INTERVAL_DENSITY_CALLBACKS, times[1:], left[1:], running=running
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


def dual_sweep(model, paths, order):
    values, left = euler_batch(model, paths)
    cb = _stack_calls(
        model, _euler_map_callbacks(order), paths.times[:-1], values[:-1],
        running=paths.running(),
    )
    return dual_batch(model, cb, paths, *sweep_inputs(paths, values, left), order)


_propagate = duals.propagate


def planned_every_call(G, phi, plans=None):
    """``propagate`` keeping no plans: every contraction and sum is
    planned at its call, as ``box_einsum`` and ``box_sum`` plan it."""
    return _propagate(G, phi)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 3),
    l=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    B=st.integers(1, 40),
    N=st.integers(1, 4),
    extra=st.integers(0, 2),
)
def test_plans_made_once_per_sweep_leave_dual_batch_bit_identical(d, l, seed, B, N, extra):
    paths = random_paths(np.random.default_rng(seed + 1), B, uniform_mesh(1.0, N), extra, l)
    for model in random_model(d, l, seed):  # boxed, then dense
        once = as_bytes([dual_sweep(model, paths, order) for order in (1, 2, 3)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(duals, "propagate", planned_every_call)
            every = as_bytes([dual_sweep(model, paths, order) for order in (1, 2, 3)])
        assert every == once


@pytest.mark.parametrize("order", [1, 2, 3])
def test_plans_per_dual_batch_do_not_grow_with_its_steps(order):
    model = build_model("test5")  # boxed second and third derivatives
    builds, counts = [], []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_plan_einsum", "_plan_sum"):
            make = getattr(duals, name)
            mp.setattr(duals, name, lambda *a, make=make: builds.append(a) or make(*a))
        for N in (2, 40):
            paths = random_paths(np.random.default_rng(N), 8, uniform_mesh(1.0, N), 1, 1)
            assert len(set(np.nonzero(paths.jump_flag)[0].tolist())) >= 2
            builds.clear()
            dual_sweep(model, paths, order)
            counts.append(len(builds))
    assert counts[0] == counts[1] > 0


def ragged_paths(rng, det, counts, l):
    """Rows of up to three step counts, longest first: ``counts[k]`` rows with
    2 - k extra nodes.  Besides the random jumps, every row jumps at its
    last node and every other row at node 0."""
    parts = [random_paths(rng, B, det, 2 - k, l) for k, B in enumerate(counts) if B]
    paths = to_rows_first(concat_paths(parts)[1])
    flag = paths.jump_flag.copy()
    flag[np.arange(len(flag)), paths.n_steps] = True
    flag[::2, 0] = True
    marks = np.where(flag[..., None], rng.uniform(-1.0, 1.0, paths.marks.shape), 0.0)
    return to_node_major(replace(paths, jump_flag=flag, marks=marks))


def copy_then_gather(model, cb, paths, values, left, order):
    """``dual_batch`` as it was before its jump blocks gathered with
    ``np.take``: the packed increments and a block's rows are gathered
    by index (``[real]``, ``w[..., rows]``), which lays them out rows
    first, and every block scatters into a copy of the weights."""
    d = model.dim
    running = paths.running().tolist()
    offsets = np.cumsum([0] + running).tolist()
    real = paths.real()
    dt, dw = np.diff(paths.times, axis=0)[real], paths.dw[real].T
    A = duals.euler_map_derivatives(cb, dt, dw, order)[:order]
    jnodes, jrows = np.nonzero(paths.jump_flag)
    ends = np.cumsum(np.bincount(jnodes)).tolist()
    jump_at = {n: slice(b, e) for n, (b, e) in enumerate(zip([0] + ends, ends)) if e > b}
    C = duals.jump_map_derivatives(
        _stack_calls(
            model, duals._jump_map_callbacks(order), paths.times[jnodes, jrows],
            left[jnodes, jrows], paths.marks,
        ),
        order,
    )[:order]
    x_T = terminal_values(paths, values)
    start = [
        duals._rows_last(np.asarray(getattr(model, name)(x_T), float), 1)
        for name in ("payoff_x", "payoff_xx", "payoff_xxx")[:order]
    ]
    stores = [np.empty((d,) * (k + 1) + (offsets[-1],)) for k in range(order)]
    at_jumps = []

    def jump_block(node, phi):
        sel = jump_at[node]
        rows = jrows[sel]
        pre = [w[..., rows] for w in phi]
        at_jumps.append((node, pre))
        phi = [w.copy() for w in phi]
        for w, post in zip(phi, duals.propagate([c[..., sel] for c in C], pre)):
            w[..., rows] = post
        return phi

    phi = [w[..., :0] for w in start]
    for p, k in reversed(list(enumerate(running))):
        at = offsets[p]
        j = phi[0].shape[-1]
        if k > j:
            phi = [
                s[..., :k] if j == 0 else np.concatenate([w, s[..., j:k]], -1)
                for w, s in zip(phi, start)
            ]
        if p + 1 in jump_at:
            phi = jump_block(p + 1, phi)
        for store, w in zip(stores, phi):
            store[..., at : at + k] = w
        phi = duals.propagate([a[..., at : at + k] for a in A], phi)
    if 0 in jump_at:
        phi = jump_block(0, phi)
    return stores, phi, at_jumps


def input_bytes(cb, values, left, paths):
    """The bytes of every array ``dual_batch`` reads."""
    arrays = {name: v.value if isinstance(v, duals.Box) else v for name, v in cb.items()}
    arrays.update(values=values, left=left)
    for name in ("times", "dw", "jump_flag", "marks", "n_steps"):
        arrays[name] = getattr(paths, name)
    return {name: as_bytes(a) for name, a in arrays.items()}


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 3),
    l=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    counts=st.tuples(st.integers(1, 12), st.integers(0, 12), st.integers(0, 12)),
    N=st.integers(1, 4),
)
def test_jump_blocks_in_place_give_the_copy_then_gather_bytes(d, l, seed, counts, N):
    paths = ragged_paths(np.random.default_rng(seed + 1), uniform_mesh(1.0, N), counts, l)
    assert len(set(paths.n_steps.tolist())) == sum(map(bool, counts))
    for model in random_model(d, l, seed):  # boxed, then dense
        values, left = euler_batch(model, paths)
        for order in (1, 2, 3):
            cb = _stack_calls(
                model, _euler_map_callbacks(order), paths.times[:-1], values[:-1],
                running=paths.running(),
            )
            before = input_bytes(cb, values, left, paths)
            inputs = sweep_inputs(paths, values, left)
            once = as_bytes(dual_batch(model, dict(cb), paths, *inputs, order))
            assert input_bytes(cb, values, left, paths) == before
            assert as_bytes(dual_batch(model, dict(cb), paths, *inputs, order)) == once
            reference = copy_then_gather(model, dict(cb), paths, values, left, order)
            assert as_bytes(reference) == once


@pytest.mark.parametrize(
    "model, l",
    [(build_model("test5"), 1), (random_model(2, 2, 7)[1], 2), (random_model(3, 2, 7)[1], 2)],
    ids=["test5", "d2_l2", "d3_l2"],
)
def test_jump_weights_and_packed_increments_are_contiguous(model, l, monkeypatch):
    paths = ragged_paths(np.random.default_rng(3), uniform_mesh(1.0, 4), (12, 9, 6), l)
    increments = []
    euler_maps = duals.euler_map_derivatives

    def spy(cb, dt, dw, order=3):
        increments.append(dw)
        return euler_maps(cb, dt, dw, order)

    monkeypatch.setattr(duals, "euler_map_derivatives", spy)
    for order in (1, 2, 3):
        _, _, at_jumps = dual_sweep(model, paths, order)
        assert max(pre[0].shape[-1] for _, pre in at_jumps) > 1
        for _, pre in at_jumps:
            assert all(w.flags.c_contiguous for w in pre)
    assert [dw.shape for dw in increments] == [(l, paths.real().sum())] * 3
    assert all(dw.flags.c_contiguous for dw in increments)
