"""Discrete dual weights along one Euler path.

The weights are the backward sensitivities of the terminal payoff with
respect to the state at each node,

    phi_i(t_n)  ~ d g(X(T)) / d X_i(t_n),

together with their second and third order analogues phi' and phi''.
They satisfy a backward recursion through the local Euler map

    A_j(t_n, x) = x_j + a_j(t_n, x) dt_n + b_j^l(t_n, x) dW_n^l

and, at jump nodes, through the local jump map C_j(t, x, z) = x_j + c_j.
The first order rule is phi(t_n) = (dA/dx)^T phi(t_{n+1}-); the higher
order rules add curvature terms with the second and third derivatives of
the local maps.  Left limits carry the identity at non-jump nodes.

``dual_batch`` sweeps a block of B paths at once from callback values
already evaluated; it is the dual layer of both drivers, and
``backward_duals`` is its one-row case.  The rows may have different
step counts, ordered by descending step count (``euler.PathBatch``):
the rows that take step p are the first k_p, each per-step array holds
only the steps the rows take, packed step by step, and each row's sweep
starts at its own last node.
``euler_map_derivatives`` and ``jump_map_derivatives`` are the one
implementation of each local map's derivatives.

A callback with a declared support (``JumpDiffusionModel.
derivative_support``) is held as a ``Box``: only the bounding box of its
support is copied, and ``box_einsum`` and ``box_sum`` carry the boxes
through every layer.  Each summed letter runs over the intersection of
its operands' index ranges, so a product with an entry outside a box,
exactly zero, is never formed; a callback with an empty support is never
evaluated, and the terms it enters are dropped.  Up to the sign of a
zero and 0 * inf (NaN in full, absent in the box), the results are bit
for bit those of the full tensors: dropping an exact zero from a sum
leaves the order of the other terms.  The support is static, so the
boxes cannot depend on the chunk size or the worker count, and they are
fixed within one sweep: ``dual_batch`` plans its steps' contractions
once (``Plans``) and reuses the plans at every step.

The batched arrays are rows last: tensor axes first, then the trailing
lead axes, (d, d, n, B) for a Jacobian at the (B, n) nodes of B paths,
or (d, d, K) packed over the K steps a block's rows take (``dual_batch``).
Every contraction then runs its inner loop over the contiguous rows,
and a step's slice is one contiguous block.  A gather along the rows
axis uses ``np.take(..., axis=-1)`` (``np.compress`` for a mask), which
keeps that layout: an index array or a mask over the trailing axes
(``w[..., rows]``, ``x[:, mask]``) returns rows-first memory, and
``propagate`` ran about 8x slower on such weights (950-1,050 against
118-135 us on a 771-row jump block of test5's mesh-density call).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .euler import EulerPath, stack_paths, terminal_values
from .model import JumpDiffusionModel, as_vectorized

Array = np.ndarray

try:
    # np.einsum(optimize=False) is this C routine behind a dispatch
    # wrapper that costs about as much as a contraction over a few rows
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - other numpy layouts
    _einsum = np.einsum


@dataclass(frozen=True)
class DualWeights:
    """First (and optionally higher) order dual weights at every node.

    ``*_left`` arrays hold the left-limit values; at non-jump nodes those
    equal the node values.  Arrays for orders above ``order`` are None.
    """

    order: int
    phi: Array  # (N_A + 1, d)
    phi_left: Array
    phi1: Optional[Array] = None  # (N_A + 1, d, d)
    phi1_left: Optional[Array] = None
    phi2: Optional[Array] = None  # (N_A + 1, d, d, d)
    phi2_left: Optional[Array] = None


def _euler_map_callbacks(order: int):
    names = ["drift_x", "diffusion_x", "drift_xx", "diffusion_xx"]
    return (names + ["drift_xxx", "diffusion_xxx"])[: 2 * order]


def _jump_map_callbacks(order: int):
    return ["jump_x", "jump_xx", "jump_xxx"][:order]


def _required_callbacks(order: int, with_jumps: bool):
    names = _euler_map_callbacks(order) + ["payoff_x", "payoff_xx", "payoff_xxx"][:order]
    return names + (_jump_map_callbacks(order) if with_jumps else [])


def _check_order(order: int) -> None:
    if order not in (1, 2, 3):
        raise ParameterError(f"order must be 1, 2 or 3, got {order}")


def _rows_last(value: Array, nlead: int, box=None) -> Array:
    """Contiguous copy of ``value`` with its ``nlead`` leading axes moved,
    reversed, to the end: (B, n, t...) -> (t..., n, B); only the slices
    ``box`` of the tensor axes t..., if given."""
    if box is not None:
        value = value[(slice(None),) * nlead + tuple(box)]
    axes = tuple(range(nlead, value.ndim)) + tuple(range(nlead - 1, -1, -1))
    return np.ascontiguousarray(value.transpose(axes))


def _rows_first(value: Array, nlead: int) -> Array:
    """Inverse of ``_rows_last``: (t..., n, B) -> contiguous (B, n, t...)."""
    k = value.ndim - nlead
    axes = tuple(range(value.ndim - 1, k - 1, -1)) + tuple(range(k))
    return np.ascontiguousarray(value.transpose(axes))


class Box:
    """The entries of a tensor that may be non-zero, rows last.

    ``value`` holds the entries ``lo[k] <= i_k < lo[k] + value.shape[k]``
    of the ``len(lo)`` tensor axes, followed by any lead axes; every entry
    outside the box is zero.  A box with an empty tensor axis is a
    dropped term.  A dense array is the full box of its tensor axes.
    """

    __slots__ = ("value", "lo")

    def __init__(self, value: Array, lo: tuple):
        self.value, self.lo = value, lo

    def __getitem__(self, lead):
        """The box at an index of the lead axes, ``[..., p, :]`` say."""
        return Box(self.value[lead], self.lo)


def _key(op, rank: int):
    """What plans depend on: (lo, tensor shape) of a Box, (None, tensor
    shape) of a dense array with ``rank`` tensor axes."""
    if type(op) is Box:
        return op.lo, op.value.shape[:rank]
    return None, op.shape[:rank]


@functools.lru_cache(maxsize=None)
def _letters(spec: str):
    inputs, output = spec.replace("...", "").split("->")
    inputs = inputs.split(",")
    return inputs, output, tuple(map(len, inputs))


@functools.lru_cache(maxsize=None)
def _einsum_plan(spec: str, keys):
    """(cuts, lo): the slices of each operand's tensor axes (None for
    all of it) and the output Box's lo, None when the output is dense."""
    inputs, output, _ = _letters(spec)
    ranges, full = {}, {}
    for letters, (lo, shape) in zip(inputs, keys):
        for c, a, n in zip(letters, lo or (0,) * len(shape), shape):
            lo_c, hi_c = ranges.get(c, (a, a + n))
            ranges[c] = (max(lo_c, a), min(hi_c, a + n))
            if lo is None:
                full[c] = (0, n)
    if any(hi <= lo for lo, hi in ranges.values()):
        ranges = dict.fromkeys(ranges, (0, 0))
    cuts = []
    for letters, (lo, shape) in zip(inputs, keys):
        cut = tuple(
            slice(max(ranges[c][0] - a, 0), max(ranges[c][1] - a, 0))
            for c, a in zip(letters, lo or (0,) * len(shape))
        )
        whole = all(s.start == 0 and s.stop == n for s, n in zip(cut, shape))
        cuts.append(None if whole else cut)
    if all(full.get(c) == ranges[c] for c in output):
        return cuts, None
    return cuts, tuple(ranges[c][0] for c in output)


def _plan_einsum(spec: str, a, b):
    """``_einsum_plan`` of the operands; None for two dense arrays."""
    if type(a) is not Box and type(b) is not Box:
        return None
    ranks = _letters(spec)[2]
    return _einsum_plan(spec, (_key(a, ranks[0]), _key(b, ranks[1])))


def _run_einsum(plan, spec: str, a, b):
    if plan is None:
        return _einsum(spec, a, b)
    (cut_a, cut_b), lo = plan
    a = a.value if type(a) is Box else a
    b = b.value if type(b) is Box else b
    value = _einsum(spec, a if cut_a is None else a[cut_a], b if cut_b is None else b[cut_b])
    return value if lo is None else Box(value, lo)


def box_einsum(spec: str, a, b):
    """``np.einsum(spec, a, b)`` for Boxes and dense arrays, whose
    subscripts end in ``...`` for the lead axes.

    Each letter runs over the intersection of its operands' index
    ranges, so a term with an entry outside a box is not formed; one
    empty intersection drops the whole term, an empty Box.  The result is
    a dense array when every output letter covers the full range of a
    dense operand, else the Box of the output letters.
    """
    return _run_einsum(_plan_einsum(spec, a, b), spec, a, b)


@functools.lru_cache(maxsize=None)
def _sum_plan(keys):
    """(lo, extent, parts): the output Box's lo (None when dense), its
    tensor extent, and (index, part of the output) of each non-empty
    term in order, the part None for all of it."""
    rank = next(len(lo) for lo, _ in keys if lo is not None)
    terms = [
        (k, lo or (0,) * rank, shape)
        for k, (lo, shape) in enumerate(keys)
        if 0 not in shape
    ] or [(0, keys[0][0], keys[0][1])]
    lo = tuple(min(a[i] for _, a, _ in terms) for i in range(rank))
    extent = tuple(max(a[i] + s[i] for _, a, s in terms) - lo[i] for i in range(rank))
    parts = [
        (k, None if s == extent else tuple(
            slice(i - j, i - j + n) for i, j, n in zip(a, lo, s)
        ))
        for k, a, s in terms
    ]
    dense = any(a is None and s == extent for a, s in keys)
    return None if dense else lo, extent, parts


def _plan_sum(terms):
    """``_sum_plan`` of the terms; None when all are dense."""
    rank = next((len(t.lo) for t in terms if type(t) is Box), None)
    if rank is None:
        return None
    return _sum_plan(tuple(_key(t, rank) for t in terms))


def _run_sum(plan, terms, owned: bool):
    if plan is None:
        out = terms[0] if owned else terms[0] + terms[1]
        for term in terms[1 + (not owned):]:
            out += term
        return out
    lo, extent, parts = plan
    (k, where), *rest = parts
    if owned and k == 0 and where is None:
        out = terms[0]
    else:
        values = [t.value if type(t) is Box else t for t in terms]
        lead = np.broadcast_shapes(*(values[k].shape[len(extent):] for k, _ in parts))
        out = (np.empty if where is None else np.zeros)(extent + lead)
        out[where or ...] = values[k]
    for k, where in rest:
        term = terms[k]
        view = out if where is None else out[where]
        view += term.value if type(term) is Box else term
    return out if lo is None else Box(out, lo)


def box_sum(*terms, owned: bool = False):
    """The sum of Boxes and dense arrays of one tensor rank, on the
    bounding box of the non-empty terms: the first is copied into its
    part of that box and the others are added into theirs, in order,
    which is the full sum up to the sign of a zero.  Dense when that box
    is a dense term's.  ``owned`` says the first term is a dense array of
    the sum's shape that the caller gives up to hold the sum."""
    return _run_sum(_plan_sum(terms), terms, owned)


class Plans:
    """``box_einsum`` and ``box_sum`` for one sequence of calls that runs
    again and again on operands with the same boxes, as ``propagate``
    runs on the local maps of one ``dual_batch``.  Making a plan costs
    about as much as a contraction over a few rows, so the plans are made
    on the first run and read in order on the next; ``at = 0`` starts a
    run.  One lives as long as its operands' boxes, never longer."""

    __slots__ = ("plans", "at")

    def __init__(self):
        self.plans, self.at = [], 0

    def _next(self, make, *args):
        at = self.at
        self.at = at + 1
        if at == len(self.plans):
            self.plans.append(make(*args))
        return self.plans[at]

    def einsum(self, spec: str, a, b):
        return _run_einsum(self._next(_plan_einsum, spec, a, b), spec, a, b)

    def sum(self, *terms, owned: bool = False):
        return _run_sum(self._next(_plan_sum, terms), terms, owned)


def _scale(s, x):
    """``s * x`` for a Box or a dense array, ``s`` over the lead axes."""
    return Box(s * x.value, x.lo) if isinstance(x, Box) else s * x


def _swap(x, i: int, j: int):
    """Tensor axes ``i`` and ``j`` of a Box or a dense array swapped."""
    if not isinstance(x, Box):
        return np.swapaxes(x, i, j)
    lo = list(x.lo)
    lo[i], lo[j] = lo[j], lo[i]
    return Box(np.swapaxes(x.value, i, j), tuple(lo))


def _dense(x, d: int):
    """A Box as the full (d, ..., d, lead...) array; a dense array as is."""
    if not isinstance(x, Box):
        return x
    rank = len(x.lo)
    if x.value.shape[:rank] == (d,) * rank:
        return x.value
    out = np.zeros((d,) * rank + x.value.shape[rank:])
    out[tuple(slice(a, a + n) for a, n in zip(x.lo, x.value.shape))] = x.value
    return out


def _stack_calls(model, names, t, x, z=None, running=None):
    """Evaluate callbacks at every (t, x[, z]) point in one call each,
    returned rows last.

    Without ``running``, ``t`` holds K points, and each result is stored
    as a contiguous (t..., K) array: its tensor axes first, the points
    last.  With ``running``, the k_p of a block of rows ordered longest
    first (``PathBatch.running()``) for a (B, n) ``t``, only the first
    k_p points of each column p are evaluated, and each result is
    packed: (t..., K) for the K = k_0 + ... + k_{n-1} points, step by
    step, the kernel's packed layout (see ``dual_batch``).  Each input
    is copied once (with ``running``, a column's first k_p points at a
    time).  A callback with a declared support is stored as the ``Box``
    of its bounding box, and one with an empty support is not called.
    Each value is converted as soon as it is evaluated, so at most one
    rows-first copy is alive.  The model's callbacks must broadcast over
    rows (see ``as_vectorized``).
    """
    arrays = [np.asarray(a) for a in ([t, x] if z is None else [t, x, z])]
    if running is None:
        args = [a.copy() for a in arrays]
    else:
        running = list(running)
        args = [np.concatenate([a[:k, p] for p, k in enumerate(running)]) for a in arrays]
    out = {}
    for name in names:
        box = model.derivative_box(name)
        if model.derivative_support.get(name) == ():
            out[name] = Box(np.zeros((0,) * len(box) + (len(args[0]),)), (0,) * len(box))
            continue
        value = _rows_last(np.asarray(getattr(model, name)(*args), float), 1, box)
        out[name] = value if box is None else Box(value, tuple(s.start for s in box))
    return out


def _eye(d: int, nlead: int) -> Array:
    """The d x d identity, broadcastable over ``nlead`` trailing lead axes."""
    return np.eye(d).reshape((d, d) + (1,) * nlead)


def euler_map_derivatives(cb: dict, dt, dw, order: int = 3):
    """Derivatives of the local Euler map A(x) = x + a dt + b dW from
    evaluated callbacks, rows last.

    ``cb`` holds drift_x and diffusion_x (and the second and third
    derivatives up to ``order``), dense or as Boxes, with their tensor
    axes first and any trailing lead axes, which ``dt`` and ``dw``
    (shaped (l, lead...)) share.  Returns (A1, A2, A3): Jacobian I + dt
    drift_x + dW^l diffusion_x[:,l,:], then the same contraction of the
    higher derivative stacks, dense or as Boxes; entries above ``order``
    are None.
    """
    dt = np.asarray(dt, float)
    d = len(cb["drift_x"])
    A = [
        box_sum(
            _eye(d, dt.ndim) + dt * cb["drift_x"],
            box_einsum("l...,ilj...->ij...", dw, cb["diffusion_x"]),
            owned=True,
        )
    ]
    for k, axes in ((2, "jk"), (3, "jkm"))[: order - 1]:
        x = "x" * k
        A.append(
            box_sum(
                _scale(dt, cb["drift_" + x]),
                box_einsum(f"l...,il{axes}...->i{axes}...", dw, cb["diffusion_" + x]),
            )
        )
    return tuple(A + [None] * (3 - order))


def jump_map_derivatives(cb: dict, order: int = 3):
    """Derivatives (C1, C2, C3) of the local jump map C(x) = x + c(t, x, z)
    from evaluated jump_x (jump_xx, jump_xxx) callbacks, rows last as in
    ``euler_map_derivatives``; entries above ``order`` are None."""
    c_x = cb["jump_x"]
    C1 = _eye(len(c_x), c_x.ndim - 2) + c_x
    C2 = cb["jump_xx"] if order >= 2 else None
    C3 = cb["jump_xxx"] if order >= 3 else None
    return C1, C2, C3


def propagate(G, phi, plans=None):
    """One backward block for B rows: pull the weights ``phi`` = (phi[,
    phi'[, phi'']]) through local maps with derivatives ``G`` = (G1[,
    G2[, G3]]), all rows last: tensor axes first, the row axis at the
    end.  The length of ``phi`` is the order.  G2 and G3 may be Boxes;
    G1 and the weights are dense, and so are the results.  ``plans``
    (``Plans``) carries the box plans from call to call while ``G``
    keeps its boxes and ``phi`` its order; without it, each call plans
    afresh."""
    ops = Plans() if plans is None else plans
    ops.at = 0
    G1 = G[0]
    out = [ops.einsum("ji...,j...->i...", G1, phi[0])]
    if len(phi) >= 2:
        v = ops.einsum("ji...,jp...->ip...", G1, phi[1])
        out.append(
            ops.sum(
                ops.einsum("ip...,pk...->ik...", v, G1),
                ops.einsum("jik...,j...->ik...", G[1], phi[0]),
                owned=True,
            )
        )
    if len(phi) >= 3:
        t0 = ops.einsum("ji...,jpr...->ipr...", G1, phi[2])
        t0 = ops.einsum("ipr...,pk...->ikr...", t0, G1)
        t0 = ops.einsum("ikr...,rm...->ikm...", t0, G1)
        term2 = ops.einsum("ip...,pkm...->ikm...", v, G[1])
        u = ops.einsum("jik...,jp...->ikp...", G[1], phi[1])
        w = ops.einsum("ikp...,pm...->ikm...", u, G1)
        out.append(
            ops.sum(
                t0, term2, w, _swap(w, 1, 2),
                ops.einsum("jikm...,j...->ikm...", G[2], phi[0]),
                owned=True,
            )
        )
    return out


def dual_batch(model, cb: dict, paths, values: Array, left: Array, order: int = 3):
    """Backward dual sweep for a block of B paths at once, rows last.

    The rows of ``paths`` are ordered by descending step count, so the
    rows that take step p are the first k_p.  Every per-step array is
    packed rows last, (t..., K) over the K = k_0 + ... + k_{n-1} steps
    the rows take, step p the slice ``[..., o_p:o_p + k_p]`` at offset
    o_p = k_0 + ... + k_{p-1}; no padding is held, and equal step counts
    are the case k_p = B, the (t..., n, B) array flattened.  ``cb`` holds
    the Euler-map callbacks of ``order`` evaluated at the nodes (t_n,
    X(t_n)) of those steps, as ``_stack_calls(..., running=paths.running())``
    packs them; the third-derivative entries are dropped from it once
    A3 is formed, since nothing else reads them.  ``values`` and ``left``
    are the forward layer's (B, n+1, d) node values and left limits.
    Jump-map and payoff derivatives are evaluated here, at the jump left
    limits and at each row's X(T), from which the row's sweep starts.
    Only left-limit weights are stored.

    Returns (stores, first, at_jumps).  ``stores`` and ``first`` are
    lists (phi[, phi'[, phi'']]) up to ``order``: the packed (t..., K)
    left-limit weights at the right node of each step, and the (t..., B)
    left-limit weights at node 0.  ``at_jumps`` lists
    (node, weights) for every jump node: the (t..., k) node weights,
    before the jump block, of the k rows that jump there (in row order);
    only there do node and left-limit weights differ.  Arithmetic is
    row-wise.
    """
    d = model.dim
    running = paths.running().tolist()
    offsets = np.cumsum([0] + running).tolist()
    # the steps the rows take, packed step by step: np.compress along the
    # flat (n, B) axis keeps the (l, K) increments rows last, where
    # [:, mask] would lay them out rows first
    real = paths.real().T.ravel()
    dt = np.compress(real, _rows_last(paths.dt, 2))
    dw = _rows_last(paths.dw, 2)
    dw = np.compress(real, dw.reshape(len(dw), -1), axis=-1)
    A = euler_map_derivatives(cb, dt, dw, order)[:order]
    cb.pop("drift_xxx", None)
    cb.pop("diffusion_xxx", None)
    # the jumps node by node, each node's rows in order: a node's jump
    # block takes one contiguous slice of them
    jnodes, jrows = np.nonzero(paths.jump_flag.T)
    per_node = np.bincount(jnodes).tolist()
    ends = np.cumsum(per_node).tolist()
    jump_at = {n: slice(e - k, e) for n, (k, e) in enumerate(zip(per_node, ends)) if k}
    if jump_at:
        C = jump_map_derivatives(
            _stack_calls(
                model,
                _jump_map_callbacks(order),
                paths.times[jrows, jnodes],
                left[jrows, jnodes],
                paths.marks[jrows, jnodes],
            ),
            order,
        )[:order]
    x_T = terminal_values(paths, values)
    start = [
        _rows_last(np.asarray(getattr(model, name)(x_T), float), 1)
        for name in ("payoff_x", "payoff_xx", "payoff_xxx")[:order]
    ]
    stores = [np.empty((d,) * (k + 1) + (offsets[-1],)) for k in range(order)]
    at_jumps = []
    # the boxes of A and of C are fixed for the sweep: plan each once
    euler_plans, jump_plans = Plans(), Plans()

    def jump_block(node, phi):
        # np.take keeps the gathered rows last and contiguous; w[..., rows]
        # is rows first, on which this block ran about 8x slower (950-1,050
        # against 118-135 us at 771 rows).  ``pre`` is a copy, so the weights
        # after the jump go into ``phi`` in place: where ``phi`` is a view
        # of ``start`` (the first rows to join), later joins read only the
        # columns of ``start`` past the current width.
        sel = jump_at[node]
        rows = jrows[sel]
        pre = [np.take(w, rows, axis=-1) for w in phi]
        at_jumps.append((node, pre))
        for w, post in zip(phi, propagate([c[..., sel] for c in C], pre, jump_plans)):
            w[..., rows] = post

    phi = [w[..., :0] for w in start]  # the weights of the rows swept so far
    for p, k in reversed(list(enumerate(running))):
        at = offsets[p]
        j = phi[0].shape[-1]
        if k > j:  # the rows whose last node is p + 1 join
            phi = [
                s[..., :k] if j == 0 else np.concatenate([w, s[..., j:k]], -1)
                for w, s in zip(phi, start)
            ]
        if p + 1 in jump_at:
            jump_block(p + 1, phi)
        for store, w in zip(stores, phi):
            store[..., at : at + k] = w
        phi = propagate([a[..., at : at + k] for a in A], phi, euler_plans)
    if 0 in jump_at:
        jump_block(0, phi)
    return stores, phi, at_jumps


def backward_duals(
    model: JumpDiffusionModel,
    path: EulerPath,
    order: int = 3,
) -> DualWeights:
    """Dual weights of the given order along one simulated path.

    Starts from the payoff derivatives at X(T) and sweeps backward,
    applying the jump block at jump left-limits, the identity otherwise,
    and the Euler block across every step (``dual_batch`` with one row).
    Cost is linear in the number of steps.  Raises CapabilityError when
    the model lacks the derivative callbacks the order needs,
    ParameterError for an unsupported order.
    """
    _check_order(order)
    grid = path.grid
    model.require(*_required_callbacks(order, with_jumps=grid.n_jumps > 0))
    model = as_vectorized(model)
    paths = stack_paths(model, [grid], [path.increments])
    values = path.values[None]
    # one row's steps, packed, are its (t..., n) rows-last arrays
    cb = _stack_calls(model, _euler_map_callbacks(order), grid.times[:-1], path.values[:-1])
    stores, first, at_jumps = dual_batch(
        model, cb, paths, values, path.left_values[None], order
    )
    weights = {}
    for k, name in enumerate(("phi", "phi1", "phi2")[:order]):
        # rows last (t..., n) and (t..., 1) -> the (N_A + 1, t...) node layout
        left = np.concatenate([first[k][None, ..., 0], _rows_first(stores[k], 1)])
        node = left.copy()
        for n, pre in at_jumps:
            node[n] = pre[k][..., 0]
        weights[name] = node
        weights[name + "_left"] = left
    return DualWeights(order=order, **weights)
