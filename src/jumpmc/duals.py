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

``dual_batch`` sweeps B same-length paths at once from callback values
already evaluated; it is the dual layer of both drivers, and
``backward_duals`` is its one-row case.  ``euler_map_derivatives`` and
``jump_map_derivatives`` are the one implementation of each local map's
derivatives, shared with the pointwise ``*_operator_derivatives``.
Callbacks a model declares in ``zero_derivatives`` are never evaluated:
they are absent from the evaluated dict, and the term each enters is
dropped (an A2 or A3 with both terms absent is zeros).

The batched arrays are rows last: tensor axes first, then the trailing
lead axes, (d, d, n, B) for a Jacobian at the (B, n) nodes of B paths.
Every contraction then runs its inner loop over the contiguous rows,
and a step slice ``[..., p, :]`` is one contiguous block.  A pointwise
array is the case with no lead axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .euler import EulerPath, stack_paths
from .model import JumpDiffusionModel, as_vectorized

Array = np.ndarray


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


def _rows_last(value: Array, nlead: int) -> Array:
    """Contiguous copy of ``value`` with its ``nlead`` leading axes moved,
    reversed, to the end: (B, n, t...) -> (t..., n, B)."""
    axes = tuple(range(nlead, value.ndim)) + tuple(range(nlead - 1, -1, -1))
    return np.ascontiguousarray(value.transpose(axes))


def _rows_first(value: Array, nlead: int) -> Array:
    """Inverse of ``_rows_last``: (t..., n, B) -> contiguous (B, n, t...)."""
    k = value.ndim - nlead
    axes = tuple(range(value.ndim - 1, k - 1, -1)) + tuple(range(k))
    return np.ascontiguousarray(value.transpose(axes))


def _stack_calls(model, names, t, x, z=None):
    """Evaluate callbacks at every (t, x[, z]) point in one call each,
    returned rows last.

    ``t`` may carry several leading axes, (B, n) say; the points are
    flattened for the call, and each result is stored as a contiguous
    array with its tensor axes first and those axes, reversed, as
    trailing lead axes: (t..., n, B), or (t..., K) for K points.  Each value is
    converted as soon as it is evaluated, so at most one rows-first copy
    is alive.  Names the model declares in ``zero_derivatives`` are
    skipped: they are absent from the result.  The model's callbacks must
    broadcast over rows (see ``as_vectorized``).
    """
    t = np.asarray(t)
    lead = t.shape
    args = (t.reshape(-1), x.reshape(t.size, -1))
    if z is not None:
        args += (z.reshape(t.size, -1),)
    out = {}
    for name in names:
        if name in model.zero_derivatives:
            continue
        value = np.asarray(getattr(model, name)(*args), float)
        out[name] = _rows_last(value.reshape(lead + value.shape[1:]), len(lead))
    return out


def _eye(d: int, nlead: int) -> Array:
    """The d x d identity, broadcastable over ``nlead`` trailing lead axes."""
    return np.eye(d).reshape((d, d) + (1,) * nlead)


def euler_map_derivatives(cb: dict, dt, dw, order: int = 3):
    """Derivatives of the local Euler map A(x) = x + a dt + b dW from
    evaluated callbacks, rows last.

    ``cb`` holds drift_x and diffusion_x (and the second and third
    derivatives up to ``order``) with their tensor axes first and any
    trailing lead axes, which ``dt`` and ``dw`` (shaped (l, lead...))
    share.  Returns (A1, A2, A3): Jacobian I + dt drift_x +
    dW^l diffusion_x[:,l,:], then the same contraction of the higher
    derivative stacks; entries above ``order`` are None.  A higher
    derivative absent from ``cb`` (declared zero) drops its term.
    """
    dt = np.asarray(dt, float)
    a_x = cb["drift_x"]
    A1 = _eye(len(a_x), dt.ndim) + dt * a_x + np.einsum(
        "l...,ilj...->ij...", dw, cb["diffusion_x"]
    )

    def higher(k, spec):
        # dt a^(k) + dW^l b^(k)[:, l], without the terms declared zero
        a_k, b_k = cb.get("drift_" + "x" * k), cb.get("diffusion_" + "x" * k)
        terms = [] if a_k is None else [dt * a_k]
        if b_k is not None:
            terms.append(np.einsum(spec, dw, b_k))
        if not terms:
            return np.zeros((len(a_x),) * (k + 1) + dt.shape)
        return terms[0] if len(terms) == 1 else terms[0] + terms[1]

    A2 = higher(2, "l...,iljk...->ijk...") if order >= 2 else None
    A3 = higher(3, "l...,iljkm...->ijkm...") if order >= 3 else None
    return A1, A2, A3


def jump_map_derivatives(cb: dict, order: int = 3):
    """Derivatives (C1, C2, C3) of the local jump map C(x) = x + c(t, x, z)
    from evaluated jump_x (jump_xx, jump_xxx) callbacks, rows last as in
    ``euler_map_derivatives``; entries above ``order`` are None."""
    c_x = cb["jump_x"]
    C1 = _eye(len(c_x), c_x.ndim - 2) + c_x
    C2 = cb["jump_xx"] if order >= 2 else None
    C3 = cb["jump_xxx"] if order >= 3 else None
    return C1, C2, C3


def euler_operator_derivatives(
    model: JumpDiffusionModel, t: float, x: Array, dt: float, dw: Array, order: int = 3
):
    """Derivatives of the local Euler map A(x) = x + a dt + b dW at (t, x).

    See :func:`euler_map_derivatives`.  Missing model callbacks raise a
    capability error.
    """
    _check_order(order)
    names = _euler_map_callbacks(order)
    model.require(*names)
    cb = {
        name: np.asarray(getattr(model, name)(t, x), float)
        for name in names
        if name not in model.zero_derivatives
    }
    return euler_map_derivatives(cb, dt, np.asarray(dw, float), order)


def jump_operator_derivatives(
    model: JumpDiffusionModel, t: float, x: Array, z: Array, order: int = 3
):
    """Derivatives of the local jump map C(x) = x + c(t, x, z).

    Returns (C1, C2, C3) with entries above ``order`` None.
    """
    _check_order(order)
    names = _jump_map_callbacks(order)
    model.require(*names)
    cb = {name: np.asarray(getattr(model, name)(t, x, z), float) for name in names}
    return jump_map_derivatives(cb, order)


def propagate(G, phi):
    """One backward block for B rows: pull the weights ``phi`` = (phi[,
    phi'[, phi'']]) through local maps with derivatives ``G`` = (G1[,
    G2[, G3]]), all rows last: tensor axes first, the row axis at the
    end.  The length of ``phi`` is the order."""
    G1 = G[0]
    out = [np.einsum("ji...,j...->i...", G1, phi[0])]
    if len(phi) >= 2:
        v = np.einsum("ji...,jp...->ip...", G1, phi[1])
        out.append(
            np.einsum("ip...,pk...->ik...", v, G1) + np.einsum("jik...,j...->ik...", G[1], phi[0])
        )
    if len(phi) >= 3:
        t0 = np.einsum("ji...,jpr...->ipr...", G1, phi[2])
        t0 = np.einsum("ipr...,pk...->ikr...", t0, G1)
        t0 = np.einsum("ikr...,rm...->ikm...", t0, G1)
        term2 = np.einsum("ip...,pkm...->ikm...", v, G[1])
        u = np.einsum("jik...,jp...->ikp...", G[1], phi[1])
        w = np.einsum("ikp...,pm...->ikm...", u, G1)
        out.append(
            t0
            + term2
            + w
            + np.swapaxes(w, 1, 2)
            + np.einsum("jikm...,j...->ikm...", G[2], phi[0])
        )
    return out


def dual_batch(model, cb: dict, paths, values: Array, left: Array, order: int = 3):
    """Backward dual sweep for B same-length paths at once, rows last.

    ``cb`` holds the Euler-map callbacks of ``order`` evaluated at the
    (B, n) nodes (t_n, X(t_n)), n < N, as ``_stack_calls`` returns them
    (t..., n, B); the third-derivative entries are dropped from it once
    A3 is formed, since nothing else reads them.  ``values`` and ``left``
    are the forward layer's (B, n+1, d) node values and left limits.
    Jump-map and payoff derivatives are evaluated here, at the jump left
    limits and at X(T).  Only left-limit weights are stored.

    Returns (stores, first, at_jumps).  ``stores`` and ``first`` are
    lists (phi[, phi'[, phi'']]) up to ``order``: the (t..., n, B)
    left-limit weights at nodes 1..N and the (t..., B) left-limit weights
    at node 0.  ``at_jumps`` lists (node, weights) for every jump node:
    the (t..., k) node weights, before the jump block, of the k rows that
    jump there (in row order); only there do node and left-limit weights
    differ.  Arithmetic is row-wise.
    """
    B, n = paths.dt.shape
    d = model.dim
    dt, dw = _rows_last(paths.dt, 2), _rows_last(paths.dw, 2)
    A = euler_map_derivatives(cb, dt, dw, order)[:order]
    cb.pop("drift_xxx", None)
    cb.pop("diffusion_xxx", None)
    jrows, jnodes = np.nonzero(paths.jump_flag)
    jump_at = set(jnodes.tolist())
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
    x_T = values[:, -1]
    phi = [
        _rows_last(np.asarray(getattr(model, name)(x_T), float), 1)
        for name in ("payoff_x", "payoff_xx", "payoff_xxx")[:order]
    ]
    stores = [np.empty((d,) * (k + 1) + (n, B)) for k in range(order)]
    at_jumps = []

    def jump_block(node, phi):
        sel = np.nonzero(jnodes == node)[0]
        rows = jrows[sel]
        pre = [w[..., rows] for w in phi]
        at_jumps.append((node, pre))
        phi = [w.copy() for w in phi]
        for w, post in zip(phi, propagate([c[..., sel] for c in C], pre)):
            w[..., rows] = post
        return phi

    for p in range(n - 1, -1, -1):
        if p + 1 in jump_at:
            phi = jump_block(p + 1, phi)
        for store, w in zip(stores, phi):
            store[..., p, :] = w
        phi = propagate([a[..., p, :] for a in A], phi)
    if 0 in jump_at:
        phi = jump_block(0, phi)
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
    cb = _stack_calls(model, _euler_map_callbacks(order), paths.times[:, :-1], values[:, :-1])
    stores, first, at_jumps = dual_batch(
        model, cb, paths, values, path.left_values[None], order
    )
    weights = {}
    for k, name in enumerate(("phi", "phi1", "phi2")[:order]):
        # rows last (t..., [n,] 1) -> the (N_A + 1, t...) node layout
        left = np.concatenate([first[k][None, ..., 0], _rows_first(stores[k][..., 0], 1)])
        node = left.copy()
        for n, pre in at_jumps:
            node[n] = pre[k][..., 0]
        weights[name] = node
        weights[name + "_left"] = left
    return DualWeights(order=order, **weights)
