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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .euler import EulerPath
from .model import JumpDiffusionModel, _row_loop

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


def _required_callbacks(order: int, with_jumps: bool):
    names = ["drift_x", "diffusion_x", "payoff_x"]
    if with_jumps:
        names.append("jump_x")
    if order >= 2:
        names += ["drift_xx", "diffusion_xx", "payoff_xx"]
        if with_jumps:
            names.append("jump_xx")
    if order >= 3:
        names += ["drift_xxx", "diffusion_xxx", "payoff_xxx"]
        if with_jumps:
            names.append("jump_xxx")
    return names


def _stack_calls(model, names, t, x, z=None):
    """Evaluate callbacks over all rows of (t, x[, z]) at once or by loop."""
    out = {}
    for name in names:
        fn = getattr(model, name)
        if not model.vectorized:
            fn = _row_loop(fn)
        out[name] = np.asarray(fn(t, x) if z is None else fn(t, x, z), float)
    return out


def euler_operator_derivatives(
    model: JumpDiffusionModel, t: float, x: Array, dt: float, dw: Array, order: int = 3
):
    """Derivatives of the local Euler map A(x) = x + a dt + b dW at (t, x).

    Returns (A1, A2, A3): Jacobian I + dt drift_x + dW^l diffusion_x[:,l,:],
    then the same contraction of the second and third derivative stacks.
    Entries above ``order`` are None.  Missing model callbacks raise a
    capability error.
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"order must be 1, 2 or 3, got {order}")
    names = ["drift_x", "diffusion_x"]
    if order >= 2:
        names += ["drift_xx", "diffusion_xx"]
    if order >= 3:
        names += ["drift_xxx", "diffusion_xxx"]
    model.require(*names)
    d = model.dim
    dw = np.asarray(dw, float)
    a_x = np.asarray(model.drift_x(t, x), float)
    b_x = np.asarray(model.diffusion_x(t, x), float)
    A1 = np.eye(d) + dt * a_x + np.einsum("l,ilj->ij", dw, b_x)
    A2 = A3 = None
    if order >= 2:
        A2 = dt * np.asarray(model.drift_xx(t, x), float) + np.einsum(
            "l,iljk->ijk", dw, np.asarray(model.diffusion_xx(t, x), float)
        )
    if order >= 3:
        A3 = dt * np.asarray(model.drift_xxx(t, x), float) + np.einsum(
            "l,iljkm->ijkm", dw, np.asarray(model.diffusion_xxx(t, x), float)
        )
    return A1, A2, A3


def jump_operator_derivatives(
    model: JumpDiffusionModel, t: float, x: Array, z: Array, order: int = 3
):
    """Derivatives of the local jump map C(x) = x + c(t, x, z).

    Returns (C1, C2, C3) with entries above ``order`` None.
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"order must be 1, 2 or 3, got {order}")
    names = ["jump_x"] + (["jump_xx"] if order >= 2 else []) + (
        ["jump_xxx"] if order >= 3 else []
    )
    model.require(*names)
    C1 = np.eye(model.dim) + np.asarray(model.jump_x(t, x, z), float)
    C2 = np.asarray(model.jump_xx(t, x, z), float) if order >= 2 else None
    C3 = np.asarray(model.jump_xxx(t, x, z), float) if order >= 3 else None
    return C1, C2, C3


def _euler_stacks(model, grid, path, order):
    """Stacked local-map derivatives over all steps at once."""
    t = grid.times[:-1]
    x = path.values[:-1]
    dt = grid.dt
    dw = path.increments
    names = ["drift_x", "diffusion_x"]
    if order >= 2:
        names += ["drift_xx", "diffusion_xx"]
    if order >= 3:
        names += ["drift_xxx", "diffusion_xxx"]
    cb = _stack_calls(model, names, t, x)
    eye = np.eye(model.dim)
    A1 = eye + dt[:, None, None] * cb["drift_x"] + np.einsum(
        "nl,nilj->nij", dw, cb["diffusion_x"]
    )
    A2 = A3 = None
    if order >= 2:
        A2 = dt[:, None, None, None] * cb["drift_xx"] + np.einsum(
            "nl,niljk->nijk", dw, cb["diffusion_xx"]
        )
    if order >= 3:
        A3 = dt[:, None, None, None, None] * cb["drift_xxx"] + np.einsum(
            "nl,niljkm->nijkm", dw, cb["diffusion_xxx"]
        )
    return A1, A2, A3


def _jump_stacks(model, grid, path, order):
    nodes = np.nonzero(grid.jump_index >= 0)[0]
    if len(nodes) == 0:
        return nodes, None, None, None
    t = grid.times[nodes]
    x = path.left_values[nodes]
    z = grid.marks[grid.jump_index[nodes]]
    names = ["jump_x"]
    if order >= 2:
        names += ["jump_xx"]
    if order >= 3:
        names += ["jump_xxx"]
    cb = _stack_calls(model, names, t, x, z)
    C1 = np.eye(model.dim) + cb["jump_x"]
    C2 = cb.get("jump_xx")
    C3 = cb.get("jump_xxx")
    return nodes, C1, C2, C3


def _propagate(G1, G2, G3, phi, phi1, phi2, order):
    """One backward block: pull (phi, phi', phi'') through a local map."""
    G1T = G1.T
    p = G1T @ phi
    p1 = p2 = None
    if order >= 2:
        p1 = G1T @ phi1 @ G1 + np.tensordot(phi, G2, axes=(0, 0))
    if order >= 3:
        t0 = np.tensordot(G1, phi2, axes=(0, 0))
        t0 = np.tensordot(t0, G1, axes=(1, 0))
        t0 = np.tensordot(t0, G1, axes=(1, 0))
        term2 = np.tensordot(G1T @ phi1, G2, axes=(1, 0))
        w = np.tensordot(G2, phi1, axes=(0, 0))
        w = np.tensordot(w, G1, axes=(2, 0))
        p2 = t0 + term2 + w + w.transpose(0, 2, 1) + np.tensordot(
            phi, G3, axes=(0, 0)
        )
    return p, p1, p2


def backward_duals(
    model: JumpDiffusionModel,
    path: EulerPath,
    order: int = 3,
) -> DualWeights:
    """Dual weights of the given order along one simulated path.

    Starts from the payoff derivatives at X(T) and sweeps backward,
    applying the jump block at jump left-limits, the identity otherwise,
    and the Euler block across every step.  Cost is linear in the number
    of steps.  Raises CapabilityError when the model lacks the derivative
    callbacks the order needs, ParameterError for an unsupported order.
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"dual order must be 1, 2 or 3, got {order}")
    grid = path.grid
    model.require(*_required_callbacks(order, with_jumps=grid.n_jumps > 0))

    n_steps = grid.n_steps
    d = model.dim
    A1, A2, A3 = _euler_stacks(model, grid, path, order)
    jump_nodes, C1, C2, C3 = _jump_stacks(model, grid, path, order)
    jump_slot = {int(node): i for i, node in enumerate(jump_nodes)}

    phi = np.empty((n_steps + 1, d))
    phi_left = np.empty((n_steps + 1, d))
    phi1 = phi1_left = phi2 = phi2_left = None
    if order >= 2:
        phi1 = np.empty((n_steps + 1, d, d))
        phi1_left = np.empty((n_steps + 1, d, d))
    if order >= 3:
        phi2 = np.empty((n_steps + 1, d, d, d))
        phi2_left = np.empty((n_steps + 1, d, d, d))

    x_T = path.values[-1]
    p = np.asarray(model.payoff_x(x_T), float)
    p1 = np.asarray(model.payoff_xx(x_T), float) if order >= 2 else None
    p2 = np.asarray(model.payoff_xxx(x_T), float) if order >= 3 else None

    def store(arrays, node, a, b, c):
        arrays[0][node] = a
        if order >= 2:
            arrays[1][node] = b
        if order >= 3:
            arrays[2][node] = c

    node_arrays = (phi, phi1, phi2)
    left_arrays = (phi_left, phi1_left, phi2_left)

    def jump_block(node, a, b, c):
        slot = jump_slot.get(node)
        if slot is None:
            return a, b, c
        return _propagate(
            C1[slot],
            C2[slot] if order >= 2 else None,
            C3[slot] if order >= 3 else None,
            a,
            b,
            c,
            order,
        )

    store(node_arrays, n_steps, p, p1, p2)
    for n in range(n_steps - 1, -1, -1):
        p, p1, p2 = jump_block(n + 1, p, p1, p2)
        store(left_arrays, n + 1, p, p1, p2)
        p, p1, p2 = _propagate(
            A1[n],
            A2[n] if order >= 2 else None,
            A3[n] if order >= 3 else None,
            p,
            p1,
            p2,
            order,
        )
        store(node_arrays, n, p, p1, p2)

    p, p1, p2 = jump_block(0, p, p1, p2)
    store(left_arrays, 0, p, p1, p2)

    return DualWeights(
        order=order,
        phi=phi,
        phi_left=phi_left,
        phi1=phi1,
        phi1_left=phi1_left,
        phi2=phi2,
        phi2_left=phi2_left,
    )
