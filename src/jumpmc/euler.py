"""Forward Euler simulation on an augmented grid.

The scheme advances between grid nodes with the explicit Euler map and
applies jumps at jump nodes:

    X(t_{n+1}-) = X(t_n) + a(t_n, X(t_n)) dt_n + b(t_n, X(t_n)) dW_n
    X(t_{n+1})  = X(t_{n+1}-) + c(t_{n+1}, X(t_{n+1}-), Z_k)   (jump node)

Both the node values and the left limits are kept, because the dual
weights and the error densities are evaluated on the left limits.
Meshes refine by bisection only, with midpoint Wiener values drawn from
the Brownian bridge so coarse and fine paths stay consistent in law.

``euler_batch`` steps B same-length paths at once, stacked into a
``PathBatch`` (from one-row grids by ``stack_paths``, or from the arrays
of a ``jumps.GridGroup``); it is the forward layer of both drivers, and
``euler_path`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PathDivergenceError, RefinementDepthError
from .jumps import AugmentedGrid
from .model import JumpDiffusionModel, as_vectorized

Array = np.ndarray

DIVERGENCE_BOUND = 1e154  # keeps |x|^2-like payoffs representable
MIN_STEP_FRACTION = 2.0 ** -30  # step floor, relative to the horizon


@dataclass(frozen=True)
class EulerPath:
    """One Euler path: grid, increments, node values and left limits."""

    grid: AugmentedGrid
    increments: Array  # (N_A, wiener_dim)
    values: Array  # (N_A + 1, d), post-jump
    left_values: Array  # (N_A + 1, d); index 0 repeats the start value

    @property
    def initial_state(self) -> Array:
        return self.left_values[0]

    @property
    def terminal(self) -> Array:
        return self.values[-1]


def sample_wiener_increments(
    grid: AugmentedGrid, rng: np.random.Generator, wiener_dim: int
) -> Array:
    """Gaussian increments with variance dt per step, shape (n, wiener_dim)."""
    dt = grid.dt if isinstance(grid, AugmentedGrid) else np.asarray(grid, float)
    z = rng.standard_normal((len(dt), wiener_dim))
    return z * np.sqrt(dt)[:, None]


@dataclass(frozen=True)
class PathBatch:
    """B same-length paths of n steps as stacked node arrays.

    ``marks`` holds each jump node's mark and zeros elsewhere.
    """

    times: Array  # (B, n + 1)
    dw: Array  # (B, n, wiener_dim)
    jump_flag: Array  # (B, n + 1) bool
    marks: Array  # (B, n + 1, mark_dim)
    dt: Array  # (B, n)


def stack_paths(model: JumpDiffusionModel, grids, dws) -> PathBatch:
    """Stack the grids and increments of same-length paths."""
    times = np.stack([g.times for g in grids])
    jump_flag = np.stack([g.jump_index >= 0 for g in grids])
    marks = np.zeros(times.shape + (model.mark_dim,))
    for b, g in enumerate(grids):
        nodes = np.nonzero(g.jump_index >= 0)[0]
        marks[b, nodes] = g.marks[g.jump_index[nodes]]
    return PathBatch(times, np.stack(dws), jump_flag, marks, np.diff(times, axis=1))


def euler_batch(
    model: JumpDiffusionModel, paths: PathBatch, x0: Array = None, realizations=None
):
    """Run the Euler scheme along B same-length paths at once.

    Returns (values, left), the (B, n+1, d) node values and left limits.
    The model's callbacks must broadcast over rows (see ``as_vectorized``).
    ``realizations`` are the rows' absolute indices, named by
    PathDivergenceError (None when the rows have none).  Arithmetic is
    row-wise, so each row's numbers do not depend on the rows it shares
    the batch with.
    """
    times, dw, jump_flag, marks, dt = (
        paths.times, paths.dw, paths.jump_flag, paths.marks, paths.dt
    )
    B, n = dw.shape[:2]
    d = model.dim
    values = np.empty((B, n + 1, d))
    left = np.empty((B, n + 1, d))
    x = np.broadcast_to(model.x0 if x0 is None else x0, (B, d)).astype(float)
    left[:, 0] = x
    if jump_flag[:, 0].any():
        idx = np.nonzero(jump_flag[:, 0])[0]
        x[idx] += np.asarray(model.jump(times[idx, 0], x[idx], marks[idx, 0]), float)
    values[:, 0] = x

    for p in range(n):
        tcol = times[:, p]
        a = np.asarray(model.drift(tcol, x), float)
        bmat = np.asarray(model.diffusion(tcol, x), float)
        xl = x + a * dt[:, p, None] + np.einsum("bil,bl->bi", bmat, dw[:, p])
        bad = ~np.isfinite(xl).all(axis=1) | (np.abs(xl).max(axis=1) > DIVERGENCE_BOUND)
        if bad.any():
            row = int(np.nonzero(bad)[0][0])
            which = None if realizations is None else realizations[row]
            where = f"t={times[row, p + 1]:g}"
            if which is not None:
                where += f", realization {which}"
            raise PathDivergenceError(
                f"path diverged at step {p} ({where})", step=p, realization=which
            )
        mask = jump_flag[:, p + 1]
        if mask.any():
            idx = np.nonzero(mask)[0]
            x = xl.copy()
            x[idx] = xl[idx] + np.asarray(
                model.jump(times[idx, p + 1], xl[idx], marks[idx, p + 1]), float
            )
        else:
            x = xl
        left[:, p + 1] = xl
        values[:, p + 1] = x
    return values, left


def euler_path(
    model: JumpDiffusionModel,
    grid: AugmentedGrid,
    dw: Array,
    x0: Array = None,
) -> EulerPath:
    """Run the Euler scheme along one augmented grid (``euler_batch`` with
    one row)."""
    dw = np.asarray(dw, float)
    if dw.shape != (grid.n_steps, model.wiener_dim):
        raise ParameterError(
            f"increments must have shape ({grid.n_steps}, {model.wiener_dim}), "
            f"got {dw.shape}"
        )
    model = as_vectorized(model)
    values, left = euler_batch(model, stack_paths(model, [grid], [dw]), x0)
    return EulerPath(grid=grid, increments=dw, values=values[0], left_values=left[0])


def bridge_split(dt: float, dw: Array, rng: np.random.Generator):
    """Split one increment over dt into two halves with the bridge law.

    The first half is dw/2 plus an independent N(0, dt/4) perturbation per
    channel; the second half is dw minus the first.  The halves must sum
    back to dw bitwise so refined increments telescope exactly; rounding
    residuals are absorbed into whichever half has the finer ulp, and the
    rare channel whose perturbation makes dw unreachable (both halves in
    coarser binades than dw) gets its perturbation redrawn, a tail
    truncation far below Monte Carlo resolution.
    """
    if not dt > 0.0:
        raise ParameterError(f"step must be positive to split, got {dt}")
    half = 0.5 * dw
    scale = 0.5 * np.sqrt(dt)
    first = half + rng.standard_normal(dw.shape) * scale
    second = dw - first
    for round_ in range(40):
        err = dw - (first + second)
        bad = err != 0.0
        if not bad.any():
            return first, second
        if round_ % 4 == 3:
            redrawn = half + rng.standard_normal(dw.shape) * scale
            first = np.where(bad, redrawn, first)
            second = np.where(bad, dw - first, second)
        else:
            into_first = bad & (np.abs(first) <= np.abs(second))
            into_second = bad & ~into_first
            first = np.where(into_first, first + err, first)
            second = np.where(into_second, second + err, second)
    # Unreachable in practice: fall back to the exact midpoint split.
    bad = dw - (first + second) != 0.0
    first = np.where(bad, half, first)
    second = np.where(bad, dw - half, second)
    return first, second


def _as_mask(refined_steps, n_steps: int) -> Array:
    if isinstance(refined_steps, (set, frozenset)):
        refined_steps = sorted(refined_steps)
    arr = np.asarray(refined_steps)
    if arr.dtype == bool:
        if arr.shape != (n_steps,):
            raise ParameterError(
                f"mask must have shape ({n_steps},), got {arr.shape}"
            )
        return arr
    try:
        idx = np.asarray(refined_steps, dtype=np.intp).ravel()
    except (TypeError, ValueError) as exc:
        raise ParameterError(
            "refined_steps must be a boolean mask or integer step indices"
        ) from exc
    out = np.zeros(n_steps, dtype=bool)
    for i in idx:
        if not 0 <= i < n_steps:
            raise ParameterError(f"step index {i} out of range [0, {n_steps})")
        out[i] = True
    return out


def brownian_bridge_refine(
    grid: AugmentedGrid,
    dw: Array,
    refined_steps,
    rng: np.random.Generator,
    *,
    min_step: float = None,
):
    """Bisect the selected steps, extending the increments by bridges.

    ``refined_steps`` is a boolean mask over steps or an iterable of step
    indices.  Midpoint nodes are neither jump nodes nor deterministic
    nodes.  Bridge noise is drawn left to right so the stream stays
    reproducible.  Refining a step whose halves would fall below the
    minimum step floor (horizon * 2^-30 by default) raises
    RefinementDepthError.  Returns the refined grid and increments.
    """
    mask = _as_mask(refined_steps, grid.n_steps)
    times = grid.times
    dt = grid.dt
    if min_step is None:
        min_step = float(grid.det_times[-1]) * MIN_STEP_FRACTION
    if not mask.any():
        return grid, dw

    too_deep = mask & (0.5 * dt < min_step)
    if too_deep.any():
        n = int(np.nonzero(too_deep)[0][0])
        raise RefinementDepthError(
            f"refining step {n} (dt={dt[n]:g}) would go below the floor {min_step:g}"
        )

    new_times = []
    new_jump = []
    new_det = []
    rows = []
    for n in range(grid.n_steps):
        new_times.append(times[n])
        new_jump.append(grid.jump_index[n])
        new_det.append(grid.is_det[n])
        if mask[n]:
            first, second = bridge_split(dt[n], dw[n], rng)
            rows.append(first)
            rows.append(second)
            new_times.append(0.5 * (times[n] + times[n + 1]))
            new_jump.append(-1)
            new_det.append(False)
        else:
            rows.append(dw[n])
    new_times.append(times[-1])
    new_jump.append(grid.jump_index[-1])
    new_det.append(grid.is_det[-1])

    refined = AugmentedGrid(
        times=np.array(new_times),
        det_times=grid.det_times,
        jump_index=np.array(new_jump, dtype=np.intp),
        is_det=np.array(new_det, dtype=bool),
        marks=grid.marks,
        collisions=grid.collisions,
    )
    return refined, np.array(rows)
