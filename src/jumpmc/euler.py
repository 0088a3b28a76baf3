"""Forward Euler simulation on an augmented grid.

The scheme advances between grid nodes with the explicit Euler map and
applies jumps at jump nodes:

    X(t_{n+1}-) = X(t_n) + a(t_n, X(t_n)) dt_n + b(t_n, X(t_n)) dW_n
    X(t_{n+1})  = X(t_{n+1}-) + c(t_{n+1}, X(t_{n+1}-), Z_k)   (jump node)

Both the node values and the left limits are kept, because the dual
weights and the error densities are evaluated on the left limits; a
forward-only run (``euler_terminal``) keeps X(T) alone.
Meshes refine by bisection only, with midpoint Wiener values drawn from
the Brownian bridge so coarse and fine paths stay consistent in law.

``euler_batch`` steps a block of B paths at once, stacked into a
``PathBatch`` (from one-row grids by ``stack_paths``, or from the arrays
of a ``jumps.GridGroup``); it is the forward layer of both drivers, and
``euler_path`` is its one-row case.  The rows of a block may have
different step counts: they are ordered by descending step count, so
the rows that take step p are the first k_p, and each array is padded
past a row's last node.  Equal step counts are the case k_p = B.
``euler_terminal`` runs the same steps (``_euler_steps``) without
storing the path.  ``bridge_refine_batch`` bisects the steps of a
``PathBatch`` with bridge draws from keyed streams, each row's from its
position (a count of the normals its stream has given), as
``brownian_bridge_refine`` does for one grid.
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
    """B paths of up to n steps as stacked node arrays.

    Row b has ``n_steps[b]`` steps; the arrays are padded past its last
    node, with its last time repeated in ``times`` and zeros elsewhere,
    so ``dt`` is ``np.diff(times)`` and 0 on padding.  ``n_steps`` None
    means every row has n steps.  ``marks`` holds each jump node's mark
    and zeros elsewhere.  The kernel takes the rows ordered by descending
    step count (see ``running``).
    """

    times: Array  # (B, n + 1)
    dw: Array  # (B, n, wiener_dim)
    jump_flag: Array  # (B, n + 1) bool
    marks: Array  # (B, n + 1, mark_dim)
    dt: Array  # (B, n)
    n_steps: Array = None  # (B,)

    def __post_init__(self):
        if self.n_steps is None:
            object.__setattr__(self, "n_steps", np.full(len(self.dt), self.dt.shape[1]))

    def take(self, rows) -> "PathBatch":
        """The paths of ``rows``, an index array or a slice, with the
        padding past the longest of them cut off."""
        n_steps = self.n_steps[rows]
        n = int(n_steps.max())
        return PathBatch(
            self.times[rows, : n + 1], self.dw[rows, :n], self.jump_flag[rows, : n + 1],
            self.marks[rows, : n + 1], self.dt[rows, :n], n_steps,
        )

    def real(self) -> Array:
        """The (B, n) mask of the steps each row takes."""
        return np.arange(self.dt.shape[1]) < self.n_steps[:, None]

    def running(self) -> Array:
        """k_p for every step p: the rows that take step p are the first
        k_p.  Raises ParameterError unless the rows are ordered by
        descending step count."""
        n_steps = self.n_steps
        if (n_steps[1:] > n_steps[:-1]).any():
            raise ParameterError("paths must be ordered by descending step count")
        steps = np.arange(self.dt.shape[1])
        return len(n_steps) - np.searchsorted(n_steps[::-1], steps, side="right")

    def by_step_count(self):
        """(rows, n) for every step count n, longest first: ``rows`` is
        the slice of the rows that take n steps (those that take step
        n - 1 but not step n), so ``[rows, :n]`` holds their steps and no
        padding.  A reduction over a row's steps runs on these, so numpy
        sees the same operands whatever the padding.  Raises
        ParameterError unless the rows are ordered by descending step
        count."""
        k = self.running().tolist() + [0]
        return [(slice(k[n], k[n - 1]), n) for n in range(len(k) - 1, 0, -1) if k[n] < k[n - 1]]


def stack_paths(model: JumpDiffusionModel, grids, dws) -> PathBatch:
    """Stack the grids and increments of same-length paths."""
    times = np.stack([g.times for g in grids])
    jump_flag = np.stack([g.jump_index >= 0 for g in grids])
    marks = np.zeros(times.shape + (model.mark_dim,))
    for b, g in enumerate(grids):
        nodes = np.nonzero(g.jump_index >= 0)[0]
        marks[b, nodes] = g.marks[g.jump_index[nodes]]
    return PathBatch(times, np.stack(dws), jump_flag, marks, np.diff(times, axis=1))


def concat_paths(batches) -> PathBatch:
    """Batches joined row after row, each padded to the longest, in one
    copy (a single batch is returned as it is)."""
    if len(batches) == 1:
        return batches[0]
    n = max(b.dt.shape[1] for b in batches)
    joined = {"n_steps": np.concatenate([b.n_steps for b in batches])}
    for name in ("times", "dw", "jump_flag", "marks", "dt"):
        parts = [getattr(b, name) for b in batches]
        width = n + parts[0].shape[1] - batches[0].dt.shape[1]  # nodes or steps
        out = np.zeros((len(joined["n_steps"]), width) + parts[0].shape[2:], parts[0].dtype)
        at = 0
        for a in parts:
            out[at:at + len(a), : a.shape[1]] = a
            if name == "times":  # the last time repeats
                out[at:at + len(a), a.shape[1]:] = a[:, -1:]
            at += len(a)
        joined[name] = out
    return PathBatch(**joined)


def _euler_steps(model, paths, x0, realizations):
    """The Euler scheme along a block of B paths ordered by descending
    step count, node by node: yields the left limits and values ``(xl,
    x)`` of the rows that reach each node, the start value as node 0's
    left limit, so after step p only the first k_p rows.  Raises
    PathDivergenceError for the first row that leaves the finite ball of
    radius DIVERGENCE_BOUND."""
    times, dw, jump_flag, marks, dt = (
        paths.times, paths.dw, paths.jump_flag, paths.marks, paths.dt
    )
    B = len(dw)
    x = np.broadcast_to(model.x0 if x0 is None else x0, (B, model.dim)).astype(float)
    xl = x.copy()
    if jump_flag[:, 0].any():
        idx = np.nonzero(jump_flag[:, 0])[0]
        x[idx] += np.asarray(model.jump(times[idx, 0], x[idx], marks[idx, 0]), float)
    yield xl, x

    for p, k in enumerate(paths.running().tolist()):
        x = x[:k]
        tcol = times[:k, p]
        a = np.asarray(model.drift(tcol, x), float)
        bmat = np.asarray(model.diffusion(tcol, x), float)
        xl = x + a * dt[:k, p, None] + np.einsum("bil,bl->bi", bmat, dw[:k, p])
        # one reduction per step; NaN fails <=, so it is caught too
        if not (np.abs(xl) <= DIVERGENCE_BOUND).all():
            bad = ~np.isfinite(xl).all(axis=1) | (np.abs(xl).max(axis=1) > DIVERGENCE_BOUND)
            row = int(np.nonzero(bad)[0][0])
            which = None if realizations is None else realizations[row]
            where = f"t={times[row, p + 1]:g}"
            if which is not None:
                where += f", realization {which}"
            raise PathDivergenceError(
                f"path diverged at step {p} ({where})", step=p, realization=which
            )
        mask = jump_flag[:k, p + 1]
        if mask.any():
            idx = np.nonzero(mask)[0]
            x = xl.copy()
            x[idx] = xl[idx] + np.asarray(
                model.jump(times[idx, p + 1], xl[idx], marks[idx, p + 1]), float
            )
        else:
            x = xl
        yield xl, x


def euler_batch(
    model: JumpDiffusionModel, paths: PathBatch, x0: Array = None, realizations=None
):
    """Run the Euler scheme along a block of B paths at once.

    Returns (values, left), the (B, n+1, d) node values and left limits,
    zero past each row's last node.  The rows must be ordered by
    descending step count.  The model's callbacks must broadcast over
    rows (see ``as_vectorized``).  ``realizations`` are the rows' absolute
    indices, named by PathDivergenceError (None when the rows have none).
    Arithmetic is row-wise, so each row's numbers do not depend on the
    rows it shares the batch with.
    """
    B, n = paths.dw.shape[:2]
    values = np.empty((B, n + 1, model.dim))
    left = np.empty((B, n + 1, model.dim))
    for p, (xl, x) in enumerate(_euler_steps(model, paths, x0, realizations)):
        left[: len(xl), p] = xl
        values[: len(x), p] = x
        if len(x) < B:
            left[len(xl):, p] = values[len(x):, p] = 0.0
    return values, left


def terminal_values(paths: PathBatch, values: Array) -> Array:
    """Each row's entry of the (B, n+1, ...) node array ``values`` at its
    last node, X(T) for the node values of ``euler_batch``."""
    B, m = values.shape[:2]
    flat = values.reshape((B * m,) + values.shape[2:])
    return np.take(flat, np.arange(B) * m + paths.n_steps, axis=0)  # faster than [rows, steps]


def euler_terminal(
    model: JumpDiffusionModel, paths: PathBatch, x0: Array = None, realizations=None
) -> Array:
    """The (B, d) terminal values X(T) of ``euler_batch``, bit for bit,
    without storing the paths: the forward-only Monte Carlo case."""
    terminal = np.empty((len(paths.dw), model.dim))
    done = paths.running().tolist() + [0]  # rows from done[p] on end at node p
    for p, (_, x) in enumerate(_euler_steps(model, paths, x0, realizations)):
        if done[p] < len(x):
            terminal[done[p]:len(x)] = x[done[p]:]
    return terminal


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
    residuals are absorbed into whichever half has the finer ulp.  A
    channel whose perturbation makes dw unreachable (both halves in
    coarser binades than dw) gets its perturbation redrawn, and after ten
    redraws the exact midpoint split, which drops the step's bridge
    noise.  Neither is rare: on ``test5`` at TOL 0.04 (realizations 0-999
    refined one at a time) 142 of 911 splits reach a redraw and 16 end at
    the midpoint, so both bend the bridge law on those steps.
    """
    if not dt > 0.0:
        raise ParameterError(f"step must be positive to split, got {dt}")
    half = 0.5 * dw
    scale = 0.5 * np.sqrt(dt)
    first = half + rng.standard_normal(dw.shape) * scale
    second = dw - first
    for round_ in range(40):
        bad = dw - (first + second) != 0.0
        if not bad.any():
            return first, second
        if round_ % 4 == 3:
            redrawn = half + rng.standard_normal(dw.shape) * scale
            first = np.where(bad, redrawn, first)
            second = np.where(bad, dw - first, second)
        else:
            first, second = _absorb(dw, first, second)
    # After ten redraws: fall back to the exact midpoint split.
    bad = dw - (first + second) != 0.0
    first = np.where(bad, half, first)
    second = np.where(bad, dw - half, second)
    return first, second


def _absorb(dw, first, second):
    """One rounding-correction round of ``bridge_split``: the residual
    dw - (first + second) of each channel that has one goes into the half
    with the finer ulp."""
    err = dw - (first + second)
    bad = err != 0.0
    into_first = bad & (np.abs(first) <= np.abs(second))
    into_second = bad & ~into_first
    return (
        np.where(into_first, first + err, first),
        np.where(into_second, second + err, second),
    )


def brownian_bridge_refine(
    grid: AugmentedGrid,
    dw: Array,
    refined_steps,
    rng: np.random.Generator,
    *,
    min_step: float = None,
):
    """Bisect the selected steps, extending the increments by bridges.

    ``refined_steps`` is a boolean mask over steps.  Midpoint nodes are
    neither jump nodes nor deterministic nodes.  Bridge noise is drawn
    left to right so the stream stays reproducible.  Refining a step whose halves would fall below the
    minimum step floor (horizon * 2^-30 by default) raises
    RefinementDepthError.  Returns the refined grid and increments.
    """
    if np.ndim(dw) != 2 or np.shape(dw)[0] != grid.n_steps:
        raise ParameterError(
            f"increments must have shape ({grid.n_steps}, wiener_dim), got {np.shape(dw)}"
        )
    mask = np.asarray(refined_steps)
    if mask.dtype != bool or mask.shape != (grid.n_steps,):
        raise ParameterError(
            f"refined_steps must be a boolean mask of shape ({grid.n_steps},), "
            f"got {mask.dtype} {mask.shape}"
        )
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


class _BridgeNormals:
    """The bridge normals of H rows, each row's read in order from normal
    ``positions[h]`` of its Wiener stream.  Each stream is drawn from
    normal 0 to ``w * (2 * counts[h] + 10)`` normals past its position,
    room for the first draws of ``counts[h]`` splits and a few redraws; a
    row that runs out is drawn again, twice as far."""

    def __init__(self, wiener, realizations, positions, counts, w):
        self.wiener, self.realizations, self.positions, self.w = wiener, realizations, positions, w
        self._draw(w * (2 * counts + 10))

    def _draw(self, counts):
        self.counts = counts
        drawn = self.positions + counts
        self.offset = np.cumsum(drawn) - counts
        self.values = self.wiener.draws("standard_normal", self.realizations, drawn)

    def take(self, h, slot):
        """Normals ``slot`` to ``slot + w - 1`` of rows ``h``, as (len(h), w)."""
        end = slot + self.w
        if (end > self.counts[h]).any():
            reach = np.zeros(len(self.counts), dtype=np.int64)
            np.maximum.at(reach, h, end)
            self._draw(np.where(reach > self.counts, 2 * reach, self.counts))
        return self.values[(self.offset[h] + slot)[:, None] + np.arange(self.w)]


def _bridge_splits(dt, whole, rank, srow, normals):
    """``bridge_split`` of S steps at once, from ``normals`` (a
    ``_BridgeNormals``): step ``s`` is the split number ``rank[s]`` of row
    ``srow[s]``, with the steps of a row consecutive and in order.

    Every row's steps are split as one sequential ``bridge_split`` run
    would split them: each step reads ``w`` normals plus ``w`` per redraw
    round it reaches, right after the earlier steps' normals.  Waves of
    the three correction rounds run on all unsplit steps; each row's
    first step still unsettled then goes on through the redraw rounds,
    and the row's later steps are redone at their shifted normals in the
    next wave.
    """
    w = whole.shape[1]
    half = 0.5 * whole
    scale = (0.5 * np.sqrt(dt))[:, None]
    first = np.empty_like(whole)
    second = np.empty_like(whole)
    cursor = np.zeros(len(normals.counts), dtype=np.int64)  # next normal of each row
    done = np.zeros(len(normals.counts), dtype=np.int64)  # next unsplit rank
    todo = np.arange(len(whole))
    while len(todo):
        h = srow[todo]
        slot = cursor[h] + w * (rank[todo] - done[h])
        f = half[todo] + normals.take(h, slot) * scale[todo]
        g = whole[todo] - f
        for _ in range(3):
            f, g = _absorb(whole[todo], f, g)
        stuck = (whole[todo] - (f + g) != 0.0).any(axis=1)
        limit = np.full(len(cursor), np.iinfo(np.int64).max)
        np.minimum.at(limit, h[stuck], rank[todo][stuck])
        ok = rank[todo] < limit[h]
        first[todo[ok]], second[todo[ok]] = f[ok], g[ok]
        j = stuck & (rank[todo] == limit[h])  # each stuck row's first unsettled step
        s, hj, sj = todo[j], h[j], slot[j]
        f, g, whole_s, half_s, scale_s = f[j], g[j], whole[s], half[s], scale[s]
        redraws = np.zeros(len(s), dtype=np.int64)
        for round_ in range(3, 40):
            bad = whole_s - (f + g) != 0.0
            live = bad.any(axis=1)
            if not live.any():
                break
            if round_ % 4 == 3:
                redraws += live
                z = normals.take(hj[live], sj[live] + w * redraws[live])
                f[live] = np.where(bad[live], half_s[live] + z * scale_s[live], f[live])
                g = np.where(bad, whole_s - f, g)
            else:
                f, g = _absorb(whole_s, f, g)
        # bridge_split's exact midpoint split after the last round
        bad = whole_s - (f + g) != 0.0
        first[s] = np.where(bad, half_s, f)
        second[s] = np.where(bad, whole_s - half_s, g)
        cursor[hj] = sj + w * (1 + redraws)
        done[hj] = rank[s] + 1
        todo = todo[rank[todo] > limit[h]]
    return first, second, cursor + w * (np.bincount(srow) - done)


def bridge_refine_batch(paths: PathBatch, mask: Array, wiener, realizations, positions):
    """Bisect the ``mask``ed steps of a block of B paths: row ``b`` comes
    out as ``brownian_bridge_refine`` refines it with the generator of
    ``realizations[b]``'s Wiener stream after its first ``positions[b]``
    normals, bit for bit.

    The rows may have different step counts, in any order, and ``mask``
    is False past each row's last step.  ``wiener`` is an
    ``rng.KeyedStream``.  The bridge
    normals of every refined row are read from its position on in stream
    order, and ``bridge_split`` runs on every split step at once
    (``_bridge_splits``).  Returns ``(rows, refined, ends)``: the indices
    of the rows with a masked step, in order, their refined paths as one
    ``PathBatch`` (None without such a row), and every row's position
    after its draws (``positions[b]`` when it draws none).
    """
    dw = paths.dw
    n, w = dw.shape[1:]
    counts = np.count_nonzero(mask, axis=1)
    ends = np.array(positions, dtype=np.int64)
    hit = np.flatnonzero(counts)
    if not len(hit):
        return hit, None, ends
    step_row, step = np.nonzero(mask)  # every split step, row after row
    k = counts[hit]
    srow = np.repeat(np.arange(len(hit)), k)
    rank = np.arange(len(step)) - (np.cumsum(k) - k)[srow]
    normals = _BridgeNormals(wiener, realizations[hit], ends[hit], k, w)
    first, second, used = _bridge_splits(
        paths.dt[step_row, step], dw[step_row, step], rank, srow, normals
    )
    ends[hit] += used

    # node p of a row moves to p + (its splits before p), and the
    # midpoint of a split step p goes right after it
    n_old = paths.n_steps[hit]
    n_new = n_old + k
    shift = np.zeros((len(hit), n + 1), dtype=np.intp)
    np.cumsum(mask[hit], axis=1, out=shift[:, 1:])
    h, node = np.nonzero(np.arange(n + 1) <= n_old[:, None])  # every real node
    src, dest = (hit[h], node), (h, node + shift[h, node])
    width = int(n_new.max())
    times = np.repeat(paths.times[hit, n_old][:, None], width + 1, axis=1)
    times[dest] = paths.times[src]
    jump_flag = np.zeros((len(hit), width + 1), dtype=bool)
    jump_flag[dest] = paths.jump_flag[src]
    marks = np.zeros((len(hit), width + 1, paths.marks.shape[2]))
    marks[dest] = paths.marks[src]
    halves = np.zeros((len(hit), width, w))
    real = node < n_old[h]  # the nodes that start a step
    halves[dest[0][real], dest[1][real]] = dw[src[0][real], src[1][real]]
    at = (srow, step + shift[srow, step])
    times[at[0], at[1] + 1] = 0.5 * (paths.times[step_row, step] + paths.times[step_row, step + 1])
    halves[at] = first
    halves[at[0], at[1] + 1] = second
    refined = PathBatch(times, halves, jump_flag, marks, np.diff(times, axis=1), n_new)
    return hit, refined, ends
