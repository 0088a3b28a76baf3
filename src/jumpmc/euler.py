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
node-major ``PathBatch``, every per-node array shaped (nodes, rows)
(from one-row grids by ``stack_paths``, or as ``controller`` sets up a
chunk); it is the forward layer of both drivers, and ``euler_path`` is
its one-row case.  The rows of a block may have different step counts:
they are ordered by descending step count, so the rows that take step p
are the first k_p, and each step reads and writes the contiguous column
prefixes ``[p, :k_p]``; nothing past a row's last node is written or
read.  Equal step counts are the case k_p = B.  ``euler_terminal`` runs
the same steps (``_euler_steps``) without storing the path.
``bridge_refine_batch`` bisects the steps of a ``PathBatch`` with bridge
draws from keyed streams, each row's from its position (a count of the
normals its stream has given), as ``brownian_bridge_refine`` does for
one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PathDivergenceError, RefinementDepthError
from .jumps import AugmentedGrid, node_order
from .model import JumpDiffusionModel, as_vectorized

Array = np.ndarray

DIVERGENCE_BOUND = 1e154  # keeps |x|^2-like payoffs representable
MIN_STEP_FRACTION = 2.0 ** -30  # step floor, relative to the horizon
REDRAWS = 10  # bridge_split's redraws of an unsettled channel


@dataclass(frozen=True)
class EulerPath:
    """One Euler path: grid, increments, node values and left limits."""

    grid: AugmentedGrid
    increments: Array  # (N_A, wiener_dim)
    values: Array  # (N_A + 1, d), post-jump
    left_values: Array  # (N_A + 1, d); index 0 repeats the start value

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
    """B paths of up to n steps as node-major arrays: every per-node
    array is shaped (nodes, rows).

    Row b has ``n_steps[b]`` steps; ``n_steps`` None means every row has
    n steps.  Past a row's last node ``times`` and ``dw`` are never
    written and never read, and ``jump_flag`` is False.  The step sizes
    are not stored: ``dt`` derives them from ``times`` by the subtraction
    ``np.diff`` makes.  ``marks`` holds one mark per jump, in node order
    and, within a node, in row order: the order of
    ``np.nonzero(jump_flag)``, in which forward Euler and the dual sweep
    meet the jumps.  The kernel takes the rows ordered by descending step
    count, so the rows that take step p are the contiguous prefix ``[p,
    :k_p]`` (see ``running``).
    """

    times: Array  # (n + 1, B)
    dw: Array  # (n, B, wiener_dim)
    jump_flag: Array  # (n + 1, B) bool
    marks: Array  # (J, mark_dim)
    n_steps: Array = None  # (B,)

    def __post_init__(self):
        if self.n_steps is None:
            n, B = self.dw.shape[:2]
            object.__setattr__(self, "n_steps", np.full(B, n))

    def jumps(self):
        """(node, row) of every jump, in the order of ``marks``."""
        return np.divmod(np.flatnonzero(self.jump_flag), self.jump_flag.shape[1])

    def take(self, rows) -> "PathBatch":
        """The paths of ``rows`` (distinct indices or a slice), copied and
        cut to the longest of them."""
        n_steps = self.n_steps[rows]
        n = int(n_steps.max())
        node, col = self.jumps()
        place = np.full(len(self.n_steps), -1)
        place[rows] = np.arange(len(n_steps))
        keep = place[col] >= 0
        return PathBatch(
            self.times[: n + 1, rows], self.dw[:n, rows], self.jump_flag[: n + 1, rows],
            self.marks[keep][node_order(node[keep], place[col[keep]], len(n_steps))], n_steps,
        )

    def split(self, cuts):
        """The paths of the consecutive column ranges that end at ``cuts``,
        from column 0 on, each cut to its longest row; their arrays are
        views."""
        _, col = self.jumps()
        lo = 0
        for hi in cuts:
            n = int(self.n_steps[lo:hi].max())
            yield PathBatch(
                self.times[: n + 1, lo:hi], self.dw[:n, lo:hi], self.jump_flag[: n + 1, lo:hi],
                self.marks[(col >= lo) & (col < hi)], self.n_steps[lo:hi],
            )
            lo = hi

    def dt(self, rows, n: int) -> Array:
        """The first ``n`` step sizes of ``rows``, which all take at least
        n steps, rows first: a contiguous (len(rows), n) array, so a
        reduction over a row's steps adds them in the order it would on
        rows-first arrays."""
        t = self.times[: n + 1, rows]
        return np.ascontiguousarray((t[1:] - t[:-1]).T)

    def real(self) -> Array:
        """The (n, B) mask of the steps each row takes."""
        return np.arange(len(self.dw))[:, None] < self.n_steps

    def running(self) -> Array:
        """k_p for every step p: the rows that take step p are the first
        k_p.  Raises ParameterError unless the rows are ordered by
        descending step count."""
        n_steps = self.n_steps
        if (n_steps[1:] > n_steps[:-1]).any():
            raise ParameterError("paths must be ordered by descending step count")
        steps = np.arange(len(self.dw))
        return len(n_steps) - np.searchsorted(n_steps[::-1], steps, side="right")

    def by_step_count(self):
        """(rows, n) for every step count n, longest first: ``rows`` is
        the slice of the rows that take n steps (those that take step
        n - 1 but not step n), so ``[:n, rows]`` holds their steps and
        nothing past them.  A reduction over a row's steps runs on these,
        so numpy sees the same operands whatever the other rows.  Raises
        ParameterError unless the rows are ordered by descending step
        count."""
        k = self.running().tolist() + [0]
        return [(slice(k[n], k[n - 1]), n) for n in range(len(k) - 1, 0, -1) if k[n] < k[n - 1]]


def pack_steps(a: Array, running) -> Array:
    """The entries of the node-major (n, B, ...) array ``a`` at the steps
    a block's rows take, packed step by step: step p's first k_p rows
    (``running``, the k_p of ``PathBatch.running()``), one contiguous
    column prefix each, as one (K, ...) array."""
    return np.concatenate([a[p, :k] for p, k in enumerate(running)])


def stack_paths(model: JumpDiffusionModel, grids, dws) -> PathBatch:
    """Stack the grids and increments of same-length paths."""
    jump_flag = np.stack([g.jump_index >= 0 for g in grids], axis=1)
    row, node = np.nonzero(jump_flag.T)  # row after row, as the grids list them
    marks = np.concatenate(
        [np.empty((0, model.mark_dim))] + [g.marks[g.jump_index[g.jump_index >= 0]] for g in grids]
    )
    return PathBatch(
        np.stack([g.times for g in grids], axis=1), np.stack(dws, axis=1), jump_flag,
        marks[node_order(node, row, len(grids))],
    )


def concat_paths(batches):
    """Node-major batches joined in one copy, longest first, as wide as
    the longest row, their marks merged into node order.  Returns
    (order, paths): column c of ``paths`` is column ``order[c]`` of the
    batches side by side, ``order`` the stable descending order of their
    step counts.  A single batch in that order is returned as it is."""
    n_steps = np.concatenate([b.n_steps for b in batches])
    B = len(n_steps)
    order = np.argsort(-n_steps, kind="stable")
    if len(batches) == 1 and (order == np.arange(B)).all():
        return order, batches[0]
    column = np.empty(B, dtype=np.intp)
    column[order] = np.arange(B)
    n = int(n_steps.max())
    times = np.empty((n + 1, B))
    dw = np.empty((n, B, batches[0].dw.shape[2]))
    jump_flag = np.zeros((n + 1, B), dtype=bool)
    nodes, cols = [], []
    at = 0
    for b in batches:
        m, to = int(b.n_steps.max()), column[at : at + len(b.n_steps)]
        times[: m + 1, to] = b.times[: m + 1]
        dw[:m, to] = b.dw[:m]
        jump_flag[: m + 1, to] = b.jump_flag[: m + 1]
        node, row = b.jumps()
        nodes.append(node)
        cols.append(to[row])
        at += len(to)
    marks = np.concatenate([b.marks for b in batches])
    jumps = node_order(np.concatenate(nodes), np.concatenate(cols), B)
    return order, PathBatch(times, dw, jump_flag, marks[jumps], n_steps[order])


def _euler_steps(model, paths, x0, realizations):
    """The Euler scheme along a block of B paths ordered by descending
    step count, node by node: yields the left limits and values ``(xl,
    x)`` of the rows that reach each node, the start value as node 0's
    left limit, so after step p only the first k_p rows.  Each step reads
    the contiguous column prefixes ``[p, :k_p]`` of the node-major
    arrays, and the marks of a node's jumps are the next ones in
    ``paths.marks``.  Raises PathDivergenceError for the first row that
    leaves the finite ball of radius DIVERGENCE_BOUND."""
    times, dw, jump_flag, marks = paths.times, paths.dw, paths.jump_flag, paths.marks
    B = dw.shape[1]
    x = np.broadcast_to(model.x0 if x0 is None else x0, (B, model.dim)).astype(float)
    xl = x.copy()
    j = 0  # the jumps met so far
    if jump_flag[0].any():
        idx = np.flatnonzero(jump_flag[0])
        x[idx] += np.asarray(model.jump(times[0, idx], x[idx], marks[: len(idx)]), float)
        j = len(idx)
    yield xl, x

    for p, k in enumerate(paths.running().tolist()):
        x = x[:k]
        t, t_next = times[p, :k], times[p + 1, :k]
        a = np.asarray(model.drift(t, x), float)
        bmat = np.asarray(model.diffusion(t, x), float)
        xl = x + a * (t_next - t)[:, None] + np.einsum("bil,bl->bi", bmat, dw[p, :k])
        # one reduction per step; NaN fails <=, so it is caught too
        if not (np.abs(xl) <= DIVERGENCE_BOUND).all():
            bad = ~np.isfinite(xl).all(axis=1) | (np.abs(xl).max(axis=1) > DIVERGENCE_BOUND)
            row = int(np.nonzero(bad)[0][0])
            which = None if realizations is None else realizations[row]
            where = f"t={t_next[row]:g}"
            if which is not None:
                where += f", realization {which}"
            raise PathDivergenceError(
                f"path diverged at step {p} ({where})", step=p, realization=which
            )
        mask = jump_flag[p + 1, :k]
        if mask.any():
            idx = np.flatnonzero(mask)
            x = xl.copy()
            x[idx] = xl[idx] + np.asarray(
                model.jump(t_next[idx], xl[idx], marks[j : j + len(idx)]), float
            )
            j += len(idx)
        else:
            x = xl
        yield xl, x


def euler_batch(
    model: JumpDiffusionModel, paths: PathBatch, x0: Array = None, realizations=None
):
    """Run the Euler scheme along a block of B paths at once.

    Returns (values, left), the node-major (n+1, B, d) node values and
    left limits, not written past each row's last node.  The rows must
    be ordered by descending step count.  The model's callbacks must
    broadcast over rows (see ``as_vectorized``).  ``realizations`` are
    the rows' absolute indices, named by PathDivergenceError (None when
    the rows have none).  Arithmetic is row-wise, so each row's numbers
    do not depend on the rows it shares the batch with.
    """
    n, B = paths.dw.shape[:2]
    values = np.empty((n + 1, B, model.dim))
    left = np.empty((n + 1, B, model.dim))
    for p, (xl, x) in enumerate(_euler_steps(model, paths, x0, realizations)):
        left[p, : len(xl)] = xl
        values[p, : len(x)] = x
    return values, left


def terminal_values(paths: PathBatch, values: Array) -> Array:
    """Each row's entry of the node-major (n+1, B, ...) array ``values``
    at its last node, X(T) for the node values of ``euler_batch``."""
    m, B = values.shape[:2]
    flat = values.reshape((m * B,) + values.shape[2:])
    return np.take(flat, paths.n_steps * B + np.arange(B), axis=0)  # faster than [steps, rows]


def euler_terminal(
    model: JumpDiffusionModel, paths: PathBatch, x0: Array = None, realizations=None
) -> Array:
    """The (B, d) terminal values X(T) of ``euler_batch``, bit for bit,
    without storing the paths: the forward-only Monte Carlo case."""
    terminal = np.empty((paths.dw.shape[1], model.dim))
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
    return EulerPath(grid=grid, increments=dw, values=values[:, 0], left_values=left[:, 0])


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
    rows = []
    for n in range(grid.n_steps):
        new_times.append(times[n])
        new_jump.append(grid.jump_index[n])
        if mask[n]:
            first, second = bridge_split(dt[n], dw[n], rng)
            rows.append(first)
            rows.append(second)
            new_times.append(0.5 * (times[n] + times[n + 1]))
            new_jump.append(-1)
        else:
            rows.append(dw[n])
    new_times.append(times[-1])
    new_jump.append(grid.jump_index[-1])

    refined = AugmentedGrid(
        times=np.array(new_times),
        det_times=grid.det_times,
        jump_index=np.array(new_jump, dtype=np.intp),
        marks=grid.marks,
        collisions=grid.collisions,
    )
    return refined, np.array(rows)


class _BridgeNormals:
    """The bridge normals of H rows, each row's read in order from normal
    ``positions[h]`` of its Wiener stream.  Each stream is drawn from
    normal 0 to ``w * allot(counts[h])`` normals past its position, room
    for the first draws of ``counts[h]`` splits and a few redraws.  A
    read past a row's normals draws that row alone again, to twice the
    reach, onto the end of the buffer: ``KeyedStream.draws`` is
    row-independent, so every other row keeps its normals and offset.
    Such a top-up is a call of one or a few rows, which ``draws`` serves
    from numpy's generator (``rng.FEW_ROWS``), without a Philox pass."""

    def __init__(self, wiener, realizations, positions, counts, w):
        self.wiener, self.realizations, self.positions = wiener, realizations, positions
        self.counts = w * self.allot(counts)
        self.offset = np.cumsum(positions + self.counts) - self.counts
        self.values = wiener.draws("standard_normal", realizations, positions + self.counts)

    @staticmethod
    def allot(counts):
        """Normals per channel first drawn for ``counts`` splits: a draw
        and a spare per split, and ten more."""
        return 2 * counts + 10

    def take(self, h, slot, k, more=True):
        """Normals ``slot`` to ``slot + k - 1`` of rows ``h``, as (len(h),
        k).  The rows short of them are drawn again first; with ``more``
        False they are not, and the normals they lack read as NaN."""
        at = slot[:, None] + np.arange(k)
        short = at[:, -1] >= self.counts[h]
        if short.any() and more:
            reach = np.zeros(len(self.counts), dtype=np.int64)
            np.maximum.at(reach, h[short], at[short, -1] + 1)
            rows = np.flatnonzero(reach)
            drawn = self.positions[rows] + 2 * reach[rows]
            self.counts[rows] = 2 * reach[rows]
            self.offset[rows] = len(self.values) + np.cumsum(drawn) - self.counts[rows]
            again = self.wiener.draws("standard_normal", self.realizations[rows], drawn)
            self.values = np.concatenate([self.values, again])
        elif short.any():
            lack = at >= self.counts[h, None]
            z = self.values[np.where(lack, 0, self.offset[h, None] + at)]
            z[lack] = np.nan
            return z
        return self.values[self.offset[h, None] + at]


def _bridge_splits(dt, whole, rank, srow, normals):
    """``bridge_split`` of S steps at once, from ``normals`` (a
    ``_BridgeNormals``): step ``s`` is the split number ``rank[s]`` of row
    ``srow[s]``, with the steps of a row consecutive and in order.

    Every row's steps are split as one sequential ``bridge_split`` run
    would split them: each step reads ``w`` normals plus ``w`` per redraw
    round it reaches, right after the earlier steps' normals.  Waves of
    the three correction rounds run on all unsplit steps; each row's
    first step still unsettled then takes its redraws, and the row's
    later steps are redone at their shifted normals in the next wave.

    A channel evolves on its own through ``bridge_split``'s rounds (a
    redraw replaces only unsettled channels, and a correction round
    leaves a settled one as it is), so all ten redraws of a stuck step
    are made at once: redraw r reads the normals ``r * w`` past the
    step's first draw, and all but the last get three correction rounds.
    Each channel keeps its first candidate that settles, or the exact
    midpoint if none does; the step draws as many redraws as its latest
    channel needs.  A first pass reads only the normals already drawn;
    the steps it cannot settle for want of normals are made again after
    their rows are drawn further.  Normals read for redraws a step does
    not reach are not counted as drawn.
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
        f = half[todo] + normals.take(h, slot, w) * scale[todo]
        g = whole[todo] - f
        for _ in range(3):
            f, g = _absorb(whole[todo], f, g)
        stuck = (whole[todo] - (f + g) != 0.0).any(axis=1)
        limit = np.full(len(cursor), np.iinfo(np.int64).max)
        np.minimum.at(limit, h[stuck], rank[todo][stuck])
        ok = rank[todo] < limit[h]
        first[todo[ok]], second[todo[ok]] = f[ok], g[ok]
        j = stuck & (rank[todo] == limit[h])  # each stuck row's first unsettled step
        s, hj, sj, f, g = todo[j], h[j], slot[j], f[j], g[j]
        done[hj] = rank[s] + 1
        # candidate 0 is the wave's split, candidate r the r-th redraw; a
        # first pass reads the normals drawn (NaN never settles), a second
        # draws on for the steps that ran past them
        for more in (False, True):
            whole_s = whole[s, None]
            z = normals.take(hj, sj + w, REDRAWS * w, more).reshape(len(s), REDRAWS, w)
            fr = np.concatenate([f[:, None], half[s, None] + z * scale[s, None]], axis=1)
            gr = np.concatenate([g[:, None], whole_s - fr[:, 1:]], axis=1)
            for _ in range(3):
                fr[:, 1:-1], gr[:, 1:-1] = _absorb(whole_s, fr[:, 1:-1], gr[:, 1:-1])
            settled = whole_s - (fr + gr) == 0.0
            pick = settled.argmax(axis=1)  # each channel's first settled candidate
            never = ~settled.any(axis=1)
            at = (np.arange(len(s))[:, None], pick, np.arange(w))
            # bridge_split's exact midpoint split after the last redraw
            first[s] = np.where(never, half[s], fr[at])
            second[s] = np.where(never, whole[s] - half[s], gr[at])
            cursor[hj] = sj + w * (1 + np.where(never, REDRAWS, pick).max(axis=1))
            short = cursor[hj] > normals.counts[hj]
            if not short.any():
                break
            s, hj, sj, f, g = s[short], hj[short], sj[short], f[short], g[short]
        todo = todo[rank[todo] > limit[h]]
    return first, second, cursor + w * (np.bincount(srow) - done)


def bridge_refine_batch(paths: PathBatch, mask: Array, wiener, realizations, positions):
    """Bisect the ``mask``ed steps of a block of B paths: row ``b`` comes
    out as ``brownian_bridge_refine`` refines it with the generator of
    ``realizations[b]``'s Wiener stream after its first ``positions[b]``
    normals, bit for bit.

    The rows may have different step counts, in any order; ``mask`` is
    (B, n), rows first, and False past each row's last step.  ``wiener`` is an
    ``rng.KeyedStream``.  The bridge normals of every refined row are
    read from its position on in stream order; a row that reads past
    the normals first drawn for it is drawn again alone
    (``_BridgeNormals``).  ``bridge_split`` runs on every split step at
    once, with all the redraws of a stuck step in one pass
    (``_bridge_splits``).  Returns ``(rows, refined, ends)``: the indices
    of the rows with a masked step, in order, their refined paths as one
    ``PathBatch`` (None without such a row), and every row's position
    after the normals its sequential run draws (``positions[b]`` when it
    draws none), whatever was read ahead.
    """
    times, dw = paths.times, paths.dw
    n, _, w = dw.shape
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
        times[step + 1, step_row] - times[step, step_row], dw[step, step_row], rank, srow, normals
    )
    ends[hit] += used

    # node p of a row moves to p + (its splits before p), and the
    # midpoint of a split step p goes right after it
    n_old = paths.n_steps[hit]
    n_new = n_old + k
    shift = np.zeros((len(hit), n + 1), dtype=np.intp)
    np.cumsum(mask[hit], axis=1, out=shift[:, 1:])
    h, node = np.nonzero(np.arange(n + 1) <= n_old[:, None])  # every real node
    src, dest = (node, hit[h]), (node + shift[h, node], h)
    width = int(n_new.max())
    new_times = np.empty((width + 1, len(hit)))
    new_times[dest] = times[src]
    jump_flag = np.zeros((width + 1, len(hit)), dtype=bool)
    jump_flag[dest] = paths.jump_flag[src]
    halves = np.empty((width, len(hit), w))
    real = node < n_old[h]  # the nodes that start a step
    halves[dest[0][real], dest[1][real]] = dw[src[0][real], src[1][real]]
    at = (step + shift[srow, step], srow)
    new_times[at[0] + 1, at[1]] = 0.5 * (times[step, step_row] + times[step + 1, step_row])
    halves[at] = first
    halves[at[0] + 1, at[1]] = second
    # the hit rows' jumps, in the node order of their refined paths
    jnode, jrow = paths.jumps()
    place = np.full(len(counts), -1)
    place[hit] = np.arange(len(hit))
    keep = place[jrow] >= 0
    jh, jnode = place[jrow[keep]], jnode[keep]
    marks = paths.marks[keep][node_order(jnode + shift[jh, jnode], jh, len(hit))]
    return hit, PathBatch(new_times, halves, jump_flag, marks, n_new), ends
