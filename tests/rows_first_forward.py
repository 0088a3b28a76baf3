"""The rows-first forward layer that the node-major ``euler`` layer
replaced, kept as an oracle, and converters between the two layouts.

``RowsFirstPaths`` is the earlier ``PathBatch``: every per-node array is
shaped (rows, nodes, ...), padded past a row's last node (its last time
repeated in ``times``, zeros elsewhere), with ``dt = np.diff(times)`` and
dense (B, n+1, mark_dim) marks.  ``euler_steps``, ``euler_batch`` and
``euler_terminal`` are the earlier forward Euler on it, kept verbatim but
for names.  ``to_node_major`` and ``to_rows_first`` convert a batch from
one layout to the other; ``to_node_major`` fills what a node-major batch
never reads (times and increments past a row's last node) with NaN, so a
read of it shows.  ``setup_groups`` cuts the engine's set-up into
its step-count groups, as tests of the one-row pipeline take them.
"""

from dataclasses import dataclass

import numpy as np

from jumpmc import SeedConfig
from jumpmc import controller as ctl
from jumpmc.errors import ParameterError, PathDivergenceError
from jumpmc.euler import DIVERGENCE_BOUND, PathBatch
from jumpmc.jumps import intensity_integral_for
from jumpmc.model import as_vectorized
from jumpmc.rng import keyed_streams


@dataclass(frozen=True)
class RowsFirstPaths:
    """B paths of up to n steps as rows-first node arrays."""

    times: np.ndarray  # (B, n + 1)
    dw: np.ndarray  # (B, n, wiener_dim)
    jump_flag: np.ndarray  # (B, n + 1) bool
    marks: np.ndarray  # (B, n + 1, mark_dim)
    dt: np.ndarray  # (B, n)
    n_steps: np.ndarray = None  # (B,)

    def __post_init__(self):
        if self.n_steps is None:
            object.__setattr__(self, "n_steps", np.full(len(self.dt), self.dt.shape[1]))

    def running(self):
        n_steps = self.n_steps
        if (n_steps[1:] > n_steps[:-1]).any():
            raise ParameterError("paths must be ordered by descending step count")
        steps = np.arange(self.dt.shape[1])
        return len(n_steps) - np.searchsorted(n_steps[::-1], steps, side="right")


def euler_steps(model, paths, x0, realizations):
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


def euler_batch(model, paths, x0=None, realizations=None):
    """(values, left), (B, n+1, d), zero past each row's last node."""
    B, n = paths.dw.shape[:2]
    values = np.empty((B, n + 1, model.dim))
    left = np.empty((B, n + 1, model.dim))
    for p, (xl, x) in enumerate(euler_steps(model, paths, x0, realizations)):
        left[: len(xl), p] = xl
        values[: len(x), p] = x
        if len(x) < B:
            left[len(xl):, p] = values[len(x):, p] = 0.0
    return values, left


def euler_terminal(model, paths, x0=None, realizations=None):
    terminal = np.empty((len(paths.dw), model.dim))
    done = paths.running().tolist() + [0]
    for p, (_, x) in enumerate(euler_steps(model, paths, x0, realizations)):
        if done[p] < len(x):
            terminal[done[p]:len(x)] = x[done[p]:]
    return terminal


# ---------------------------------------------------------------------------
# layout converters


def to_node_major(paths: RowsFirstPaths) -> PathBatch:
    """The node-major ``PathBatch`` of a rows-first batch; its times and
    increments past each row's last node are NaN."""
    n_steps = paths.n_steps
    nodes = np.arange(paths.times.shape[1])[:, None]
    times = np.where(nodes <= n_steps, paths.times.T, np.nan)
    dw = np.where((nodes[:-1] < n_steps)[..., None], paths.dw.swapaxes(0, 1), np.nan)
    jump_flag = np.ascontiguousarray(paths.jump_flag.T & (nodes <= n_steps))
    marks = paths.marks.swapaxes(0, 1)[jump_flag]
    return PathBatch(times, dw, jump_flag, marks, n_steps.copy())


def to_rows_first(paths: PathBatch) -> RowsFirstPaths:
    """The rows-first batch of a node-major ``PathBatch``, padded as the
    earlier layout was: the last time repeated, zeros elsewhere."""
    n_steps = paths.n_steps
    nodes = np.arange(paths.times.shape[0])[:, None]
    real = nodes <= n_steps
    last = paths.times[n_steps, np.arange(len(n_steps))]
    times = np.where(real, paths.times, last).T.copy()
    dw = np.where(real[:-1, :, None], paths.dw, 0.0).swapaxes(0, 1).copy()
    jump_flag = paths.jump_flag.T.copy()
    marks = np.zeros(paths.jump_flag.shape + paths.marks.shape[1:])
    marks[paths.jump_flag] = paths.marks
    return RowsFirstPaths(
        times, dw, jump_flag, marks.swapaxes(0, 1).copy(), np.diff(times, axis=1), n_steps.copy()
    )


def with_jumps(paths: PathBatch, rows, nodes, mark) -> PathBatch:
    """``paths`` with a jump of mark ``mark`` (every entry) added at node
    ``nodes[k]`` of row ``rows[k]``; a jump already there keeps its mark."""
    first = to_rows_first(paths)
    flag, marks = first.jump_flag.copy(), first.marks.copy()
    marks[rows, nodes] = np.where(flag[rows, nodes][:, None], marks[rows, nodes], mark)
    flag[rows, nodes] = True
    return to_node_major(
        RowsFirstPaths(first.times, first.dw, flag, marks, first.dt, first.n_steps)
    )


# ---------------------------------------------------------------------------
# the set-up by step count


def setup_groups(model, det, start, count, seeds=SeedConfig()):
    """The set-up of realizations [start, start+count) on the mesh
    ``det``, as (rows, paths, collisions) for each step count, longest
    first: the chunk rows, their node-major ``PathBatch`` and their
    collision counts."""
    model = as_vectorized(model)
    rows, paths, _, collisions = ctl._setup_paths(
        model, det, keyed_streams(seeds), start, count, intensity_integral_for(model)
    )
    return [
        (rows[cols], paths.take(cols), collisions[cols]) for cols, _ in paths.by_step_count()
    ]
