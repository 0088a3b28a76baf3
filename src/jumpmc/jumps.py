"""Jump time sampling and the augmented time grid.

Jump times of a process with deterministic intensity lam(t) are the
points where the integrated intensity L(t) = int_0^t lam(s) ds crosses a
unit-rate Poisson process: with iid unit exponentials e_k,

    tau_k = L^{-1}(e_1 + ... + e_k)   while the partial sum < L(T).

The simulation grid is the union of the deterministic mesh and the jump
times; a jump falling within rounding distance of a deterministic node is
merged into that node.

``sample_jump_chunk`` works on a chunk's flat arrays: the inverse
integrated intensity and a ``UniformMarks`` quantile are each mapped over
all of the chunk's jumps at once, not called per jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, JumpMCError, ParameterError, check_integer
from .model import JumpDiffusionModel, UniformMarks

Array = np.ndarray

COLLISION_RTOL = 1e-14  # jump/deterministic node merge tolerance, times horizon
PANELS = 64  # Gauss-Legendre panels of a numeric integrated intensity
NODES = 8  # Gauss-Legendre nodes per panel


class IntensityIntegral:
    """Integrated intensity L(t) on [0, horizon] with a monotone inverse.

    Uses model-provided closed forms when available, otherwise composite
    Gauss-Legendre panels with a bracketed root solve for the inverse.
    Scipy is loaded only for these numeric fallbacks (``roots_legendre``
    when L has no closed form, ``brentq`` when its inverse has none), so
    a model with both closed forms, like the builtins, needs numpy alone.
    The intensity must be nonnegative (and within its declared bound)
    wherever it is evaluated.
    """

    def __init__(
        self,
        intensity: Callable[[float], float],
        horizon: float,
        *,
        bound: Optional[float] = None,
        closed_form: Optional[Callable[[float], float]] = None,
        inverse: Optional[Callable[[float], float]] = None,
    ):
        if not horizon > 0.0:
            raise ParameterError(f"horizon must be > 0, got {horizon}")
        self.intensity = intensity
        self.horizon = float(horizon)
        self.bound = bound
        self._closed_form = closed_form
        self._closed_inverse = inverse

        self._edges = np.linspace(0.0, self.horizon, PANELS + 1)

        if closed_form is None:
            from scipy.special import roots_legendre

            self._gl_x, self._gl_w = roots_legendre(NODES)
            panel_vals = np.array(
                [
                    self._gauss(self._edges[i], self._edges[i + 1])
                    for i in range(PANELS)
                ]
            )
            self._cum = np.concatenate([[0.0], np.cumsum(panel_vals)])
        else:
            # Spot-check nonnegativity on the same lattice the numeric
            # path would use.
            mids = 0.5 * (self._edges[:-1] + self._edges[1:])
            for t in np.concatenate([self._edges, mids]):
                self._check_rate(float(t))
            self._cum = np.array([closed_form(t) for t in self._edges], float)
            if np.any(np.diff(self._cum) < -1e-12):
                raise EvaluationError("closed-form integrated intensity decreases")

    def _check_rate(self, t: float) -> float:
        lam = float(self.intensity(t))
        if not lam >= 0.0:  # NaN fails >= too
            raise EvaluationError(f"intensity is negative or NaN at t={t}: {lam}")
        if self.bound is not None and lam > self.bound * (1.0 + 1e-9):
            raise EvaluationError(
                f"intensity at t={t} is {lam}, above its declared bound {self.bound}"
            )
        return lam

    def _gauss(self, lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ts = mid + half * self._gl_x
        vals = np.array([self._check_rate(float(t)) for t in ts])
        return half * float(self._gl_w @ vals)

    def value(self, t: float) -> float:
        """L(t) for t in [0, horizon]."""
        if self._closed_form is not None:
            return float(self._closed_form(t))
        t = float(np.clip(t, 0.0, self.horizon))
        k = int(np.searchsorted(self._edges, t, side="right")) - 1
        k = min(max(k, 0), len(self._edges) - 2)
        return float(self._cum[k] + self._gauss(self._edges[k], t))

    @property
    def total(self) -> float:
        """L(horizon)."""
        if self._closed_form is not None:
            return float(self._closed_form(self.horizon))
        return float(self._cum[-1])

    def inverse(self, s: float) -> float:
        """Smallest t with L(t) = s, for s in [0, L(horizon)]."""
        if self._closed_inverse is not None:
            return float(self._closed_inverse(s))
        if s <= 0.0:
            return 0.0
        if s >= self.total:
            return self.horizon
        k = int(np.searchsorted(self._cum, s, side="right")) - 1
        k = min(max(k, 0), len(self._edges) - 2)
        lo, hi = self._edges[k], self._edges[k + 1]
        from scipy.optimize import brentq

        t = brentq(lambda u: self.value(u) - s, lo, hi, xtol=1e-15)
        # Newton polish; the bracketed solve leaves |L(t) - s| near rounding
        # already, one step tightens it when lam(t) is not tiny.
        lam = self._check_rate(t)
        if lam > 0.0:
            t = float(np.clip(t - (self.value(t) - s) / lam, lo, hi))
        return float(t)

    def inverses(self, sums: Array) -> Array:
        """``inverse`` of every entry of the 1-D array ``sums``.

        A closed inverse is mapped with ``np.frompyfunc``, so each value
        is the closed form's own (a ``math`` call stays on libm).  A
        JumpMCError from the inverse of ``sums[k]`` carries ``exc.jump =
        k``.
        """
        if self._closed_inverse is not None:
            try:
                return np.frompyfunc(self._closed_inverse, 1, 1)(sums).astype(float)
            except JumpMCError:
                pass  # the loop finds the failing entry
        out = np.empty(len(sums))
        for k, s in enumerate(sums.tolist()):
            try:
                out[k] = self.inverse(s)
            except JumpMCError as exc:
                exc.jump = k
                raise
        return out


def intensity_integral_for(model: JumpDiffusionModel) -> IntensityIntegral:
    """IntensityIntegral for a model, using its closed forms when given."""
    return IntensityIntegral(
        model.intensity,
        model.horizon,
        bound=model.intensity_bound,
        closed_form=model.intensity_integral,
        inverse=model.intensity_integral_inverse,
    )


@dataclass(frozen=True)
class JumpRealization:
    """Jump times in (0, horizon) with their marks."""

    times: Array  # (K,), strictly increasing
    marks: Array  # (K, mark_dim)

    @property
    def count(self) -> int:
        return len(self.times)


def jump_times_from_exponentials(
    integral: IntensityIntegral, exponentials: Sequence[float]
) -> Array:
    """Jump times from an explicit unit-exponential supply.

    Deterministic core of :func:`sample_jump_times`, split out so tests can
    drive it with chosen increments.  Raises if the supply is exhausted
    before the partial sums leave [0, L(T)).
    """
    total = integral.total
    times = []
    s = 0.0
    for e in exponentials:
        if e <= 0.0:
            raise ParameterError(f"exponential increments must be > 0, got {e}")
        s += e
        if s >= total:
            return np.array(times)
        times.append(integral.inverse(s))
    raise ParameterError(
        "exponential supply exhausted before the integrated intensity was covered"
    )


def sample_jump_times(integral: IntensityIntegral, rng: np.random.Generator) -> Array:
    """Draw one realization of the jump times on [0, horizon)."""
    return jump_times_from_exponentials(integral, iter(rng.exponential, None))


def _mark_rows(model: JumpDiffusionModel, marks) -> Array:
    """(K, mark_dim) array of the mark sampler outputs ``marks``; a
    wrongly shaped mark raises EvaluationError."""
    shape = (len(marks), model.mark_dim)
    try:
        rows = np.asarray(marks, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers: checked one by one
        rows = None
    if rows is not None and (
        rows.shape == shape or (rows.shape == shape[:1] and shape[1] == 1)
    ):
        return rows.reshape(shape)
    rows = np.empty(shape)
    for k, z in enumerate(marks):
        z = np.atleast_1d(np.asarray(z, float))
        if z.shape != (model.mark_dim,):
            raise EvaluationError(
                f"mark sampler returned shape {z.shape}, expected ({model.mark_dim},)"
            )
        rows[k] = z
    return rows


def sample_marks(
    model: JumpDiffusionModel, times: Array, rng: np.random.Generator
) -> Array:
    """Draw a mark for each jump time from the model's mark sampler."""
    return _mark_rows(model, [model.mark_sampler(float(t), rng) for t in times])


def sample_jumps(
    model: JumpDiffusionModel,
    integral: IntensityIntegral,
    time_rng: np.random.Generator,
    mark_rng: np.random.Generator,
) -> JumpRealization:
    """Draw jump times and marks from separate streams."""
    times = sample_jump_times(integral, time_rng)
    marks = sample_marks(model, times, mark_rng)
    return JumpRealization(times=times, marks=marks)


def _exponential_count(total: float) -> int:
    """Exponentials drawn per row up front: with ``rng``'s slack of
    ``2 + count // 16`` words they fill the Philox blocks of
    L(T) + 4 sqrt(L(T)) + 2 words, which cover all but a sliver of rows."""
    words = 4 * math.ceil((total + 4.0 * math.sqrt(total) + 2.0) / 4.0)
    return words - 2 - words // 16


def _name_realization(exc, realization):
    exc.realization = realization
    exc.args = (f"{exc} (realization {realization})",)


def sample_jump_chunk(
    model: JumpDiffusionModel, integral: IntensityIntegral, time_stream, mark_stream,
    realizations,
):
    """Jump counts, times and marks of ``realizations``, drawn from their
    keyed streams (``rng.KeyedStream``) as ``sample_jumps`` draws them.

    Returns ``(n_jumps, times, marks)``: times and marks flat, row after
    row.  Every row's exponentials come from one ``draws`` call:
    ``np.cumsum`` adds them in the order of the one-row loop, and
    ``integral.inverses`` maps every sum below L(T).  A row whose
    exponentials do not reach L(T) is drawn again from its first one,
    twice as many.  Marks of a ``UniformMarks`` sampler come from one
    call of its quantile on the chunk's K jump times and K counter-based
    uniforms (none when K = 0); a quantile that does not return (K,
    mark_dim) names the chunk's first realization with a jump.  Any
    other sampler is called per jump with the row's generator.  Errors
    name the realization.
    """
    count = len(realizations)
    total = integral.total
    if not math.isfinite(total):  # no row's exponentials would reach it
        raise EvaluationError(f"integrated intensity L(T) is not finite: {total}")
    ids = np.asarray(realizations, dtype=np.int64)
    owners, below = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    rows = np.arange(count)
    per_row = _exponential_count(total)
    while len(rows):
        exps = time_stream.draws("standard_exponential", ids[rows], np.full(len(rows), per_row))
        sums = np.cumsum(exps.reshape(len(rows), per_row), axis=1)
        done = sums[:, -1] >= total
        under = sums[done] < total  # a prefix of each row
        owners.append(np.repeat(rows[done], under.sum(axis=1)))
        below.append(sums[done][under])
        rows, per_row = rows[~done], 2 * per_row
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    n_jumps = np.bincount(owner, minlength=count)
    try:
        times = integral.inverses(np.concatenate(below)[order])
    except JumpMCError as exc:
        _name_realization(exc, realizations[owner[order[exc.jump]]])
        raise

    if isinstance(model.mark_sampler, UniformMarks):
        shape = (len(times), model.mark_dim)
        if not len(times):
            return n_jumps, times, np.empty(shape)
        uniforms = mark_stream.draws("random", ids, n_jumps)
        marks = np.asarray(model.mark_sampler.quantile(times, uniforms), dtype=float)
        if marks.shape != shape:
            exc = EvaluationError(
                f"mark quantile returned shape {marks.shape}, expected {shape}"
            )
            _name_realization(exc, realizations[int(np.argmax(n_jumps > 0))])
            raise exc
        return n_jumps, times, marks
    marks = np.empty((len(times), model.mark_dim))
    first = np.cumsum(n_jumps) - n_jumps
    for row in np.nonzero(n_jumps)[0].tolist():
        lo, hi = first[row], first[row] + n_jumps[row]
        try:
            marks[lo:hi] = sample_marks(model, times[lo:hi], mark_stream.at(realizations[row]))
        except JumpMCError as exc:
            _name_realization(exc, realizations[row])
            raise
    return n_jumps, times, marks


@dataclass(frozen=True)
class AugmentedGrid:
    """Union of the deterministic mesh and one realization's jump times.

    ``jump_index[n]`` is the mark row applied at node ``n`` (post-jump
    state) or -1.
    """

    times: Array  # (N_A + 1,)
    det_times: Array  # (N + 1,)
    jump_index: Array  # (N_A + 1,) int
    marks: Array  # (K, mark_dim)
    collisions: int

    @property
    def dt(self) -> Array:
        return np.diff(self.times)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def n_jumps(self) -> int:
        return len(self.marks)


def interval_of_steps(det_times: Array, times: Array) -> Array:
    """Index of the deterministic interval holding each step's left node.

    ``times`` are node times along the last axis (any leading axes); the
    result has one entry per step.
    """
    idx = np.searchsorted(det_times, times[..., :-1], side="right") - 1
    return np.clip(idx, 0, len(det_times) - 2)


def node_order(node: Array, row: Array, width: int) -> Array:
    """The order that puts jumps at (``node``, ``row``) node by node and,
    within a node, row by row: the order of ``np.nonzero`` on a
    node-major (nodes, ``width``) flag array, in which ``GridBatch`` and
    ``euler.PathBatch`` hold their marks."""
    return np.argsort(node * width + row, kind="stable")


@dataclass(frozen=True)
class GridBatch:
    """Augmented grids of a chunk's rows, node-major, longest first.

    Column ``b`` holds the grid of row ``rows[b]`` (its position among
    the grids built together); the columns are ordered by descending
    step count and, within a step count, by ascending row.
    ``times[:n_steps[b] + 1, b]`` are its nodes; past them ``times`` is
    not written and ``jump_flag`` is False.  ``marks`` holds one mark per
    jump, node by node and, within a node, column by column (the order
    of ``np.nonzero(jump_flag)``), as ``euler.PathBatch`` holds them.
    ``column_grid`` reads one column out as an ``AugmentedGrid``.
    """

    rows: Array  # (B,)
    times: Array  # (n + 1, B)
    jump_flag: Array  # (n + 1, B) bool
    marks: Array  # (J, mark_dim)
    n_steps: Array  # (B,)
    collisions: Array  # (B,)


def column_grid(batch, b: int, det_times: Array, collisions: int = 0) -> AugmentedGrid:
    """Column ``b`` of the node-major grids ``batch`` (a ``GridBatch`` or
    an ``euler.PathBatch``) as the ``AugmentedGrid`` on the mesh
    ``det_times`` with ``collisions`` merged jumps."""
    n = int(batch.n_steps[b])
    nodes = np.flatnonzero(batch.jump_flag[: n + 1, b])
    jump_index = np.full(n + 1, -1, dtype=np.intp)
    jump_index[nodes] = np.arange(len(nodes))
    return AugmentedGrid(
        times=batch.times[: n + 1, b].copy(),
        det_times=np.asarray(det_times, float),
        jump_index=jump_index,
        marks=batch.marks[np.nonzero(batch.jump_flag)[1] == b],
        collisions=int(collisions),
    )


def check_mesh(det_times: Array, horizon: float) -> Array:
    """The deterministic mesh as a float array; ParameterError unless it
    runs from 0 to the horizon through finite, strictly increasing nodes."""
    det = np.asarray(det_times, float)
    if det.ndim != 1 or len(det) < 2:
        raise ParameterError("deterministic mesh needs at least two nodes")
    if det[0] != 0.0 or abs(det[-1] - horizon) > 1e-12 * max(1.0, horizon):
        raise ParameterError("deterministic mesh must run from 0 to the horizon")
    if not (np.diff(det) > 0.0).all():  # NaN fails > too
        raise ParameterError("deterministic mesh must be finite and strictly increasing")
    return det


def build_grid_batch(
    det_times: Array,
    n_jumps: Array,
    times: Array,
    marks: Array,
    *,
    horizon: float,
    realizations=None,
):
    """Merge each row's jump times into the deterministic mesh, all rows
    at once, into one node-major ``GridBatch`` ordered by descending step
    count: the grids of one step count are built together, rows first
    (a sort along each row), and written into their columns.

    Row ``r`` has ``n_jumps[r]`` jumps; ``times`` (K,) and ``marks``
    (K, mark_dim) hold every row's jumps, row after row.  A jump within
    ``COLLISION_RTOL * horizon`` of a deterministic node is merged into
    the node (the node keeps its time and becomes a jump node), so
    N_A = N + K - collisions.  ``realizations`` are the rows' absolute
    indices, named by the errors raised for a row (None when the rows
    have none).
    """
    det = check_mesh(det_times, horizon)

    def fail(error, message, row):
        which = None if realizations is None else realizations[int(row)]
        named = "" if which is None else f" (realization {which})"
        raise error(message + named, realization=which)

    n_jumps = np.asarray(n_jumps, dtype=np.intp)
    count = len(n_jumps)
    owner = np.repeat(np.arange(count), n_jumps)
    tau = np.asarray(times, float)
    marks = np.asarray(marks, float)
    if tau.shape != (len(owner),) or marks.ndim != 2 or len(marks) != len(owner):
        raise ParameterError(
            f"{len(owner)} jumps need times of shape ({len(owner)},) and marks of "
            f"shape ({len(owner)}, mark_dim), got {tau.shape} and {marks.shape}"
        )

    # a jump out of (0, horizon) or not after the row's previous jump
    bad = ~((tau > 0.0) & (tau < horizon))
    bad[1:] |= (owner[1:] == owner[:-1]) & ~(np.diff(tau) > 0.0)
    if bad.any():
        fail(
            ParameterError,
            "jump times must be strictly increasing inside (0, horizon)",
            owner[np.argmax(bad)],
        )

    n = len(det) - 1
    tol = COLLISION_RTOL * horizon
    pos = np.searchsorted(det, tau)  # deterministic nodes before each jump
    lo = np.clip(pos - 1, 0, n)
    hi = np.clip(pos, 0, n)
    near = np.where(np.abs(tau - det[lo]) <= np.abs(det[hi] - tau), lo, hi)
    collide = np.abs(tau - det[near]) <= tol
    inserted = ~collide

    # Node of each jump: its deterministic position plus the inserted jumps
    # of its row before it.  For a merged jump that position is its node's.
    n_ins = np.bincount(owner[inserted], minlength=count)
    ins_start = np.cumsum(n_ins) - n_ins
    ins_key = (owner * (n + 2) + pos)[inserted]  # ascending
    ins_before = np.where(
        collide,
        np.searchsorted(ins_key, owner * (n + 2) + near, side="right"),
        np.cumsum(inserted) - 1,
    ) - ins_start[owner]
    node = np.where(collide, near, pos) + ins_before
    node_time = np.where(collide, det[near], tau)
    collisions = np.bincount(owner[collide], minlength=count)

    order = np.argsort(-n_ins, kind="stable")  # the rows by column
    column = np.empty(count, dtype=np.intp)
    column[order] = np.arange(count)
    n_steps = n + n_ins[order]
    grid_times = np.empty((int(n_steps.max(initial=n)) + 1, count))
    for k in np.unique(n_ins)[::-1]:
        rows = np.nonzero(n_ins == k)[0]
        mine = n_ins[owner] == k
        grown = np.concatenate(
            [np.broadcast_to(det, (len(rows), n + 1)), tau[mine & inserted].reshape(len(rows), k)],
            axis=1,
        )
        # rows first in memory whatever concatenate chose (it lays out
        # one inserted node column first), so each row sorts a contiguous run
        times = np.ascontiguousarray(grown)
        times.sort(axis=1)
        b = np.searchsorted(rows, owner[mine])
        lost = times[b, node[mine]] != node_time[mine]
        if lost.any():
            row = owner[mine][np.argmax(lost)]
            fail(EvaluationError, "jump time lost while building the grid", row)
        at = column[rows[0]]
        grid_times[: n + k + 1, at : at + len(rows)] = times.T
    jump_flag = np.zeros(grid_times.shape, dtype=bool)
    place = node * count + column[owner]  # each jump's entry of jump_flag
    jump_flag.reshape(-1)[place] = True
    jumps = node_order(node, column[owner], count)
    merged = place[jumps][1:] == place[jumps][:-1]  # two jumps of a row at one node
    if merged.any():
        fail(EvaluationError, "two jumps merged into one grid node", owner[jumps][1:][merged].min())
    return GridBatch(order, grid_times, jump_flag, marks[jumps], n_steps, collisions[order])


def build_augmented_grid(
    det_times: Array,
    jumps: JumpRealization,
    *,
    horizon: float,
) -> AugmentedGrid:
    """Merge jump times into the deterministic mesh (``build_grid_batch``
    with one row)."""
    batch = build_grid_batch(
        det_times, [len(jumps.times)], jumps.times, jumps.marks, horizon=horizon
    )
    return column_grid(batch, 0, det_times, batch.collisions[0])


def uniform_mesh(horizon: float, n: int) -> Array:
    """Deterministic mesh with n equal steps on [0, horizon]."""
    return np.linspace(0.0, horizon, check_integer("mesh steps", n, 1) + 1)
