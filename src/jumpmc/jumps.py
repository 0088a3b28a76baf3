"""Jump time sampling and the augmented time grid.

Jump times of a process with deterministic intensity lam(t) are the
points where the integrated intensity L(t) = int_0^t lam(s) ds crosses a
unit-rate Poisson process: with iid unit exponentials e_k,

    tau_k = L^{-1}(e_1 + ... + e_k)   while the partial sum < L(T).

The simulation grid is the union of the deterministic mesh and the jump
times; a jump falling within rounding distance of a deterministic node is
merged into that node.

``sample_jump_chunk`` works on a chunk's flat arrays: the inverse
integrated intensity and the model's mark quantile
(``model.UniformMarks``) are each mapped over all of the chunk's jumps
at once, not called per jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationError, JumpMCError, ParameterError, check_integer
from .model import JumpDiffusionModel, check_intensity_pair
from .rng import most_draws

Array = np.ndarray

COLLISION_RTOL = 1e-14  # jump/deterministic node merge tolerance, times horizon
PANELS = 64  # Gauss-Legendre panels of a numeric integrated intensity
NODES = 8  # Gauss-Legendre nodes per panel
BISECTIONS = 60  # halvings of a panel's bracket by the numeric inverse


def _bisect(f, lo, hi, target):
    """Solve f = target on each bracket [lo, hi], all entries at once: the
    end of the bracket after BISECTIONS halvings whose f is nearer the
    target (f is nondecreasing and maps arrays entrywise)."""
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = f(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(target - f(lo) < f(hi) - target, lo, hi)


class IntensityIntegral:
    """Integrated intensity L(t) on [0, horizon] with a monotone inverse,
    in one of two modes.

    Given the closed pair, L (``closed_form``) and its inverse
    (``inverse``), ``values``, ``total`` and ``inverses`` map them over
    arrays.  Without it the constructor reads lam once, at the 8
    Gauss-Legendre nodes of each of 64 panels, and keeps each panel's L
    as the integral of the degree-7 interpolant of those values, a
    Legendre series in the panel coordinate u in [-1, 1]; a panel's total
    is its Gauss rule.  ``values`` and ``inverses`` work on whole arrays
    from that table and never call lam again: each sum is bracketed in
    its panel by ``searchsorted`` and all sums are bisected at once, in
    t, on their panels' series.  One of the pair without the other raises
    ParameterError.  numpy.polynomial is imported only for the table.
    The intensity must be nonnegative (and within its declared bound)
    wherever it is read.
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
        if not 0.0 < horizon < math.inf:
            raise ParameterError(f"horizon must be > 0 and finite, got {horizon}")
        check_intensity_pair(closed_form, inverse)
        self.intensity = intensity
        self.horizon = float(horizon)
        self.bound = bound
        self._closed_form = closed_form
        self._closed_inverse = inverse

        self._edges = np.linspace(0.0, self.horizon, PANELS + 1)
        self._half = 0.5 * np.diff(self._edges)
        self._mid = self._edges[:-1] + self._half

        if closed_form is None:
            from numpy.polynomial import legendre

            x, w = legendre.leggauss(NODES)
            rates = self._rates(self._mid[:, None] + self._half[:, None] * x)
            # interpolant coefficients (n + 1/2) sum_j w_j lam_j P_n(x_j)
            coef = (rates * w) @ legendre.legvander(x, NODES - 1) * (np.arange(NODES) + 0.5)
            self._series = self._half[:, None] * legendre.legint(coef, lbnd=-1, axis=1)
            self._cum = np.concatenate([[0.0], np.cumsum(self._half * (rates @ w))])
        else:
            # Spot-check nonnegativity on the panel edges and midpoints.
            self._rates(np.concatenate([self._edges, self._mid]))
            if np.any(np.diff([closed_form(t) for t in self._edges]) < -1e-12):
                raise EvaluationError("closed-form integrated intensity decreases")

    def _rates(self, times: Array) -> Array:
        """lam at ``times``, checked in one pass; the first time where it
        is negative, NaN or above the declared bound raises."""
        rates = np.array([float(self.intensity(t)) for t in times.ravel().tolist()])
        limit = math.inf if self.bound is None else self.bound * (1.0 + 1e-9)
        bad = ~(rates >= 0.0) | (rates > limit)  # NaN fails >= too
        if bad.any():
            t, lam = times.ravel()[bad][0], rates[bad][0]
            raise EvaluationError(
                f"intensity is negative or NaN at t={t}: {lam}" if not lam >= 0.0
                else f"intensity at t={t} is {lam}, above its declared bound {self.bound}"
            )
        return rates.reshape(times.shape)

    def _panels(self, k: Array):
        """The numeric L as a function of t, t[i] on panel k[i]."""
        from numpy.polynomial.legendre import legval

        cum, coef, mid, half = self._cum[k], self._series[k].T, self._mid[k], self._half[k]
        return lambda t: cum + legval((t - mid) / half, coef, tensor=False)

    def values(self, t) -> Array:
        """L at every entry of the array ``t``, clipped to [0, horizon]."""
        t = np.clip(np.asarray(t, float), 0.0, self.horizon)
        if self._closed_form is not None:
            return np.frompyfunc(self._closed_form, 1, 1)(t).astype(float)
        k = np.clip(np.searchsorted(self._edges, t, side="right") - 1, 0, PANELS - 1)
        return self._panels(k)(t)

    def value(self, t: float) -> float:
        """L(t) for t in [0, horizon]."""
        return float(self.values([t])[0])

    @property
    def total(self) -> float:
        """L(horizon)."""
        if self._closed_form is not None:
            return float(self._closed_form(self.horizon))
        return float(self._cum[-1])

    def _solve(self, sums: Array) -> Array:
        """``inverses`` without naming a failing entry."""
        if self._closed_inverse is not None:
            return np.frompyfunc(self._closed_inverse, 1, 1)(sums).astype(float)
        k = np.clip(np.searchsorted(self._cum, sums, side="right") - 1, 0, PANELS - 1)
        t = _bisect(self._panels(k), self._edges[k], self._edges[k + 1], sums)
        return np.where(sums <= 0.0, 0.0, np.where(sums >= self.total, self.horizon, t))

    def inverses(self, sums) -> Array:
        """The smallest t with L(t) = s for every entry s of the 1-D array
        ``sums``: 0 for s <= 0 and the horizon for s >= L(horizon).

        The closed inverse is mapped with ``np.frompyfunc``, so each value
        is the closed form's own (a ``math`` call stays on libm).  A
        JumpMCError raised by a closed form carries ``exc.jump = k``, the
        first entry whose own solve raises.
        """
        sums = np.asarray(sums, dtype=float)
        try:
            return self._solve(sums)
        except JumpMCError:
            for k in range(len(sums)):  # find the failing entry
                try:
                    self._solve(sums[k : k + 1])
                except JumpMCError as exc:
                    exc.jump = k
                    raise
            raise

    def inverse(self, s: float) -> float:
        """Smallest t with L(t) = s, for s in [0, L(horizon)]."""
        return float(self.inverses([s])[0])


def intensity_integral_for(model: JumpDiffusionModel) -> IntensityIntegral:
    """IntensityIntegral for a model: its closed pair when given, else the
    table."""
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
    drive it with chosen increments: the partial sums below L(T), mapped
    by one ``integral.inverses`` call.  Raises if the supply is exhausted
    before the partial sums leave [0, L(T)).
    """
    total = integral.total
    sums = [0.0]
    for e in exponentials:
        if e <= 0.0:
            raise ParameterError(f"exponential increments must be > 0, got {e}")
        sums.append(sums[-1] + e)
        if sums[-1] >= total:
            return integral.inverses(np.array(sums[1:-1]))
    raise ParameterError(
        "exponential supply exhausted before the integrated intensity was covered"
    )


def sample_jump_times(integral: IntensityIntegral, rng: np.random.Generator) -> Array:
    """Draw one realization of the jump times on [0, horizon)."""
    return jump_times_from_exponentials(integral, iter(rng.exponential, None))


def _quantile_marks(model: JumpDiffusionModel, times: Array, uniforms: Array, realization=None):
    """The marks of the K jumps at ``times``: one call of the model's
    quantile on them and the K * mark_dim ``uniforms`` as (K, mark_dim),
    none when K = 0.  A quantile that does not return (K, mark_dim)
    raises EvaluationError, naming ``realization`` if given; with K rows
    its message gives a row's shape, which does not depend on K."""
    shape = (len(times), model.mark_dim)
    if not len(times):
        return np.empty(shape)
    marks = np.asarray(model.mark_sampler.quantile(times, uniforms.reshape(shape)), dtype=float)
    if marks.shape != shape:
        got = (f"{marks.shape[1:]} per jump" if marks.shape[:1] == shape[:1]
               else f"shape {marks.shape} for {len(times)} jumps")
        exc = EvaluationError(f"mark quantile returned {got}, expected {shape[1:]} per jump")
        if realization is not None:
            _name_realization(exc, realization)
        raise exc
    return marks


def sample_marks(
    model: JumpDiffusionModel, times: Array, rng: np.random.Generator
) -> Array:
    """Draw a mark for each jump time: the model's quantile of
    ``rng.random((K, mark_dim))``."""
    return _quantile_marks(model, times, rng.random((len(times), model.mark_dim)))


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
    """Exponentials drawn per row up front: the most whose words and one
    spare slack word fill the Philox blocks of L(T) + 4 sqrt(L(T)) + 2
    words (``rng.most_draws``), so ``KeyedStream.draws`` uses every block
    it makes and seldom draws a row again for want of words (23 of 16,384
    rows at L(T) = ln 2, against 112 with six exponentials and no spare
    word); they reach L(T) on all but a sliver of rows, which are drawn
    again."""
    return most_draws(math.ceil((total + 4.0 * math.sqrt(total) + 2.0) / 4.0), spare=1)


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
    twice as many.  The marks come from one call of the model's quantile
    (``model.UniformMarks``) on the chunk's K jump times and K *
    mark_dim counter-based uniforms, each row's first ``n_jumps *
    mark_dim`` uniforms of its marks stream (none when K = 0); a quantile
    that does not return (K, mark_dim) names the chunk's first
    realization with a jump.  Errors name the realization.
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

    uniforms = mark_stream.draws("random", ids, n_jumps * model.mark_dim)
    first = realizations[int(np.argmax(n_jumps > 0))] if count else None
    return n_jumps, times, _quantile_marks(model, times, uniforms, first)


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
