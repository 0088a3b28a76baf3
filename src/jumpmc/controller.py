"""Statistical error control and the two adaptive drivers.

The computational error of a Monte Carlo Euler estimate splits as
E_C = E_T + E_S (time discretization plus statistical error).  The total
tolerance is budgeted as

    TOL_S = (2/3) TOL,   TOL_T = (1/3) TOL,
    TOL_TT = (2/3) TOL_T,   TOL_TS = (1/3) TOL_T,

where TOL_TT bounds the averaged time-error indicators and TOL_TS their
statistical uncertainty.  Two drivers meet the budget:

* deterministic-mesh driver (``algorithm_d``): all realizations share one
  coarse mesh; per-interval indicators are averaged over a modest batch,
  the mesh is bisected where the averaged indicator is large, the batch
  grows when the indicator average itself is statistically uncertain, and
  a plain Monte Carlo run on the frozen mesh finishes the job;
* per-realization driver (``algorithm_s``): every realization refines its
  own augmented mesh until its largest indicator passes the acceptance
  test, with Brownian-bridge noise refinement; batches grow until the
  payoff's statistical bound meets TOL_S.

Both drivers evaluate paths with one batched kernel, ``_path_batch``,
which chains the batched layers for B same-length paths: forward Euler
(``euler.euler_batch``), order-3 dual weights (``duals.dual_batch``) and
the per-step density (``density.rho_batch``), with every callback
evaluated once per node and shared by the dual and density layers; the
dual and density layers hold their arrays rows last, (t..., n, B).  The
mesh engine groups a chunk's realizations by step count and reduces
them per interval with ``density.interval_sums``; the per-realization
driver refines blocks of STOCH_BLOCK realizations level-synchronously,
regrouping the rows still refining at every level and drawing each
row's bridge noise from its own Wiener stream (``control_time_error`` is
the one-row case).  ``_setup_groups`` sets up a whole index range at
once from counter-based draws (``rng.KeyedStream``): every realization's
jump times, marks (``jumps.sample_jump_chunk``) and Wiener normals come
from its own Philox streams, computed for the whole range in numpy, and
a realization whose draws need numpy's generator (a ziggurat rejection,
a jump count past the drawn block, a mark sampler without a quantile)
continues on it at its word offset.  All grids are merged in one pass by
``jumps.build_grid_groups``, which hands the kernel stacked arrays per
step count; the per-realization driver unstacks them into one-row grids
for bridge refinement and keeps each row's Wiener stream position as a
word offset.  Layer arithmetic is row-wise, so no realization's numbers
depend on the rows it shares a batch with.

Batches are chunked into fixed-size index ranges; a chunk is always
computed the same way no matter how chunks are spread over workers, and
reductions run in realization-index order with compensated summation, so
reports are byte-identical for any worker count.  An error names the
smallest failing realization of the batch, whatever the chunk size
(``_run_chunk``).
"""

from __future__ import annotations

import math
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np

# The one-row euler_path, backward_duals, rho_per_step, sample_jumps and
# realization_streams are unused here, and build_augmented_grid and
# sample_wiener_increments serve only control_time_error, but all stay
# importable from this module: perfbench/run.py patches them by these
# names to time them.
from .density import (  # noqa: F401
    INTERVAL_DENSITY_CALLBACKS,
    STEP_DENSITY_CALLBACKS,
    cutoff_density_S,
    interval_sums,
    rho_batch,
    rho_interval_batch,
    rho_per_step,
)
from .duals import (  # noqa: F401
    _euler_map_callbacks,
    _required_callbacks,
    _stack_calls,
    backward_duals,
    dual_batch,
)
from .errors import ConvergenceError, EvaluationError, JumpMCError, ParameterError
from .euler import (  # noqa: F401
    MIN_STEP_FRACTION,
    PathBatch,
    brownian_bridge_refine,
    euler_batch,
    euler_path,
    sample_wiener_increments,
    stack_paths,
)
from .jumps import (  # noqa: F401
    JumpRealization,
    build_augmented_grid,
    build_grid_groups,
    intensity_integral_for,
    sample_jump_chunk,
    sample_jumps,
    uniform_mesh,
)
from .model import JumpDiffusionModel, as_vectorized
from .rng import SeedConfig, keyed_streams, realization_streams  # noqa: F401

Array = np.ndarray

MESH_CHUNK = 16384  # fixed chunk sizes keep grouping independent of workers
STOCH_CHUNK = 2048
STOCH_BLOCK = 256  # realizations refined together; bounds the level loop's memory


# ---------------------------------------------------------------------------
# tolerance budget and statistical primitives


@dataclass(frozen=True)
class ToleranceBudget:
    """Total tolerance and its statistical/time sub-budgets."""

    total: float
    statistical: float  # bounds E_S
    time: float  # bounds E_T (per-realization control)
    time_step: float  # bounds the averaged indicator total
    time_stat: float  # bounds the indicators' statistical error


def split_tolerance(tol: float) -> ToleranceBudget:
    """Split TOL into (2/3, 1/3) statistical/time parts, the time part
    again into (2/3, 1/3) for indicator size vs indicator uncertainty."""
    if not tol > 0.0:
        raise ParameterError(f"TOL must be positive, got {tol}")
    tol = float(tol)
    tol_s, tol_t = _partition_exact(tol)
    tol_tt, tol_ts = _partition_exact(tol_t)
    return ToleranceBudget(
        total=tol,
        statistical=tol_s,
        time=tol_t,
        time_step=tol_tt,
        time_stat=tol_ts,
    )


def _partition_exact(total: float) -> tuple:
    """Split ``total`` into a 2/3 and a 1/3 part whose float sum is
    ``total`` bitwise.

    Rounding makes ``(total - total/3) + total/3`` miss ``total`` by an
    ulp for roughly a third of inputs, so the smaller part is walked one
    ulp at a time.  Its lattice is at least twice as fine as the sum's,
    so an exact representation is always within a few steps.
    """
    small = total / 3.0
    large = total - small
    for _ in range(64):
        gap = total - (large + small)
        if gap == 0.0:
            return large, small
        small = math.nextafter(small, math.copysign(math.inf, gap))
    raise EvaluationError(f"tolerance split failed to close for {total!r}")


@dataclass(frozen=True)
class StatParams:
    """Confidence constant, batch growth cap, and initial batch size."""

    c0: float = 1.65
    mch: int = 10
    m0: int = 100
    max_batches: int = 40

    def __post_init__(self):
        if not self.c0 >= 1.65:
            raise ParameterError(f"c0 must be >= 1.65, got {self.c0}")
        if self.mch < 2:
            raise ParameterError(f"MCH must be >= 2, got {self.mch}")
        if self.m0 < 2:
            raise ParameterError(f"M0 must be >= 2, got {self.m0}")
        if self.max_batches < 1:
            raise ParameterError(f"max_batches must be >= 1, got {self.max_batches}")


@dataclass(frozen=True)
class AdaptParams:
    """Refinement thresholds for both drivers.

    Refinement fires at ``d1 (or s1) * tolerance / N``; acceptance needs
    the largest indicator strictly below ``D1 (or S1) * tolerance / N``.
    The acceptance multiples must exceed (2/c) times the refinement
    multiples, where c is the assumed per-level indicator contraction.
    """

    d1: float = 2.0
    D1: float = 8.0
    s1: float = 2.0
    # Wider acceptance multiple than D1: per-realization indicators are
    # noisy and sit at the density clamp floor, so a tight multiple makes
    # every path over-refine by a full bisection level.
    S1: float = 16.0
    c: float = 0.55
    n_initial: int = 5
    max_refinements: int = 30

    def __post_init__(self):
        if self.d1 <= 0 or self.s1 <= 0:
            raise ParameterError("refinement multiples d1, s1 must be positive")
        if not 0.0 < self.c < 1.0:
            raise ParameterError(f"contraction c must lie in (0, 1), got {self.c}")
        if not self.D1 > (2.0 / self.c) * self.d1:
            raise ParameterError(
                f"D1 must exceed (2/c) d1 = {(2.0 / self.c) * self.d1:g}, got {self.D1}"
            )
        if not self.S1 > (2.0 / self.c) * self.s1:
            raise ParameterError(
                f"S1 must exceed (2/c) s1 = {(2.0 / self.c) * self.s1:g}, got {self.S1}"
            )
        if self.n_initial < 1:
            raise ParameterError(f"n_initial must be >= 1, got {self.n_initial}")
        if self.max_refinements < 1:
            raise ParameterError(
                f"max_refinements must be >= 1, got {self.max_refinements}"
            )


def sample_stats(values) -> Tuple[float, float]:
    """Sample mean and the biased standard deviation sqrt(A(Y^2) - A(Y)^2).

    A negative radicand from round-off is clamped to zero.  Needs at
    least two values.
    """
    v = np.asarray(values, float).ravel()
    m = v.size
    if m < 2:
        raise ParameterError(f"sample statistics need at least 2 values, got {m}")
    mean = math.fsum(v) / m
    var = math.fsum(v * v) / m - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def statistical_error_bound(std: float, m: int, c0: float = 1.65) -> float:
    """Confidence bound c0 * std / sqrt(M) on a sample mean."""
    if m < 1:
        raise ParameterError(f"M must be >= 1, got {m}")
    if std < 0.0:
        raise ParameterError(f"std must be >= 0, got {std}")
    return c0 * std / math.sqrt(m)


def change_M(m_in: int, s_in: float, tol_s: float, c0: float = 1.65, mch: int = 10) -> int:
    """Next batch size: the confidence-interval size, capped and rounded.

    M* = min(floor((c0 s_in / tol_s)^2), MCH * m_in), clamped to >= 1;
    the result is 2^(floor(log2 M*) + 1), always a power of two and at
    most 2 * MCH * m_in.
    """
    if m_in < 1:
        raise ParameterError(f"M_in must be >= 1, got {m_in}")
    if not tol_s > 0.0:
        raise ParameterError(f"TOL_S must be positive, got {tol_s}")
    if s_in < 0.0:
        raise ParameterError(f"S_in must be >= 0, got {s_in}")
    cap = mch * m_in
    ratio = c0 * s_in / tol_s
    m_star = cap if ratio * ratio >= cap else int(ratio * ratio)
    m_star = max(m_star, 1)
    # 2^(floor(log2 M*) + 1), exactly: math.log2 rounds up just below
    # large powers of two, which broke the cap for M* near 2^49
    return 2 ** m_star.bit_length()


# ---------------------------------------------------------------------------
# Monte Carlo batching


@dataclass(frozen=True)
class MonteCarloBatch:
    """One batch of fresh samples and its statistics."""

    start_index: int
    size: int
    mean: float
    std: float
    error_bound: float


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of the batched Monte Carlo loop.

    ``estimate`` is the last batch's sample mean unless pooling across
    batches was requested.
    """

    estimate: float
    error_bound: float
    std: float
    m_final: int
    batches: Tuple[MonteCarloBatch, ...]
    next_index: int
    total_samples: int


def monte_carlo(
    draw: Callable[[int, int], Array],
    tol_s: float,
    stats: StatParams = StatParams(),
    start_index: int = 0,
    pooled: bool = False,
) -> MonteCarloResult:
    """Draw fresh batches until the statistical bound meets tol_s.

    ``draw(start, count)`` must return ``count`` i.i.d. samples for the
    realization indices [start, start+count).  Each batch uses new
    samples; the batch size is updated by change_M.  Raises
    ConvergenceError after ``stats.max_batches`` batches.
    """
    if not tol_s > 0.0:
        raise ParameterError(f"TOL_S must be positive, got {tol_s}")
    m = stats.m0
    index = start_index
    batches = []
    pooled_sum = 0.0
    pooled_sq = 0.0
    total = 0
    for _ in range(stats.max_batches):
        values = np.asarray(draw(index, m), float)
        if values.shape != (m,):
            raise ParameterError(
                f"draw returned shape {values.shape}, expected ({m},)"
            )
        mean, std = sample_stats(values)
        bound = statistical_error_bound(std, m, stats.c0)
        batches.append(
            MonteCarloBatch(
                start_index=index, size=m, mean=mean, std=std, error_bound=bound
            )
        )
        index += m
        total += m
        pooled_sum += math.fsum(values)
        pooled_sq += math.fsum(values * values)
        if bound <= tol_s:
            estimate, est_std, est_bound, est_m = mean, std, bound, m
            if pooled:
                estimate = pooled_sum / total
                est_std = math.sqrt(max(pooled_sq / total - estimate * estimate, 0.0))
                est_bound = statistical_error_bound(est_std, total, stats.c0)
                est_m = total
            return MonteCarloResult(
                estimate=estimate,
                error_bound=est_bound,
                std=est_std,
                m_final=est_m,
                batches=tuple(batches),
                next_index=index,
                total_samples=total,
            )
        m = change_M(m, std, tol_s, stats.c0, stats.mch)
    raise ConvergenceError(
        f"statistical error still above {tol_s:g} after {stats.max_batches} batches "
        f"(last bound {batches[-1].error_bound:g} at M={batches[-1].size})"
    )


# ---------------------------------------------------------------------------
# deterministic-mesh refinement primitives


def refine_deterministic(mesh: Array, rbar: Array, tol_tt: float, d1: float, n: int = None) -> Array:
    """Bisect every interval whose averaged indicator is >= d1 * TOL_TT / N."""
    mesh = np.asarray(mesh, float)
    rbar = np.asarray(rbar, float)
    if rbar.shape != (len(mesh) - 1,):
        raise ParameterError(
            f"indicators must have one entry per interval, got {rbar.shape}"
        )
    if n is None:
        n = len(mesh) - 1
    split = np.nonzero(rbar >= d1 * tol_tt / n)[0]
    return np.insert(mesh, split + 1, 0.5 * (mesh[split] + mesh[split + 1]))


def stopping_deterministic(rbar: Array, n: int, tol_tt: float, D1: float) -> bool:
    """True iff max averaged indicator is strictly below D1 * TOL_TT / N."""
    return float(np.max(rbar)) < D1 * tol_tt / n


# ---------------------------------------------------------------------------
# fixed-mesh batch engine

_KERNEL_CALLBACKS = STEP_DENSITY_CALLBACKS + ["drift_xxx", "diffusion_xxx"]


def _path_batch(model, paths, realizations, want_rho):
    """Forward Euler and, if ``want_rho``, order-3 duals and per-step rho
    for the B same-length rows of ``paths``.

    ``realizations`` are the rows' absolute indices, named by the
    EvaluationError raised for a diverging path or a non-finite density.
    Returns (payoff, rho) with rho None without ``want_rho``.  The model's
    callbacks must broadcast over rows (see ``as_vectorized``); each is
    evaluated once per node, and the dual and density layers share the
    values.
    """
    values, left = euler_batch(model, paths, realizations=realizations)
    payoff = np.asarray(model.payoff(values[:, -1]), float)
    if not want_rho:
        return payoff, None
    model.require(
        *_required_callbacks(3, with_jumps=paths.jump_flag.any()), "drift_t", "diffusion_t"
    )
    cb = _stack_calls(model, _KERNEL_CALLBACKS, paths.times[:, :-1], values[:, :-1])
    stores, _, _ = dual_batch(model, cb, paths, values, left, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rho raises below
        rho = rho_batch(cb, *stores)
    if not np.isfinite(rho).all():
        which = realizations[int(np.nonzero(~np.isfinite(rho).all(axis=1))[0][0])]
        named = "" if which is None else f" (realization {which})"
        raise EvaluationError(f"error density is not finite{named}", realization=which)
    return payoff, rho


def _mesh_group_batched(model, det, group, paths, tol, want_density, outputs, start):
    """Simulate a group of same-step-count realizations as one array batch.

    Results land in ``outputs`` at the group's rows, and ``start + row``
    is the realization index.
    """
    slots = group.rows
    payoff, rho = _path_batch(model, paths, (start + slots).tolist(), want_density)
    outputs["payoff"][slots] = payoff
    outputs["n_a"][slots] = paths.dt.shape[1]
    outputs["n_jumps"][slots] = group.n_jumps
    outputs["collisions"][slots] = group.collisions
    if not want_density:
        return

    contrib = rho * paths.dt ** 2
    signed = interval_sums(contrib, paths.times, det)
    widths = np.diff(det)
    clamped = cutoff_density_S(signed / widths ** 2, tol) * widths ** 2
    outputs["signed_interval"][slots] = signed
    outputs["r"][slots] = clamped
    outputs["signed_total"][slots] = contrib.sum(axis=1)


def _setup_groups(model, det, streams, start, count, integral, positions=None):
    """Augmented grids and Wiener increments of realizations
    [start, start+count), as (GridGroup, PathBatch) pairs by ascending
    step count.

    ``jumps.sample_jump_chunk`` draws every realization's jumps (with the
    model's intensity ``integral``) and marks from its keyed ``streams``;
    all grids are merged in one ``build_grid_groups`` pass; the standard
    normals of every row come from one ``KeyedStream.draws`` call on the
    Wiener family, in group order, and are scaled by sqrt(dt) in place
    once per group.  Set-up errors name the realization.  With
    ``positions``, each row's Wiener word offset after its draws is
    stored at the row.
    """
    wiener, jump_times, marks = streams
    realizations = range(start, start + count)
    jumps = sample_jump_chunk(model, integral, jump_times, marks, realizations)
    groups = build_grid_groups(
        det, *jumps, horizon=model.horizon, realizations=realizations
    )
    rows = np.concatenate([group.rows for group in groups])
    draws = np.concatenate(
        [np.full(len(group.rows), group.times.shape[1] - 1) for group in groups]
    ) * model.wiener_dim
    ends = None if positions is None else np.empty(len(rows), dtype=np.int64)
    z = wiener.draws("standard_normal", start + rows, draws, ends)
    if positions is not None:
        positions[rows] = ends
    out = []
    at = 0
    for group in groups:
        dt = group.dt
        dw = z[at:at + dt.size * model.wiener_dim].reshape(dt.shape + (model.wiener_dim,))
        at += dw.size
        dw *= np.sqrt(dt)[:, :, None]
        out.append((group, PathBatch(group.times, dw, group.jump_index >= 0, group.marks, dt)))
    return out


def _setup_rows(model, det, streams, start, count, integral, positions=None):
    """``_setup_groups`` unstacked: each row's AugmentedGrid and increments."""
    grids = [None] * count
    dws = [None] * count
    for group, paths in _setup_groups(model, det, streams, start, count, integral, positions):
        for b, row in enumerate(group.rows.tolist()):
            grids[row] = group.grid(b)
            dws[row] = paths.dw[b]
    return grids, dws


def _mesh_chunk(model, det, seeds, start, count, tol, want_density):
    """All per-realization results for one contiguous index chunk."""
    model = as_vectorized(model)
    integral = intensity_integral_for(model)
    n_det = len(det) - 1
    outputs = {
        "payoff": np.empty(count),
        "n_a": np.empty(count, dtype=np.intp),
        "n_jumps": np.empty(count, dtype=np.intp),
        "collisions": np.empty(count, dtype=np.intp),
    }
    if want_density:
        outputs["signed_interval"] = np.empty((count, n_det))
        outputs["r"] = np.empty((count, n_det))
        outputs["signed_total"] = np.empty(count)

    streams = keyed_streams(seeds)
    for group, paths in _setup_groups(model, det, streams, start, count, integral):
        _mesh_group_batched(model, det, group, paths, tol, want_density, outputs, start)
    return outputs


def _interval_chunk(model, det, seeds, start, count):
    """Payoffs and signed interval-density totals, sum of rho_I * width^2
    over the deterministic intervals, of one contiguous index chunk (the
    ``--density rhodef`` diagnostic).

    Same set-up and forward layer as ``_mesh_chunk``; the interval
    density needs order-2 duals only, and its left-node drift and
    diffusion come from the same callback call as the dual layer's.
    """
    model = as_vectorized(model)
    integral = intensity_integral_for(model)
    widths = np.diff(det)
    payoffs = np.empty(count)
    totals = np.empty(count)
    for group, paths in _setup_groups(model, det, keyed_streams(seeds), start, count, integral):
        model.require(*_required_callbacks(2, with_jumps=paths.jump_flag.any()))
        values, left = euler_batch(model, paths, realizations=(start + group.rows).tolist())
        times = paths.times
        names = _euler_map_callbacks(2) + INTERVAL_DENSITY_CALLBACKS
        cb = _stack_calls(model, names, times[:, :-1], values[:, :-1])
        stores, _, _ = dual_batch(model, cb, paths, values, left, 2)
        hi = _stack_calls(model, INTERVAL_DENSITY_CALLBACKS, times[:, 1:], left[:, 1:])
        rho = rho_interval_batch(cb, hi, *stores, times, det)
        payoffs[group.rows] = np.asarray(model.payoff(values[:, -1]), float)
        totals[group.rows] = np.sum(rho * widths ** 2, axis=1)
    return {"payoff": payoffs, "total": totals}


def run_interval_batch(model, det, seeds, count, workers=1) -> dict:
    """Payoffs and signed interval-density totals of realizations
    [0, count), in MESH_CHUNK chunks run on ``workers`` processes."""
    args = [(det, seeds, s, c) for s, c in _chunk_ranges(0, count, MESH_CHUNK)]
    return _concat_rows(_run_chunked(_interval_chunk, model, args, workers))


def interval_signed_totals(model, det, seeds, count, workers=1) -> Array:
    """The signed interval-density totals of ``run_interval_batch``."""
    return run_interval_batch(model, det, seeds, count, workers)["total"]


_worker_model = None  # set in each pool worker by _adopt_model


def _adopt_model(model):
    global _worker_model
    _worker_model = model


def _in_worker(job):
    chunk_fn, args = job
    return _run_chunk(chunk_fn, _worker_model, args)


def _run_chunk(chunk_fn, model, args):
    """``chunk_fn(model, *args)``; an error names the chunk's smallest
    failing realization.

    ``args`` start with (det, seeds, start, count).  A chunk raises for
    the first failing row it meets (set-up before the kernel, then
    step-count groups and refinement levels in order), which depends on
    how its rows are grouped.  So on an error naming realization ``r``
    the rows before ``r`` run again, until no earlier row fails.  Rows
    are independent, so the error raised does not depend on the chunk
    size.
    """
    det, seeds, start, count, *rest = args
    end = start + count
    error = None
    while True:
        try:
            out = chunk_fn(model, det, seeds, start, end - start, *rest)
        except JumpMCError as exc:
            which = exc.realization
            if which is None or not start < which < end:
                raise
            error, end = exc, which
            continue
        if error is None:
            return out
        raise error


def _run_chunked(chunk_fn, model, arg_list, workers):
    """``chunk_fn(model, *args)`` for every args tuple, in order, through
    ``_run_chunk``; the first chunk's error wins.

    Pool workers are forked and receive the model object itself through
    the pool initializer, so closures and edited copies of builtin models
    run unchanged; without fork support the chunks run in this process.
    """
    if workers > 1 and len(arg_list) > 1 and "fork" in mp.get_all_start_methods():
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context("fork"),
            initializer=_adopt_model,
            initargs=(model,),
        ) as pool:
            return list(pool.map(_in_worker, [(chunk_fn, a) for a in arg_list]))
    return [_run_chunk(chunk_fn, model, a) for a in arg_list]


def _concat_rows(parts):
    """Per-realization arrays of consecutive index ranges, joined."""
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def _chunk_ranges(start, count, chunk):
    out = []
    done = 0
    while done < count:
        size = min(chunk, count - done)
        out.append((start + done, size))
        done += size
    return out


def run_mesh_batch(
    model: JumpDiffusionModel,
    det: Array,
    seeds: SeedConfig,
    start: int,
    count: int,
    *,
    tol: float = None,
    want_density: bool = False,
    workers: int = 1,
) -> dict:
    """Simulate realizations [start, start+count) on one shared mesh.

    Returns per-realization arrays: payoff, n_a, n_jumps, collisions and,
    when ``want_density`` (requires ``tol`` for the clamp), the signed
    per-interval sums, the clamped indicators r and the signed totals.
    Chunking is fixed, so results do not depend on the worker count.
    """
    if count < 1:
        raise ParameterError(f"batch size must be >= 1, got {count}")
    if want_density and tol is None:
        raise ParameterError("want_density needs tol for the density clamp")
    det = np.asarray(det, float)
    args = [
        (det, seeds, s, c, tol, want_density)
        for s, c in _chunk_ranges(start, count, MESH_CHUNK)
    ]
    return _concat_rows(_run_chunked(_mesh_chunk, model, args, workers))


# ---------------------------------------------------------------------------
# per-realization time-error control (stochastic steps)


@dataclass(frozen=True)
class TimeControlledRealization:
    """Outcome of adaptive per-realization time stepping."""

    payoff: float
    n_a: int
    n_jumps: int
    levels: int
    accepted: bool  # False when the step floor or level cap intervened
    signed_time_error: float  # sum of signed rho dt^2 on the final mesh
    r_total: float  # sum of clamped indicators on the final mesh
    work: int  # total steps over all simulated levels


def control_time_error(
    model: JumpDiffusionModel,
    jumps: JumpRealization,
    det: Array,
    wiener_rng: np.random.Generator,
    *,
    tol: float,
    tol_t: float,
    n_a_bar: float,
    adapt: AdaptParams = AdaptParams(),
    min_step: float = None,
) -> TimeControlledRealization:
    """Refine one realization's mesh until its indicators pass acceptance.

    Simulates, computes order-3 duals and clamped per-step indicators
    r_n = rho dt^2, accepts when max r_n < S1 * tol_t / n_a_bar, else
    bisects every step with r_n >= s1 * tol_t / n_a_bar (inclusive) with
    Brownian-bridge noise refinement.  Steps never shrink below the floor
    (horizon * 2^-30); a realization that cannot refine further, or runs
    out of refinement levels, is returned with ``accepted=False``.  This
    is the one-row case of the level loop ``algorithm_s`` runs.
    """
    model = as_vectorized(model)
    grid = build_augmented_grid(det, jumps, horizon=model.horizon)
    dw = sample_wiener_increments(grid, wiener_rng, model.wiener_dim)
    out = _refine_levels(
        model, [grid], [dw], [None], _OwnGenerator(wiener_rng), [None],
        tol, tol_t, n_a_bar, adapt, min_step,
    )
    return TimeControlledRealization(
        payoff=float(out["payoff"][0]),
        n_a=int(out["n_a"][0]),
        n_jumps=int(out["n_jumps"][0]),
        levels=int(out["levels"][0]),
        accepted=bool(out["accepted"][0]),
        signed_time_error=float(out["signed_total"][0]),
        r_total=float(out["r_total"][0]),
        work=int(out["work"][0]),
    )


class _OwnGenerator:
    """A ``KeyedStream`` stand-in for one row that draws from its own
    generator, which keeps the row's stream position itself."""

    word = None

    def __init__(self, generator):
        self.generator = generator

    def at(self, realization, word):
        return self.generator


def _refine_levels(
    model, grids, dws, realizations, wiener, positions, tol, tol_t, n_a_bar, adapt,
    min_step=None,
):
    """Per-realization adaptive refinement, one level at a time.

    Row ``i`` starts from ``grids[i]`` and ``dws[i]``; ``realizations[i]``
    is its absolute index (or None) and ``positions[i]`` the word offset
    of its Wiener stream's current position in ``wiener``, a
    ``KeyedStream``.  At every level the still-active rows are grouped by
    step count and each group runs through ``_path_batch``; rows that
    fail the acceptance test are bisected with bridge draws from
    ``wiener.at(realizations[i], positions[i])``, in the order a lone run
    of that row would draw them.
    Nothing is refined after the last simulated level, so every output of
    a row comes from the same mesh.  ``grids``, ``dws`` and ``positions``
    are updated in place; returns per-row arrays.
    """
    if min_step is None:
        min_step = float(model.horizon) * MIN_STEP_FRACTION
    refine_at = adapt.s1 * tol_t / n_a_bar
    accept_below = adapt.S1 * tol_t / n_a_bar
    count = len(grids)
    out = {
        "payoff": np.empty(count),
        "n_a": np.empty(count, dtype=np.intp),
        "n_jumps": np.array([g.n_jumps for g in grids], dtype=np.intp),
        "levels": np.empty(count, dtype=np.intp),
        "accepted": np.empty(count, dtype=bool),
        "signed_total": np.empty(count),
        "r_total": np.empty(count),
        "work": np.zeros(count, dtype=np.intp),
    }
    active = range(count)
    for level in range(adapt.max_refinements + 1):
        groups = {}
        for i in active:
            groups.setdefault(grids[i].n_steps, []).append(i)
        active = []
        for n_steps in sorted(groups):
            rows = groups[n_steps]
            paths = stack_paths(model, [grids[i] for i in rows], [dws[i] for i in rows])
            payoff, rho = _path_batch(model, paths, [realizations[i] for i in rows], True)
            dt = paths.dt
            r = cutoff_density_S(rho, tol) * dt ** 2
            accepted = r.max(axis=1) < accept_below
            out["payoff"][rows] = payoff
            out["n_a"][rows] = n_steps
            out["levels"][rows] = level
            out["accepted"][rows] = accepted
            out["signed_total"][rows] = (rho * dt ** 2).sum(axis=1)
            out["r_total"][rows] = r.sum(axis=1)
            out["work"][rows] += n_steps
            if level == adapt.max_refinements:
                continue
            splittable = (r >= refine_at) & (0.5 * dt >= min_step)
            for b in np.nonzero(~accepted & splittable.any(axis=1))[0]:
                i = rows[b]
                grids[i], dws[i] = brownian_bridge_refine(
                    grids[i], dws[i], splittable[b], wiener.at(realizations[i], positions[i]),
                    min_step=min_step,
                )
                positions[i] = wiener.word
                active.append(i)
        if not active:
            break
    return out


def _stoch_chunk(model, det, seeds, start, count, tol, tol_t, n_a_bar, adapt):
    """``_refine_levels`` over one index chunk, STOCH_BLOCK rows at a time."""
    model = as_vectorized(model)
    integral = intensity_integral_for(model)
    streams = keyed_streams(seeds)
    parts = []
    for lo in range(start, start + count, STOCH_BLOCK):
        size = min(STOCH_BLOCK, start + count - lo)
        positions = np.empty(size, dtype=np.int64)
        grids, dws = _setup_rows(model, det, streams, lo, size, integral, positions)
        parts.append(
            _refine_levels(
                model, grids, dws, range(lo, lo + size), streams[0], positions,
                tol, tol_t, n_a_bar, adapt,
            )
        )
    return _concat_rows(parts)


def run_stochastic_batch(
    model: JumpDiffusionModel,
    det: Array,
    seeds: SeedConfig,
    start: int,
    count: int,
    *,
    tol: float,
    tol_t: float,
    n_a_bar: float,
    adapt: AdaptParams = AdaptParams(),
    workers: int = 1,
) -> dict:
    """One batch of per-realization adaptive runs; fixed chunking."""
    if count < 1:
        raise ParameterError(f"batch size must be >= 1, got {count}")
    det = np.asarray(det, float)
    args = [
        (det, seeds, s, c, tol, tol_t, n_a_bar, adapt)
        for s, c in _chunk_ranges(start, count, STOCH_CHUNK)
    ]
    return _concat_rows(_run_chunked(_stoch_chunk, model, args, workers))


# ---------------------------------------------------------------------------
# adaptive drivers


@dataclass(frozen=True)
class DeterministicIterationRow:
    """One adaptation iteration of the deterministic-mesh driver."""

    iteration: int
    n_intervals: int
    m_time: int
    estimate: float
    e_c: float  # exact value - estimate (nan when unknown)
    e_t: float  # signed, unclamped time-error estimate
    e_tt: float  # averaged clamped indicator total
    e_ts: float  # statistical bound on the indicator total
    e_s: float  # statistical bound on the payoff mean (informational)
    max_indicator: float
    action: str  # refine | grow_m | stop


@dataclass(frozen=True)
class StochasticBatchRow:
    """One batch of the per-realization driver."""

    batch: int
    m: int
    estimate: float
    e_c: float
    e_s: float
    e_t: float
    e_tt: float
    mean_n_a: float
    min_n_a: int
    max_n_a: int
    std_n_a: float
    max_jumps: int
    rejected: int  # floor/level-cap realizations in this batch
    n_a_bar: float  # value used by this batch's acceptance thresholds


@dataclass(frozen=True)
class AdaptiveRunReport:
    """Result of an adaptive run, with enough detail to audit it."""

    algorithm: str
    budget: ToleranceBudget
    estimate: float
    e_c: float  # exact - estimate (nan when no exact value)
    e_t: float
    e_tt: float
    e_ts: float
    e_s: float
    claimed_bound: float  # e_tt + e_ts + e_s
    det_times: Array
    seeds: SeedConfig
    total_realizations: int
    total_steps: int  # sum of final N_A over all realizations
    total_work: int  # steps over every simulated refinement level
    rejected_realizations: int
    iterations: Tuple[DeterministicIterationRow, ...] = ()
    batches: Tuple[StochasticBatchRow, ...] = ()
    mc_batches: Tuple[MonteCarloBatch, ...] = ()


def _column_means(rows: Array) -> Array:
    """Column means with order-fixed compensated summation."""
    m, n = rows.shape
    return np.array([math.fsum(rows[:, j]) / m for j in range(n)])


def algorithm_d(
    model: JumpDiffusionModel,
    tol: float,
    *,
    stats: StatParams = StatParams(),
    adapt: AdaptParams = AdaptParams(),
    seeds: SeedConfig = SeedConfig(),
    workers: int = 1,
) -> AdaptiveRunReport:
    """Adapt one shared deterministic mesh, then run plain Monte Carlo.

    Each iteration simulates M_T fresh realizations on the current mesh,
    averages the clamped per-interval indicators, and either refines the
    mesh (acceptance violated) or grows M_T (indicator average too
    uncertain); those two actions are mutually exclusive per iteration.
    When both tests pass, the payoff is estimated by ``monte_carlo`` on
    the frozen mesh.  Raises ConvergenceError when the iteration cap is
    hit; the partial iteration rows ride on the exception as
    ``exc.iterations``.
    """
    budget = split_tolerance(tol)
    if not budget.total < 1.0:
        raise ParameterError(f"TOL must lie in (0, 1), got {tol}")
    det = uniform_mesh(model.horizon, adapt.n_initial)
    m_t = stats.m0
    next_index = 0
    rows = []
    total_steps = 0
    total_work = 0
    exact = model.exact_value
    converged = False

    for iteration in range(1, adapt.max_refinements + 1):
        res = run_mesh_batch(
            model,
            det,
            seeds,
            next_index,
            m_t,
            tol=budget.total,
            want_density=True,
            workers=workers,
        )
        next_index += m_t
        steps = int(res["n_a"].sum())
        total_steps += steps
        total_work += steps

        n = len(det) - 1
        rbar = _column_means(res["r"])
        r_totals = res["r"].sum(axis=1)
        mean_g, std_g = sample_stats(res["payoff"])
        e_tt, std_r = sample_stats(r_totals)
        e_ts = statistical_error_bound(std_r, m_t, stats.c0)
        e_t = math.fsum(res["signed_total"]) / m_t
        e_s = statistical_error_bound(std_g, m_t, stats.c0)

        mesh_ok = stopping_deterministic(rbar, n, budget.time_step, adapt.D1)
        if not mesh_ok:
            action = "refine"
        elif e_ts > budget.time_stat:
            action = "grow_m"
        else:
            action = "stop"
        rows.append(
            DeterministicIterationRow(
                iteration=iteration,
                n_intervals=n,
                m_time=m_t,
                estimate=mean_g,
                e_c=exact - mean_g if exact is not None else math.nan,
                e_t=e_t,
                e_tt=e_tt,
                e_ts=e_ts,
                e_s=e_s,
                max_indicator=float(np.max(rbar)),
                action=action,
            )
        )
        if action == "refine":
            det = refine_deterministic(det, rbar, budget.time_step, adapt.d1)
        elif action == "grow_m":
            m_t = change_M(m_t, std_r, budget.time_stat, stats.c0, stats.mch)
        else:
            converged = True
            break

    if not converged:
        exc = ConvergenceError(
            f"mesh/batch adaptation did not settle within {adapt.max_refinements} "
            f"iterations (N={len(det) - 1}, M_T={m_t})"
        )
        exc.iterations = tuple(rows)
        raise exc

    last = rows[-1]
    work_box = {"steps": 0}

    def draw(start, count):
        out = run_mesh_batch(
            model, det, seeds, start, count, want_density=False, workers=workers
        )
        work_box["steps"] += int(out["n_a"].sum())
        return out["payoff"]

    mc = monte_carlo(
        draw, budget.statistical, replace(stats, m0=m_t), start_index=next_index
    )
    total_steps += work_box["steps"]
    total_work += work_box["steps"]
    estimate = mc.estimate

    return AdaptiveRunReport(
        algorithm="deterministic-mesh",
        budget=budget,
        estimate=estimate,
        e_c=exact - estimate if exact is not None else math.nan,
        e_t=last.e_t,
        e_tt=last.e_tt,
        e_ts=last.e_ts,
        e_s=mc.error_bound,
        claimed_bound=last.e_tt + last.e_ts + mc.error_bound,
        det_times=det,
        seeds=seeds,
        total_realizations=mc.next_index,
        total_steps=total_steps,
        total_work=total_work,
        rejected_realizations=0,
        iterations=tuple(rows),
        mc_batches=mc.batches,
    )


def algorithm_s(
    model: JumpDiffusionModel,
    tol: float,
    *,
    stats: StatParams = StatParams(),
    adapt: AdaptParams = AdaptParams(),
    seeds: SeedConfig = SeedConfig(),
    workers: int = 1,
) -> AdaptiveRunReport:
    """Per-realization adaptive time stepping with batched sample control.

    Every realization adapts its own mesh as in ``control_time_error``; the
    acceptance thresholds scale with the mean final step count of the
    previous batch (the initial mesh size for the first batch).  Batches
    grow by change_M until the payoff's statistical bound meets the
    budget.  Raises ConvergenceError at the batch cap, with partial rows
    on the exception as ``exc.batches``.
    """
    budget = split_tolerance(tol)
    if not budget.total < 1.0:
        raise ParameterError(f"TOL must lie in (0, 1), got {tol}")
    det = uniform_mesh(model.horizon, adapt.n_initial)
    m = stats.m0
    n_a_bar = float(adapt.n_initial)
    next_index = 0
    exact = model.exact_value
    rows = []
    total_steps = 0
    total_work = 0
    rejected = 0

    for batch_no in range(1, stats.max_batches + 1):
        res = run_stochastic_batch(
            model,
            det,
            seeds,
            next_index,
            m,
            tol=budget.total,
            tol_t=budget.time,
            n_a_bar=n_a_bar,
            adapt=adapt,
            workers=workers,
        )
        next_index += m
        total_steps += int(res["n_a"].sum())
        total_work += int(res["work"].sum())
        rejected += int(np.count_nonzero(~res["accepted"]))

        mean_g, std_g = sample_stats(res["payoff"])
        e_s = statistical_error_bound(std_g, m, stats.c0)
        e_t = math.fsum(res["signed_total"]) / m
        e_tt = math.fsum(res["r_total"]) / m
        mean_na, std_na = sample_stats(res["n_a"])
        rows.append(
            StochasticBatchRow(
                batch=batch_no,
                m=m,
                estimate=mean_g,
                e_c=exact - mean_g if exact is not None else math.nan,
                e_s=e_s,
                e_t=e_t,
                e_tt=e_tt,
                mean_n_a=mean_na,
                min_n_a=int(res["n_a"].min()),
                max_n_a=int(res["n_a"].max()),
                std_n_a=std_na,
                max_jumps=int(res["n_jumps"].max()),
                rejected=int(np.count_nonzero(~res["accepted"])),
                n_a_bar=n_a_bar,
            )
        )
        n_a_bar = mean_na
        if e_s <= budget.statistical:
            last = rows[-1]
            _, std_r = sample_stats(res["r_total"])
            e_ts = statistical_error_bound(std_r, m, stats.c0)
            return AdaptiveRunReport(
                algorithm="per-realization",
                budget=budget,
                estimate=last.estimate,
                e_c=last.e_c,
                e_t=last.e_t,
                e_tt=last.e_tt,
                e_ts=e_ts,
                e_s=last.e_s,
                claimed_bound=last.e_tt + e_ts + last.e_s,
                det_times=det,
                seeds=seeds,
                total_realizations=next_index,
                total_steps=total_steps,
                total_work=total_work,
                rejected_realizations=rejected,
                batches=tuple(rows),
            )
        m = change_M(m, std_g, budget.statistical, stats.c0, stats.mch)

    exc = ConvergenceError(
        f"statistical bound still above {budget.statistical:g} after "
        f"{stats.max_batches} batches (last M={rows[-1].m})"
    )
    exc.batches = tuple(rows)
    raise exc
