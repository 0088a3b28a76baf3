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
which chains the batched layers for a block of B paths: forward Euler
(``euler.euler_batch``; ``euler.euler_terminal`` when only X(T) is
needed, as in ``monte_carlo``), order-3 dual weights
(``duals.dual_batch``) and the per-step density
(``density.rho_batch``), with every callback
evaluated once per node and shared by the dual and density layers.  The
backward sweep reads only X(T) and the left limits at the jumps of the
forward paths: the left limits are freed before it, once their values
at the jumps are taken, and the callbacks only the density reads are
evaluated after it; the memory this saves goes to larger level-loop
blocks.  A
derivative with a declared support (``derivative_support``) is copied
and contracted only on the bounding box of that support, and one with
an empty support is not evaluated; the support is static, so this
cannot depend on chunk size or worker count, and the results are those
of the full tensors up to the sign of a zero and 0 * inf.

Paths are node-major from set-up to the dual sweep: every per-node
array of a ``PathBatch`` is shaped (nodes, rows), with the rows ordered
by descending step count, so the rows that take step p are the
contiguous column prefix ``[p, :k_p]``.  Forward Euler reads and writes
those prefixes, callbacks are evaluated at real nodes only, and nothing
past a row's last node is written or read.  The dual and density layers
hold their arrays rows last, packed step by step as (t..., K) for the K
steps the rows take (equal step counts are the case k_p = B, where that
is (t..., n, B) flattened); each row's sweep starts from the payoff
derivatives at its own X(T).  ``_setup_paths`` sets up a whole index
range at once from counter-based draws (``rng.KeyedStream.draws``):
every realization's jump times, marks (``jumps.sample_jump_chunk``) and
Wiener normals come from its own Philox streams, computed for the whole
range at once, ziggurat rejections included; only a mark sampler that is
not a ``model.UniformMarks`` draws from numpy's per-realization generator
(``rng.stream``, reset per row by ``rng.stream_generator``).  All grids are merged
in one pass by ``jumps.build_grid_batch``, which writes them node-major,
longest first, and the scaled normals go straight into the node-major
increments; a row's Wiener increments are the first ``n_steps *
wiener_dim`` normals of its stream, so that is its position after
set-up.  Both engines send their rows through the kernel in the blocks
of ``_ragged_blocks``, column slices of consecutive rows that take at
most a budget of steps in all (or one row), and reduce each row over its
own steps, a step count at a time (``PathBatch.by_step_count``), so no
reduction reads past a row's last step.  The mesh engine
(``_mesh_chunk``) sets up a chunk once and runs it either forward-only,
the whole chunk in one pass (``monte_carlo``'s draws), or in blocks of
MESH_BLOCK_STEPS with a per-kind reduction: per interval with
``density.interval_sums`` for ``algorithm_d``'s time-control batches,
or to the interval-density totals of the ``--density rhodef``
diagnostic.  The per-realization driver refines a whole chunk
level-synchronously: its rows stay one ``PathBatch`` from set-up to
result, every level runs the kernel on blocks of STOCH_BLOCK_STEPS, the
rows still refining are bisected together by
``euler.bridge_refine_batch``, which draws each row's bridge noise from
its own Wiener stream at the row's position, the number of normals the
stream has given, and the refined rows are joined, longest first, into
the next level's batch (``control_time_error`` runs one realization).
Layer arithmetic is row-wise, so no realization's numbers depend on the
rows it shares a batch with.

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

# perfbench/run.py times layers by patching names on this module.  The
# one-row euler_path, brownian_bridge_refine, backward_duals,
# rho_per_step, sample_jumps, build_augmented_grid and
# sample_wiener_increments, and realization_streams (numpy's
# per-realization generators, which the engines draw from only for a mark
# sampler that is not a UniformMarks, through rng.stream_generator in
# jumps), are unused here: they serve only perfbench's spans, and are
# imported so that they stay patchable.
from .density import (  # noqa: F401
    INTERVAL_DENSITY_CALLBACKS,
    STEP_DENSITY_CALLBACKS,
    _check_tol,
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
    jump_left_limits,
)
from .errors import ConvergenceError, EvaluationError, JumpMCError, ParameterError, check_integer
from .euler import (  # noqa: F401
    MIN_STEP_FRACTION,
    PathBatch,
    bridge_refine_batch,
    brownian_bridge_refine,
    concat_paths,
    euler_batch,
    euler_path,
    euler_terminal,
    sample_wiener_increments,
    terminal_values,
)
from .jumps import (  # noqa: F401
    build_augmented_grid,
    build_grid_batch,
    check_mesh,
    intensity_integral_for,
    sample_jump_chunk,
    sample_jumps,
    uniform_mesh,
)
from .model import JumpDiffusionModel, as_vectorized
from .rng import REALIZATIONS, SeedConfig, keyed_streams, realization_streams  # noqa: F401

Array = np.ndarray

MESH_CHUNK = 16384  # fixed chunk sizes keep grouping independent of workers
STOCH_CHUNK = 2048
# row-steps (the steps its rows take) per kernel call in the level loop,
# unless one row alone has more.  It trades per-step overhead against
# kernel memory: a kernel step costs about 100-150 us of numpy calls
# whatever its row count, and the kernel holds only its block's steps.  On
# test5 at TOL 0.04, 6144 makes 14 kernel calls per algorithm_s call where
# 3072 made 21, and cut the adapt-s benchmark's wall time by 17% for 1.0 MB
# more peak RSS; the traced peak inside dual_batch is then 3.6 MB
# (BENCH_stochblocks.json, on a 2-CPU host)
STOCH_BLOCK_STEPS = 6144
# steps per density kernel call in the mesh engine, unless one row alone
# has more.  On test5 this keeps every time-control batch of algorithm_d
# at TOL 0.02 (at most 10,423 steps) in one call, and the peak RSS of the
# mesh-density benchmark 8 MB below one call per step-count group
MESH_BLOCK_STEPS = 16384


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
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"TOL must be positive and finite, got {tol}")
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
        _check_c0(self.c0, 1.65)
        checks = (("mch", "MCH", 2), ("m0", "M0", 2), ("max_batches", "max_batches", 1))
        for name, label, least in checks:
            object.__setattr__(self, name, check_integer(label, getattr(self, name), least))


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
        for name in ("n_initial", "max_refinements"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), 1))


def _check_c0(c0: float, floor: float | None = None) -> None:
    """ParameterError unless the confidence constant ``c0`` is finite and
    positive, and at least ``floor`` if one is given."""
    if not (math.isfinite(c0) and c0 > 0.0 and (floor is None or c0 >= floor)):
        least = "> 0" if floor is None else f">= {floor:g}"
        raise ParameterError(f"c0 must be finite and {least}, got {c0}")


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
    """Confidence bound c0 * std / sqrt(M) on a sample mean; ``c0`` must be
    finite and positive."""
    _check_c0(c0)
    if m < 1:
        raise ParameterError(f"M must be >= 1, got {m}")
    if not std >= 0.0:  # NaN fails >= too
        raise ParameterError(f"std must be >= 0, got {std}")
    return c0 * std / math.sqrt(m)


def change_M(m_in: int, s_in: float, tol_s: float, c0: float = 1.65, mch: int = 10) -> int:
    """Next batch size: the confidence-interval size, capped and rounded.

    M* = min(floor((c0 s_in / tol_s)^2), MCH * m_in), clamped to >= 1;
    the result is 2^(floor(log2 M*) + 1), always a power of two and at
    most 2 * MCH * m_in.  ``c0`` must be finite and positive.
    """
    m_in, mch = check_integer("M_in", m_in, 1), check_integer("MCH", mch, 1)
    _check_c0(c0)
    if not tol_s > 0.0:
        raise ParameterError(f"TOL_S must be positive, got {tol_s}")
    if not s_in >= 0.0:  # NaN fails >= too
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

    ``estimate`` is the last batch's sample mean.
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
) -> MonteCarloResult:
    """Draw fresh batches until the statistical bound meets tol_s.

    ``draw(start, count)`` must return ``count`` i.i.d. samples for the
    realization indices [start, start+count).  Each batch uses new
    samples; the batch size is updated by change_M.  Raises
    ConvergenceError after ``stats.max_batches`` batches, EvaluationError
    naming the first realization whose sample is not finite, and
    ParameterError before any draw unless ``tol_s`` is positive and
    ``start_index`` an integer of at least 0.
    """
    if not tol_s > 0.0:
        raise ParameterError(f"TOL_S must be positive, got {tol_s}")
    m = stats.m0
    index = check_integer("start_index", start_index, 0)
    batches = []
    total = 0
    for _ in range(stats.max_batches):
        values = np.asarray(draw(index, m), float)
        if values.shape != (m,):
            raise ParameterError(
                f"draw returned shape {values.shape}, expected ({m},)"
            )
        _check_finite(values, range(index, index + m), "sample")
        mean, std = sample_stats(values)
        bound = statistical_error_bound(std, m, stats.c0)
        batches.append(
            MonteCarloBatch(
                start_index=index, size=m, mean=mean, std=std, error_bound=bound
            )
        )
        index += m
        total += m
        if bound <= tol_s:
            return MonteCarloResult(
                estimate=mean,
                error_bound=bound,
                std=std,
                m_final=m,
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


def refine_deterministic(mesh: Array, rbar: Array, tol_tt: float, d1: float) -> Array:
    """Bisect every interval whose averaged indicator is >= d1 * TOL_TT / N."""
    mesh = np.asarray(mesh, float)
    rbar = np.asarray(rbar, float)
    if rbar.shape != (len(mesh) - 1,):
        raise ParameterError(
            f"indicators must have one entry per interval, got {rbar.shape}"
        )
    split = np.nonzero(rbar >= d1 * tol_tt / (len(mesh) - 1))[0]
    return np.insert(mesh, split + 1, 0.5 * (mesh[split] + mesh[split + 1]))


def stopping_deterministic(rbar: Array, n: int, tol_tt: float, D1: float) -> bool:
    """True iff max averaged indicator is strictly below D1 * TOL_TT / N."""
    return float(np.max(rbar)) < D1 * tol_tt / n


# ---------------------------------------------------------------------------
# fixed-mesh batch engine

# the Euler-map callbacks the sweep reads, evaluated before it, and those
# only the density reads, evaluated after it
_SWEEP_CALLBACKS = _euler_map_callbacks(3)
_DENSITY_ONLY_CALLBACKS = [n for n in STEP_DENSITY_CALLBACKS if n not in _SWEEP_CALLBACKS]


def _path_batch(model, paths, realizations, want_rho):
    """Forward Euler and, if ``want_rho``, order-3 duals and per-step rho
    for the B rows of the node-major ``paths``, ordered by descending step
    count: a block of ``_ragged_blocks`` in both engines' density runs, a
    whole chunk in the mesh engine's forward-only runs.  Without
    ``want_rho`` no path is stored, only X(T).

    ``realizations`` are the rows' absolute indices, named by the
    EvaluationError raised for a diverging path, a non-finite payoff or a
    non-finite density.  Returns (payoff, rho) with rho None without
    ``want_rho``; rho is (B, n), 0 past a row's last step.  The model's
    callbacks must broadcast over rows (see ``as_vectorized``); each is
    evaluated once per real node, and the dual and density layers share
    the values.  The backward sweep holds only what it reads of the
    forward paths: the forward left limits are freed before it, once
    their values at the jumps are taken, and the density-only callbacks
    (``_DENSITY_ONLY_CALLBACKS``) are evaluated after it, at the same
    nodes, after which the node values are freed too.
    """
    if not want_rho:
        terminal = euler_terminal(model, paths, realizations=realizations)
        return _payoff(model, terminal, realizations), None
    values, left = euler_batch(model, paths, realizations=realizations)
    x_T = terminal_values(paths, values)
    payoff = _payoff(model, x_T, realizations)
    model.require(
        *_required_callbacks(3, with_jumps=paths.jump_flag.any()), "drift_t", "diffusion_t"
    )
    jump_left = jump_left_limits(paths, left)
    del left
    nodes = (paths.times[:-1], values[:-1])
    running = paths.running()
    cb = _stack_calls(model, _SWEEP_CALLBACKS, *nodes, running=running)
    stores, _, _ = dual_batch(model, cb, paths, x_T, jump_left, 3)
    cb.update(_stack_calls(model, _DENSITY_ONLY_CALLBACKS, *nodes, running=running))
    del values, nodes, x_T, jump_left  # freed before the density layer
    real = paths.real()
    rho = np.zeros(real.shape[::-1])  # (B, n), rows first
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rho raises below
        rho.T[real] = rho_batch(cb, *stores)
    _check_finite(rho, realizations, "error density")
    return payoff, rho


def _payoff(model, terminal, realizations):
    """The payoffs of the rows' terminal states, checked finite."""
    payoff = np.asarray(model.payoff(terminal), float)
    _check_finite(payoff, realizations, "payoff")
    return payoff


def _check_finite(values, realizations, what):
    """EvaluationError naming the first row of ``values`` with an entry
    that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        which = realizations[int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))]
        raise EvaluationError(f"{what} is not finite (realization {which})", realization=which)


def _setup_paths(model, det, streams, start, count, integral):
    """Augmented grids and Wiener increments of realizations
    [start, start+count) as one node-major ``PathBatch`` ordered by
    descending step count: returns (rows, paths, n_jumps, collisions),
    with ``rows`` the chunk row of each column and the counts per row.

    ``jumps.sample_jump_chunk`` draws every realization's jumps (with the
    model's intensity ``integral``) and marks from its keyed ``streams``;
    ``jumps.build_grid_batch`` merges all grids in one pass, written
    node-major group by group; the standard normals of every row come from
    one ``KeyedStream.draws`` call on the Wiener family, in column order,
    and are scaled by sqrt(dt) into the node-major increments, a
    step-count group at a time.  A row's increments are the first
    ``n_steps * wiener_dim`` normals of its Wiener stream.  Set-up errors
    name the realization.
    """
    wiener, jump_times, marks = streams
    realizations = range(start, start + count)
    jumps = sample_jump_chunk(model, integral, jump_times, marks, realizations)
    grids = build_grid_batch(det, *jumps, horizon=model.horizon, realizations=realizations)
    l = model.wiener_dim
    z = wiener.draws("standard_normal", start + grids.rows, grids.n_steps * l)
    dw = np.empty((len(grids.times) - 1, count, l))
    paths = PathBatch(grids.times, dw, grids.jump_flag, grids.marks, grids.n_steps)
    at = 0
    for cols, n in paths.by_step_count():
        t = grids.times[: n + 1, cols]
        size = (cols.stop - cols.start) * n * l
        normals = z[at : at + size].reshape(-1, n, l).swapaxes(0, 1)
        np.multiply(normals, np.sqrt(t[1:] - t[:-1])[:, :, None], out=dw[:n, cols])
        at += size
    return grids.rows, paths, jumps[0], grids.collisions


def _mesh_chunk(model, det, seeds, start, count, tol, density):
    """All per-realization results for one contiguous index chunk.

    One set-up writes the chunk's paths node-major, longest first.
    Forward-only (``density`` None) the whole chunk is one kernel call.
    Otherwise the rows run in the blocks of ``_ragged_blocks``, at most
    MESH_BLOCK_STEPS steps in all or one row, and are reduced by kind:
    with the per-step density (``density`` "step") each row over its own
    steps, a step count at a time, into per-interval sums, clamped
    indicators and signed totals; with the interval density ("interval",
    the ``--density rhodef`` diagnostic) into the signed interval-density
    total, sum of rho_I * width^2 over the deterministic intervals.
    """
    model = as_vectorized(model)
    rows, paths, n_jumps, collisions = _setup_paths(
        model, det, keyed_streams(seeds), start, count, intensity_integral_for(model)
    )
    outputs = {
        "payoff": np.empty(count),
        "n_a": np.empty(count, dtype=np.intp),
        "n_jumps": np.asarray(n_jumps, dtype=np.intp),
        "collisions": np.empty(count, dtype=np.intp),
    }
    outputs["n_a"][rows] = paths.n_steps
    outputs["collisions"][rows] = collisions
    if density is None:
        outputs["payoff"][rows], _ = _path_batch(model, paths, (start + rows).tolist(), False)
        return outputs

    n_det = len(det) - 1
    widths = np.diff(det)
    if density == "interval":
        outputs["total"] = np.empty(count)
    else:
        outputs["signed_interval"] = np.empty((count, n_det))
        outputs["r"] = np.empty((count, n_det))
        outputs["signed_total"] = np.empty(count)
    for cols, block in _ragged_blocks(paths, MESH_BLOCK_STEPS):
        at = rows[cols]
        realizations = (start + at).tolist()
        if density == "interval":
            payoff, rho = _interval_batch(model, block, realizations, det)
            outputs["total"][at] = np.sum(rho * widths ** 2, axis=1)
        else:
            payoff, rho = _path_batch(model, block, realizations, True)
            for run, n in block.by_step_count():
                contrib = rho[run, :n] * block.dt(run, n) ** 2
                signed = interval_sums(contrib, block.times[: n + 1, run].T, det)
                outputs["signed_interval"][at[run]] = signed
                outputs["r"][at[run]] = cutoff_density_S(signed / widths ** 2, tol) * widths ** 2
                outputs["signed_total"][at[run]] = contrib.sum(axis=1)
        outputs["payoff"][at] = payoff
    return outputs


def _interval_batch(model, paths, realizations, det):
    """Payoffs and the (B, N) signed interval densities on the mesh
    ``det`` of a block of rows, as ``_path_batch`` runs the per-step
    density: the interval density needs order-2 duals only, and its
    left-node drift and diffusion come from the same callback call as
    the dual layer's."""
    model.require(*_required_callbacks(2, with_jumps=paths.jump_flag.any()))
    values, left = euler_batch(model, paths, realizations=realizations)
    times, running = paths.times, paths.running()
    names = _euler_map_callbacks(2) + INTERVAL_DENSITY_CALLBACKS
    cb = _stack_calls(model, names, times[:-1], values[:-1], running=running)
    x_T = terminal_values(paths, values)
    stores, _, _ = dual_batch(model, cb, paths, x_T, jump_left_limits(paths, left), 2)
    hi = _stack_calls(model, INTERVAL_DENSITY_CALLBACKS, times[1:], left[1:], running=running)
    rho = rho_interval_batch(cb, hi, *stores, paths, det)
    return _payoff(model, x_T, realizations), rho


def run_interval_batch(model, det, seeds, count, workers=1) -> dict:
    """Payoffs and signed interval-density totals ("total") of
    realizations [0, count), with ``run_mesh_batch``'s n_a, n_jumps and
    collisions, in MESH_CHUNK chunks run on ``workers`` processes."""
    _check_count(count)
    _check_workers(workers)
    det = check_mesh(det, model.horizon)
    args = [(det, seeds, s, c, None, "interval") for s, c in _chunk_ranges(0, count, MESH_CHUNK)]
    return _concat_rows(_run_chunked(_mesh_chunk, model, args, workers))


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
    refinement levels and kernel blocks in order, or the earliest
    failing step of the forward-only pass, whose longest rows come
    first), which depends on how its rows are grouped.  So on an error
    naming realization ``r`` the rows before ``r`` run again, until no
    earlier row fails.  Rows are independent,
    so the error raised does not depend on the chunk size.
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


def _check_count(count, start=0):
    """ParameterError unless realizations [start, start + count) are a
    nonempty range of valid indices, checked in Python integers."""
    if check_integer("batch size", count, 1) + check_integer("start", start, 0) > REALIZATIONS:
        raise ParameterError(f"realization index out of range: {max(start, REALIZATIONS)}")


def _check_workers(workers):
    check_integer("workers", workers, 1)


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
    _check_count(count, start)
    _check_workers(workers)
    if want_density:
        if tol is None:
            raise ParameterError("want_density needs tol for the density clamp")
        _check_tol(tol)
    det = check_mesh(det, model.horizon)
    args = [
        (det, seeds, s, c, tol, "step" if want_density else None)
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
    det: Array,
    seeds: SeedConfig,
    realization: int,
    *,
    tol: float,
    tol_t: float,
    n_a_bar: float,
    adapt: AdaptParams = AdaptParams(),
) -> TimeControlledRealization:
    """Refine one realization's mesh until its indicators pass acceptance.

    Simulates, computes order-3 duals and clamped per-step indicators
    r_n = rho dt^2, accepts when max r_n < S1 * tol_t / n_a_bar, else
    bisects every step with r_n >= s1 * tol_t / n_a_bar (inclusive) with
    Brownian-bridge noise refinement.  Steps never shrink below the floor
    (horizon * 2^-30); a realization that cannot refine further, or runs
    out of refinement levels, is returned with ``accepted=False``.  This
    is ``run_stochastic_batch`` of the one realization.
    """
    out = run_stochastic_batch(
        model, det, seeds, realization, 1, tol=tol, tol_t=tol_t, n_a_bar=n_a_bar, adapt=adapt
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


def _check_stochastic(tol, tol_t, n_a_bar):
    """The density clamp's TOL in (0, 1), and the acceptance thresholds'
    inputs: a positive TOL_T and a finite positive N_A bar (otherwise
    every step would bisect to the floor)."""
    _check_tol(tol)
    if not tol_t > 0.0:
        raise ParameterError(f"TOL_T must be positive, got {tol_t}")
    if not (math.isfinite(n_a_bar) and n_a_bar > 0.0):
        raise ParameterError(f"n_a_bar must be finite and positive, got {n_a_bar}")


def _refine_levels(model, rows, paths, realizations, wiener, positions, tol, tol_t, n_a_bar, adapt):
    """Per-realization adaptive refinement, one level at a time.

    ``paths`` holds every row once, node-major and ordered by descending
    step count, column b holding row ``rows[b]``; ``realizations[row]``
    is a row's absolute index and ``positions[row]`` the number of
    normals its Wiener stream in the ``KeyedStream`` ``wiener`` has
    given.  Each level runs its rows through ``_path_batch`` in the
    blocks of ``_ragged_blocks``; the rows that fail the acceptance test
    are bisected by ``bridge_refine_batch``, in the order a lone run of
    the row would draw its bridges, and the refined rows of all blocks,
    joined longest first, are the next level.  Every reduction over a
    row's steps runs on its own steps only, a step count at a time.
    Nothing is refined after the last simulated level, so every output
    of a row comes from the same mesh.  ``positions`` is updated in
    place; returns per-row arrays.
    """
    min_step = float(model.horizon) * MIN_STEP_FRACTION
    refine_at = adapt.s1 * tol_t / n_a_bar
    accept_below = adapt.S1 * tol_t / n_a_bar
    count = len(realizations)
    out = {
        "payoff": np.empty(count),
        "n_a": np.empty(count, dtype=np.intp),
        "n_jumps": np.empty(count, dtype=np.intp),
        "levels": np.empty(count, dtype=np.intp),
        "accepted": np.empty(count, dtype=bool),
        "signed_total": np.empty(count),
        "r_total": np.empty(count),
        "work": np.zeros(count, dtype=np.intp),
    }
    for level in range(adapt.max_refinements + 1):
        refined = []
        for cols, block in _ragged_blocks(paths, STOCH_BLOCK_STEPS):
            at = rows[cols]
            payoff, rho = _path_batch(model, block, realizations[at].tolist(), True)
            n_steps = block.n_steps
            accepted = np.empty(len(at), dtype=bool)
            splittable = np.zeros(rho.shape, dtype=bool)
            for run, n in block.by_step_count():
                dt = block.dt(run, n)
                r = cutoff_density_S(rho[run, :n], tol) * dt ** 2
                accepted[run] = r.max(axis=1) < accept_below
                out["signed_total"][at[run]] = (rho[run, :n] * dt ** 2).sum(axis=1)
                out["r_total"][at[run]] = r.sum(axis=1)
                out["n_jumps"][at[run]] = np.count_nonzero(block.jump_flag[: n + 1, run], axis=0)
                splittable[run, :n] = (r >= refine_at) & (0.5 * dt >= min_step) & ~accepted[run, None]
            out["payoff"][at] = payoff
            out["n_a"][at] = n_steps
            out["levels"][at] = level
            out["accepted"][at] = accepted
            out["work"][at] += n_steps
            if level == adapt.max_refinements:
                continue
            hit, split, positions[at] = bridge_refine_batch(
                block, splittable, wiener, realizations[at], positions[at]
            )
            if len(hit):
                refined.append((at[hit], split))
        if not refined:
            break
        ranked, paths = concat_paths([p for _, p in refined])
        rows = np.concatenate([r for r, _ in refined])[ranked]
    return out


def _ragged_blocks(paths, budget):
    """Blocks of consecutive rows of ``paths``, ordered by descending step
    count, that take at most ``budget`` steps in all, or of one row:
    (slice, PathBatch) pairs, each batch a view of its columns cut to its
    own longest row, so no level or chunk is held padded to its
    longest."""
    ends = np.cumsum(paths.n_steps)
    cuts = [0]
    while cuts[-1] < len(ends):
        lo = cuts[-1]
        done = int(ends[lo - 1]) if lo else 0
        cuts.append(max(lo + 1, int(np.searchsorted(ends, done + budget, side="right"))))
    return zip(map(slice, cuts, cuts[1:]), paths.split(cuts[1:]))


def _stoch_chunk(model, det, seeds, start, count, tol, tol_t, n_a_bar, adapt):
    """``_refine_levels`` over one index chunk."""
    model = as_vectorized(model)
    streams = keyed_streams(seeds)
    rows, paths, _, _ = _setup_paths(
        model, det, streams, start, count, intensity_integral_for(model)
    )
    positions = np.empty(count, dtype=np.int64)
    positions[rows] = paths.n_steps * model.wiener_dim  # the set-up's normals
    return _refine_levels(
        model, rows, paths, np.arange(start, start + count), streams[0], positions,
        tol, tol_t, n_a_bar, adapt,
    )


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
    _check_count(count, start)
    _check_workers(workers)
    _check_stochastic(tol, tol_t, n_a_bar)
    det = check_mesh(det, model.horizon)
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
    _check_workers(workers)
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

    Every realization adapts its own mesh (``run_stochastic_batch``;
    ``control_time_error`` runs one realization); the acceptance
    thresholds scale with the mean final step count of the previous
    batch (the initial mesh size for the first batch).  Batches
    grow by change_M until the payoff's statistical bound meets the
    budget.  Raises ConvergenceError at the batch cap, with partial rows
    on the exception as ``exc.batches``.
    """
    budget = split_tolerance(tol)
    if not budget.total < 1.0:
        raise ParameterError(f"TOL must lie in (0, 1), got {tol}")
    _check_workers(workers)
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
