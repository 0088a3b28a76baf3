"""Computable error densities for the Euler time discretization.

Two a-posteriori densities are provided.  The per-step density uses the
drift/diffusion time-and-space derivatives at the left node and the dual
weights at the right left-limit,

    rho_n = 1/2 [ (da/dt + a'a + a'' : dd) . phi
                + (dd/dt + d'a + d'' : dd + 2 a' dd) : phi'
                + 2 (d' dd) : phi'' ]            with dd = b b^T / 2,

so each step contributes rho_n dt_n^2 to the expected time error.  The
interval density instead differences the coefficients across each step
and aggregates over the steps inside one deterministic interval.  Both
are clamped into [TOL^(1/9), TOL^(-1)] before they steer refinement, so
rare large samples cannot stall or distort the mesh; estimation always
uses the raw signed values.

``rho_batch`` evaluates the per-step density of a block of paths from
callback values already evaluated, and ``interval_sums`` reduces per-step
contributions over the deterministic intervals; both drivers use them,
and ``rho_per_step`` is the one-row case of ``rho_batch``.
``rho_interval_batch`` is the batched interval density.

The batched density layers take the dual layer's rows-last arrays:
tensor axes first and the trailing lead axes (n, B) at the end (see
``duals``).  The final contraction of each term with the dual weights
runs on them too, with no rows-first copy: it adds each step's products
one tensor entry after the other, in C order.  The earlier kernel
copied factors and weights to contiguous rows-first (K, ...) stacks,
over which numpy's SIMD sum adds a run of products in another order;
the results are the same where a contraction has at most two non-zero
products, as on test5, and move by a few rounding errors of the sum of
the absolute products elsewhere (``tests/test_rows_last_density.py``).

Declared derivative supports reach this layer as ``duals.Box`` values:
``second_moment_arrays`` and ``rho_batch`` form every inner term with
``duals.box_einsum`` and ``duals.box_sum``, so only the boxes are
contracted and a term with an empty box is dropped.  The final
contractions stay dense (a box is padded with zeros first).  The
results are those of the full tensors up to the sign of a zero and
0 * inf, and cannot depend on chunk size or worker count, because the
supports are static.
"""

from __future__ import annotations

import numpy as np

from .duals import (
    DualWeights,
    _dense,
    _einsum,
    _rows_last,
    _scale,
    _stack_calls,
    _swap,
    box_einsum,
    box_sum,
)
from .errors import ParameterError
from .euler import EulerPath, PathBatch
from .jumps import interval_of_steps
from .model import JumpDiffusionModel, as_vectorized

Array = np.ndarray


STEP_DENSITY_CALLBACKS = [
    "drift",
    "drift_t",
    "drift_x",
    "drift_xx",
    "diffusion",
    "diffusion_t",
    "diffusion_x",
    "diffusion_xx",
]


# steps per pass of rho_batch, which bounds its second-moment arrays and
# factors.  In one pass per kernel block they set the process's peak RSS
# (passes of 1536 once lowered the adapt-s benchmark's peak by about 0.5
# MB); on the kernel blocks of the mesh-density benchmark (N=5, 2,700
# rows, CPU time) passes of 4096 were the fastest of 1536, 2048, 4096
# and 8192
DENSITY_SLICE = 4096


def rho_batch(cb: dict, phi: Array, phi1: Array, phi2: Array) -> Array:
    """Per-step density for a block of B paths, packed (K,).

    Every input is packed over the K steps the rows take, as
    ``duals.dual_batch`` lays them out: ``cb`` holds the
    ``STEP_DENSITY_CALLBACKS`` evaluated at the steps' left nodes (t_n,
    X(t_n)), as ``duals._stack_calls`` packs them (the declared ones as
    Boxes), and ``phi``, ``phi1``, ``phi2`` are the (t..., K) left-limit
    dual weights at the right nodes.  The steps are taken DENSITY_SLICE
    at a time, which bounds the memory of the second-moment arrays and
    the factors.  Pointwise arithmetic only, so a row's value never
    depends on which other rows share the stack or a slice.
    """
    d = len(cb["drift"])
    rho = np.empty(phi.shape[-1])
    for lo in range(0, len(rho), DENSITY_SLICE):
        part = slice(lo, lo + DENSITY_SLICE)
        drift_part, diff_part, third_part = _density_parts(
            {name: value[..., part] for name, value in cb.items()}
        )
        rho[part] = 0.5 * (
            _einsum("k...,k...->...", _dense(drift_part, d), phi[..., part])
            + _einsum("km...,km...->...", _dense(diff_part, d), phi1[..., part])
            + _einsum("kmr...,kmr...->...", _dense(third_part, d), phi2[..., part])
        )
    return rho


def _density_parts(cb: dict):
    """The three factors of ``rho_batch``'s contractions with phi, phi'
    and phi'', rows last; the second-moment arrays they are made of are
    freed on return."""
    a = cb["drift"]
    a_x = cb["drift_x"]
    dd, d_t, d_x, d_xx = second_moment_arrays(
        cb["diffusion"], cb["diffusion_t"], cb["diffusion_x"], cb["diffusion_xx"]
    )
    drift_part = box_sum(
        cb["drift_t"] + np.einsum("kj...,j...->k...", a_x, a),
        box_einsum("kij...,ij...->k...", cb["drift_xx"], dd),
        owned=True,
    )
    diff_part = box_sum(
        d_t,
        box_einsum("kmj...,j...->km...", d_x, a),
        box_einsum("kmij...,ij...->km...", d_xx, dd),
        2.0 * np.einsum("kj...,jm...->km...", a_x, dd),
        owned=True,
    )
    third_part = _scale(2.0, box_einsum("kmj...,jr...->kmr...", d_x, dd))
    return drift_part, diff_part, third_part


def second_moment_arrays(b, b_t, b_x, b_xx):
    """d = b b^T / 2 and its derivatives from evaluated diffusion arrays.

    Rows last, like the dual layer: the tensor axes come first and any
    trailing lead axes follow them, so ``b`` is (d, l, lead...).  Returns
    (d, d_t, d_x, d_xx) with layouts (d, d, lead...), (d, d, lead...),
    (d, d, j, lead...) and (d, d, i, j, lead...); the j/i axes
    differentiate in x.  ``b_x`` and ``b_xx`` may be Boxes, and so may
    then be ``d_x`` and ``d_xx``.
    """
    dd = 0.5 * np.einsum("kl...,ml...->km...", b, b)
    d_t = 0.5 * (
        np.einsum("kl...,ml...->km...", b_t, b) + np.einsum("kl...,ml...->km...", b, b_t)
    )
    # d_x[k, m, j] = (b_x[k, l, j] b[m, l] + b[k, l] b_x[m, l, j]) / 2
    cross = box_einsum("klj...,ml...->kmj...", b_x, b)
    d_x = _scale(0.5, box_sum(cross, _swap(cross, 0, 1)))
    # d_xx[k, m, i, j]
    t1 = box_einsum("klij...,ml...->kmij...", b_xx, b)
    t2 = box_einsum("kli...,mlj...->kmij...", b_x, b_x)
    d_xx = _scale(0.5, box_sum(t1, _swap(t1, 0, 1), t2, _swap(t2, 0, 1)))
    return dd, d_t, d_x, d_xx


def rho_per_step(model: JumpDiffusionModel, path: EulerPath, duals: DualWeights) -> Array:
    """Signed per-step error density, one value per augmented step
    (``rho_batch`` with one row).

    Requires third order dual weights and first time derivatives of drift
    and diffusion.
    """
    if duals.order < 3:
        raise ParameterError(
            f"per-step density needs order 3 dual weights, got order {duals.order}"
        )
    grid = path.grid
    if duals.phi_left.shape[0] != grid.n_steps + 1:
        raise ParameterError("dual weights do not match the path's grid")
    model.require(*STEP_DENSITY_CALLBACKS)
    cb = _stack_calls(
        as_vectorized(model), STEP_DENSITY_CALLBACKS, grid.times[:-1], path.values[:-1]
    )
    # the left-limit weights at nodes 1..N, rows last as (t..., n)
    weights = (duals.phi_left, duals.phi1_left, duals.phi2_left)
    return rho_batch(cb, *(_rows_last(w[1:], 1) for w in weights))


INTERVAL_DENSITY_CALLBACKS = ["drift", "diffusion"]


def rho_interval_batch(
    lo: dict, hi: dict, phi: Array, phi1: Array, paths: PathBatch, det: Array
) -> Array:
    """Signed coefficient-difference density per deterministic interval
    for the B rows of the node-major ``paths`` on the mesh ``det``, shape
    (B, N).

    The rows are ordered by descending step count.  ``lo`` and ``hi``
    hold ``INTERVAL_DENSITY_CALLBACKS`` at the left nodes (t_n, X(t_n))
    and at the right nodes' left limits (t_{n+1}, X(t_{n+1}-)) of the K
    steps the rows take, packed as ``duals._stack_calls(...,
    running=paths.running())`` packs them; ``phi`` and ``phi1`` are the
    packed left-limit dual weights at the right nodes.  Differences
    drift and d = b b^T / 2 across each step, weights them with the
    duals, and scales the interval sum by dt_n / (interval width)^2,
    each row over its own steps.  Row-wise arithmetic only.
    """

    def dd_of(b):
        return 0.5 * np.einsum("kl...,ml...->km...", b, b)

    da = hi["drift"] - lo["drift"]
    ddd = dd_of(hi["diffusion"]) - dd_of(lo["diffusion"])
    real = paths.real()
    step_sum = np.zeros(real.shape[::-1])  # (B, n), rows first
    step_sum.T[real] = _einsum("k...,k...->...", da, phi) + _einsum("km...,km...->...", ddd, phi1)
    sums = np.empty((len(step_sum), len(det) - 1))
    for rows, n in paths.by_step_count():
        contrib = step_sum[rows, :n] * paths.dt(rows, n)
        sums[rows] = interval_sums(contrib, paths.times[: n + 1, rows].T, det)
    return 0.5 * sums / np.diff(det) ** 2


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"TOL must lie in (0, 1), got {tol}")


def cutoff_density_S(rho: Array, tol: float) -> Array:
    """Per-step refinement density: |rho| clamped into [TOL^(1/9), 1/TOL]."""
    _check_tol(tol)
    lo = tol ** (1.0 / 9.0)
    hi = 1.0 / tol
    return np.minimum(np.maximum(np.abs(rho), lo), hi)


def interval_sums(contrib: Array, times: Array, det: Array) -> Array:
    """Sums of per-step contributions over each deterministic interval.

    ``contrib`` and the node ``times`` are (B, n) and (B, n+1) arrays of
    same-length paths on the mesh ``det``; a step belongs to the interval
    holding its left node.  Returns (B, N) sums, each accumulated in step
    order.
    """
    B = len(contrib)
    n_det = len(det) - 1
    iv = interval_of_steps(det, times)
    acc = np.zeros((B, n_det))
    np.add.at(acc.reshape(-1), (np.arange(B)[:, None] * n_det + iv).ravel(), contrib.ravel())
    return acc
