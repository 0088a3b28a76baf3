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

``rho_batch`` evaluates the per-step density of B same-length paths from
callback values already evaluated, and ``interval_sums`` reduces per-step
contributions over the deterministic intervals; both drivers use them,
and ``rho_per_step`` and ``interval_step_sums`` are their one-row cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import DualWeights, _stack_calls
from .errors import ParameterError
from .euler import EulerPath
from .jumps import interval_of_steps
from .model import JumpDiffusionModel, as_vectorized, second_moment_arrays

Array = np.ndarray


@dataclass(frozen=True)
class ErrorIndicators:
    """Densities, their widths, and indicators r = density * width^2."""

    density: Array
    widths: Array
    r: Array
    total: float


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


def rho_batch(cb: dict, phi: Array, phi1: Array, phi2: Array) -> Array:
    """Per-step density for B same-length paths, shape (B, n).

    ``cb`` holds the ``STEP_DENSITY_CALLBACKS`` evaluated at the (B, n)
    left nodes (t_n, X(t_n)), as ``duals._stack_calls`` returns them, and
    ``phi``, ``phi1``, ``phi2`` are the (B, n, ...) left-limit dual
    weights at the right nodes.  Row-wise arithmetic only, so a row's
    value never depends on which other rows share the stack.
    """
    lead = phi.shape[:2]
    cb = {k: cb[k].reshape((-1,) + cb[k].shape[2:]) for k in STEP_DENSITY_CALLBACKS}
    phi, phi1, phi2 = (w.reshape((-1,) + w.shape[2:]) for w in (phi, phi1, phi2))
    a = cb["drift"]
    dd, d_t, d_x, d_xx = second_moment_arrays(
        cb["diffusion"], cb["diffusion_t"], cb["diffusion_x"], cb["diffusion_xx"]
    )
    drift_part = (
        cb["drift_t"]
        + np.einsum("nkj,nj->nk", cb["drift_x"], a)
        + np.einsum("nkij,nij->nk", cb["drift_xx"], dd)
    )
    diff_part = (
        d_t
        + np.einsum("nkmj,nj->nkm", d_x, a)
        + np.einsum("nkmij,nij->nkm", d_xx, dd)
        + 2.0 * np.einsum("nkj,njm->nkm", cb["drift_x"], dd)
    )
    third_part = 2.0 * np.einsum("nkmj,njr->nkmr", d_x, dd)
    rho = 0.5 * (
        np.einsum("nk,nk->n", drift_part, phi)
        + np.einsum("nkm,nkm->n", diff_part, phi1)
        + np.einsum("nkmr,nkmr->n", third_part, phi2)
    )
    return rho.reshape(lead)


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
    model.require(
        "drift_t", "drift_x", "drift_xx", "diffusion_t", "diffusion_x", "diffusion_xx"
    )
    cb = _stack_calls(
        as_vectorized(model),
        STEP_DENSITY_CALLBACKS,
        grid.times[None, :-1],
        path.values[None, :-1],
    )
    return rho_batch(
        cb, duals.phi_left[None, 1:], duals.phi1_left[None, 1:], duals.phi2_left[None, 1:]
    )[0]


def rho_per_interval(
    model: JumpDiffusionModel, path: EulerPath, duals: DualWeights
) -> Array:
    """Signed coefficient-difference density per deterministic interval.

    Differences drift and d = b b^T / 2 across each augmented step,
    weights them with the first and second order duals, and scales the
    interval sum by dt_n / (interval width)^2.
    """
    if duals.order < 2:
        raise ParameterError(
            f"interval density needs order 2 dual weights, got order {duals.order}"
        )
    grid = path.grid
    if duals.phi_left.shape[0] != grid.n_steps + 1:
        raise ParameterError("dual weights do not match the path's grid")
    model = as_vectorized(model)
    lo = _stack_calls(model, ["drift", "diffusion"], grid.times[:-1], path.values[:-1])
    hi = _stack_calls(model, ["drift", "diffusion"], grid.times[1:], path.left_values[1:])

    def dd_of(b):
        return 0.5 * b @ np.swapaxes(b, -1, -2)

    da = hi["drift"] - lo["drift"]
    ddd = dd_of(hi["diffusion"]) - dd_of(lo["diffusion"])
    step_sum = np.einsum("nk,nk->n", da, duals.phi_left[1:]) + np.einsum(
        "nkm,nkm->n", ddd, duals.phi1_left[1:]
    )

    widths = np.diff(grid.det_times)
    acc = interval_sums((step_sum * grid.dt)[None], grid.times[None], grid.det_times)[0]
    return 0.5 * acc / widths ** 2


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


def interval_step_sums(rho_steps: Array, grid) -> Array:
    """Signed sums of dt^2-weighted per-step density over each interval
    (``interval_sums`` with one row)."""
    contrib = np.asarray(rho_steps, float) * grid.dt ** 2
    return interval_sums(contrib[None], grid.times[None], grid.det_times)[0]


def cutoff_density_D(rho_steps: Array, grid, tol: float) -> Array:
    """Per-interval refinement density from the per-step one.

    The per-step contributions dt^2 rho are summed over each deterministic
    interval, normalized by the squared interval width, and clamped like
    the per-step density.
    """
    widths = np.diff(grid.det_times)
    return cutoff_density_S(interval_step_sums(rho_steps, grid) / widths ** 2, tol)


def error_indicators(density: Array, widths: Array) -> ErrorIndicators:
    """Per-piece indicators r = density * width^2 and their total."""
    density = np.asarray(density, float)
    widths = np.asarray(widths, float)
    if density.shape != widths.shape:
        raise ParameterError(
            f"density and widths must align, got {density.shape} vs {widths.shape}"
        )
    r = density * widths ** 2
    return ErrorIndicators(density=density, widths=widths, r=r, total=float(np.sum(r)))
