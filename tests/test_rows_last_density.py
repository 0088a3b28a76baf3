"""The density's rows-last final contractions against the rows-first form
they replaced.

``density.rho_batch`` and ``density.rho_interval_batch`` contract their
density factors with the dual weights on the packed rows-last (t..., K)
arrays, adding each step's products one tensor entry after the other.
The earlier form, kept below (``flat_rho_batch``,
``flat_rho_interval_batch``), first copied every factor and weight to a
contiguous rows-first (K, t...) stack and ran a flat einsum over it, and
numpy's SIMD sum over a contiguous run adds the products in another
order.  So the two agree bit for bit where a step's contraction has at
most two non-zero products, as on test5 and on test5 with wider declared
supports, and elsewhere differ in the last bits: on the random
polynomial models of ``test_box_kernel``, at every (d, l) it draws, each
value may move by a few rounding errors of the sum of the absolute
values of its products, a bound fixed here from the float64 epsilon.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from jumpmc import build_model, uniform_mesh  # noqa: E402
from jumpmc import controller as ctl  # noqa: E402
from jumpmc import density  # noqa: E402
from jumpmc.density import (  # noqa: E402
    INTERVAL_DENSITY_CALLBACKS,
    STEP_DENSITY_CALLBACKS,
    interval_sums,
    rho_batch,
    rho_interval_batch,
)
from jumpmc.duals import (  # noqa: E402
    _dense,
    _euler_map_callbacks,
    _rows_first,
    _stack_calls,
    dual_batch,
    jump_left_limits,
)
from jumpmc.euler import euler_batch, terminal_values  # noqa: E402
from jumpmc.model import as_vectorized  # noqa: E402
from jumpmc.rng import SeedConfig, keyed_streams  # noqa: E402
from jumpmc.jumps import intensity_integral_for  # noqa: E402
from test_box_kernel import random_model, random_paths  # noqa: E402
from test_rows_last_oracle import wide_support_model  # noqa: E402

EPS = np.finfo(float).eps

# ---------------------------------------------------------------------------
# the rows-first final contractions, as the kernel ran them before


def _flat_rows(w):
    return _rows_first(w, 1)


def flat_rho_batch(cb, phi, phi1, phi2):
    d = len(cb["drift"])
    drift_part, diff_part, third_part = density._density_parts(cb)
    return 0.5 * (
        np.einsum("nk,nk->n", _flat_rows(_dense(drift_part, d)), _flat_rows(phi))
        + np.einsum("nkm,nkm->n", _flat_rows(_dense(diff_part, d)), _flat_rows(phi1))
        + np.einsum("nkmr,nkmr->n", _flat_rows(_dense(third_part, d)), _flat_rows(phi2))
    )


def _dd(b):
    return 0.5 * np.einsum("kl...,ml...->km...", b, b)


def flat_rho_interval_batch(lo, hi, phi, phi1, paths, det):
    da = hi["drift"] - lo["drift"]
    ddd = _dd(hi["diffusion"]) - _dd(lo["diffusion"])
    step = np.einsum("nk,nk->n", _flat_rows(da), _flat_rows(phi)) + np.einsum(
        "nkm,nkm->n", _flat_rows(ddd), _flat_rows(phi1)
    )
    return _per_interval(step, paths, det)


def _per_interval(step, paths, det):
    """Packed per-step values summed per interval and scaled as
    ``rho_interval_batch`` does."""
    real = paths.real()
    step_sum = np.zeros(real.shape[::-1])
    step_sum.T[real] = step
    sums = np.empty((len(step_sum), len(det) - 1))
    for rows, n in paths.by_step_count():
        contrib = step_sum[rows, :n] * paths.dt(rows, n)
        sums[rows] = interval_sums(contrib, paths.times[: n + 1, rows].T, det)
    return 0.5 * sums / np.diff(det) ** 2


# ---------------------------------------------------------------------------


def kernel_inputs(model, paths):
    """The density inputs of a block of rows, as ``controller`` builds
    them: ``cb`` at the left nodes (drift and diffusion forward Euler's),
    ``hi`` at the right nodes' left limits, and the order-3 weights."""
    values, left, cb = euler_batch(model, paths)
    running = paths.running()
    names = sorted(set(_euler_map_callbacks(3) + STEP_DENSITY_CALLBACKS) - set(cb))
    cb.update(_stack_calls(model, names, paths.times[:-1], values[:-1], running=running))
    hi = _stack_calls(
        model, INTERVAL_DENSITY_CALLBACKS, paths.times[1:], left[1:], running=running
    )
    x_T = terminal_values(paths, values)
    stores, _, _ = dual_batch(model, dict(cb), paths, x_T, jump_left_limits(paths, left), 3)
    return cb, hi, stores


def both_forms(model, paths, det):
    cb, hi, stores = kernel_inputs(model, paths)
    new = rho_batch(dict(cb), *stores), rho_interval_batch(cb, hi, *stores[:2], paths, det)
    old = flat_rho_batch(cb, *stores), flat_rho_interval_batch(cb, hi, *stores[:2], paths, det)
    return new, old, (cb, hi, stores)


def abs_bounds(model, paths, det, cb, hi, stores):
    """The bound on each value's move: a few rounding errors of the sum of
    the absolute values of its products, per step and per interval."""
    d = model.dim
    parts = density._density_parts(cb)
    weights = [np.abs(w) for w in stores]
    per_step = 0.5 * sum(
        np.abs(_dense(part, d) * w).reshape(-1, w.shape[-1]).sum(axis=0)
        for part, w in zip(parts, weights)
    )
    terms = d + d**2 + d**3
    step_bound = 4 * (terms + 2) * EPS * per_step
    diffs = (hi["drift"] - cb["drift"], _dd(hi["diffusion"]) - _dd(cb["diffusion"]))
    per_interval_step = sum(
        np.abs(diff * w).reshape(-1, w.shape[-1]).sum(axis=0)
        for diff, w in zip(diffs, weights)
    )
    n = len(paths.dw)
    interval_bound = 4 * (d + d**2 + n + 2) * EPS * _per_interval(per_interval_step, paths, det)
    return step_bound, interval_bound


def assert_same_bytes(new, old):
    for a, b in zip(new, old):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), np.max(np.abs(a - b))


@pytest.mark.parametrize("name, n", [("test5", 5), ("test5", 40), ("wide-support", 5)])
def test_rows_last_contractions_keep_the_bytes_on_test5(name, n):
    model = as_vectorized(build_model("test5") if name == "test5" else wide_support_model())
    det = uniform_mesh(1.0, n)
    rows, paths, _, _ = ctl._setup_paths(
        model, det, keyed_streams(SeedConfig()), 0, 600, intensity_integral_for(model)
    )
    blocks = list(ctl._ragged_blocks(paths, 2000))
    assert len(blocks) > 1 and any(len(set(b.n_steps.tolist())) > 1 for _, b in blocks)
    for _, block in blocks:
        new, old, _ = both_forms(model, block, det)
        assert_same_bytes(new, old)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
def test_rows_last_contractions_move_within_rounding_of_the_products(d, l):
    moved = 0
    for seed in range(6):
        model = random_model(d, l, 1000 * d + 100 * l + seed)[0]
        det = uniform_mesh(1.0, 1 + seed % 4)
        paths = random_paths(np.random.default_rng(seed), 50, det, seed % 3, l)
        new, old, inputs = both_forms(model, paths, det)
        bounds = abs_bounds(model, paths, det, *inputs)
        for a, b, bound in zip(new, old, bounds):
            assert np.isfinite(a).all() and a.shape == b.shape
            assert (np.abs(a - b) <= bound).all(), np.max(np.abs(a - b) - bound)
            moved += int((a != b).sum())
        if d == 1:
            assert_same_bytes(new, old)  # one product per contraction term
    assert d == 1 or moved > 0
