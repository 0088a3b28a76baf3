"""Acceptance suite: ten numbered criteria, one printed PASS/FAIL line each.

Every criterion is deterministic under the frozen seed sets below.  The
desk-scale uniform-mesh batches are shared between criteria 2 and 3 through
a module fixture; wall-clock limits are asserted where a criterion sets one.
Run with ``-rA`` (or read failure output) to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from jumpmc import (
    SeedConfig,
    algorithm_d,
    algorithm_s,
    build_model,
    change_M,
    monte_carlo,
    run_mesh_batch,
    sample_stats,
    split_tolerance,
    statistical_error_bound,
    uniform_mesh,
)
from jumpmc.cli import main
from jumpmc.density import rho_per_step
from jumpmc.duals import backward_duals
from jumpmc.euler import bridge_split, euler_path, sample_wiener_increments
from jumpmc.jumps import build_augmented_grid, intensity_integral_for, sample_jumps
from jumpmc.rng import realization_streams


def emit(num, ok, detail):
    line = f"[C{num}] {detail} -> {'PASS' if ok else 'FAIL'}"
    print(line)
    return line


def offset_seeds(k):
    return SeedConfig(wiener=7 + 37 * k, jump_times=20 + 37 * k, marks=101 + 37 * k)


# ---------------------------------------------------------------- criterion 1


def test_c01_exact_value_reproduction():
    model = build_model("test5")
    tol = 0.05
    hits = 0
    worst = 0.0
    slowest = 0.0
    for k in range(10):
        t0 = time.perf_counter()
        report = algorithm_d(model, tol, seeds=offset_seeds(k))
        slowest = max(slowest, time.perf_counter() - t0)
        err = abs(report.estimate - 0.5)
        worst = max(worst, err)
        hits += err <= 2.0 * tol
    ok = hits >= 9 and slowest <= 120.0
    line = emit(
        1,
        ok,
        f"deterministic-mesh driver at TOL=0.05: |estimate - 0.5| <= 0.1 in "
        f"{hits}/10 seeded runs (worst error {worst:.4f}, slowest run {slowest:.1f}s)",
    )
    assert ok, line


# ------------------------------------------------------------ criteria 2 + 3


@pytest.fixture(scope="module")
def desk_scale_batches():
    model = build_model("test5")
    m = 200_000
    out = {"m": m}
    t0 = time.perf_counter()
    for n in (5, 10):
        res = run_mesh_batch(
            model, uniform_mesh(model.horizon, n), SeedConfig(), 0, m,
            tol=0.05, want_density=True,
        )
        mean, _ = sample_stats(res["payoff"])
        out[f"e_t{n}"] = math.fsum(res["signed_total"]) / m
        out[f"e_c{n}"] = 0.5 - mean
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_c02_desk_scale_time_error_and_efficiency(desk_scale_batches):
    d = desk_scale_batches
    checks = []
    for n, ref in ((5, -0.0602), (10, -0.0314)):
        e_t = d[f"e_t{n}"]
        eff = d[f"e_c{n}"] / e_t
        checks.append(abs(e_t / ref - 1.0) <= 0.15)
        checks.append(abs(eff - 1.0) <= 0.15)
    checks.append(d["elapsed"] <= 300.0)
    ok = all(checks)
    line = emit(
        2,
        ok,
        f"uniform N=5/10 at M={d['m']}: e_t {d['e_t5']:+.4f}/{d['e_t10']:+.4f} "
        f"vs -0.0602/-0.0314 (15% band), efficiency "
        f"{d['e_c5'] / d['e_t5']:.3f}/{d['e_c10'] / d['e_t10']:.3f} "
        f"(band 1 +- 0.15), runtime {d['elapsed']:.0f}s <= 300s",
    )
    assert ok, line


def test_c03_weak_order_one_ratio(desk_scale_batches):
    d = desk_scale_batches
    ratio = d["e_t5"] / d["e_t10"]
    ok = 1.6 <= ratio <= 2.4
    line = emit(3, ok, f"time-error ratio N=5 over N=10 is {ratio:.3f}, band [1.6, 2.4]")
    assert ok, line


# ---------------------------------------------------------------- criterion 4


def test_c04_stochastic_steps_mean_step_counts():
    model = build_model("test5")
    parts = []
    ok = True
    for tol, lo, hi in ((0.04, 6.0, 12.0), (0.02, 8.0, 15.0)):
        t0 = time.perf_counter()
        report = algorithm_s(model, tol)
        elapsed = time.perf_counter() - t0
        mean_na = report.batches[-1].mean_n_a
        good = lo <= mean_na <= hi and abs(report.e_c) <= 2.0 * tol and elapsed <= 300.0
        ok = ok and good
        parts.append(
            f"TOL={tol}: mean N_A {mean_na:.2f} in [{lo:g}, {hi:g}], "
            f"|e_c| {abs(report.e_c):.4f} <= {2.0 * tol:g}, {elapsed:.0f}s"
        )
    line = emit(4, ok, "per-realization driver; " + "; ".join(parts))
    assert ok, line


# ---------------------------------------------------------------- criterion 5


def payoff_from(model, grid, dw, x0):
    return float(model.payoff(euler_path(model, grid, dw, x0=x0).terminal))


def test_c05_dual_weights_match_finite_differences():
    model = build_model("test5")
    integral = intensity_integral_for(model)
    det = uniform_mesh(model.horizon, 3)
    worst_phi = worst_phi1 = worst_sym = 0.0
    paths = 0
    k = 0
    while paths < 100:
        seeds = SeedConfig(wiener=5000 + k, jump_times=6000 + k, marks=7000 + k)
        k += 1
        w_rng, t_rng, z_rng = realization_streams(seeds, 0)
        jumps = sample_jumps(model, integral, t_rng, z_rng)
        grid = build_augmented_grid(det, jumps, horizon=model.horizon)
        if grid.n_steps > 8:
            continue  # criterion restricts to short paths
        dw = sample_wiener_increments(grid, w_rng, model.wiener_dim)
        path = euler_path(model, grid, dw)
        duals = backward_duals(model, path, order=3)
        paths += 1

        h1 = 1e-6
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h1
            fd = (
                payoff_from(model, grid, dw, model.x0 + e)
                - payoff_from(model, grid, dw, model.x0 - e)
            ) / (2.0 * h1)
            ref = duals.phi_left[0, j]
            worst_phi = max(worst_phi, abs(fd - ref) / max(abs(ref), 1e-8))

        h2 = 1e-4
        for i in range(model.dim):
            for j in range(model.dim):
                ei = np.zeros(model.dim)
                ej = np.zeros(model.dim)
                ei[i] = h2
                ej[j] = h2
                fd = (
                    payoff_from(model, grid, dw, model.x0 + ei + ej)
                    - payoff_from(model, grid, dw, model.x0 + ei - ej)
                    - payoff_from(model, grid, dw, model.x0 - ei + ej)
                    + payoff_from(model, grid, dw, model.x0 - ei - ej)
                ) / (4.0 * h2 * h2)
                ref = duals.phi1_left[0, i, j]
                worst_phi1 = max(worst_phi1, abs(fd - ref) / max(abs(ref), 1e-8))

        for arr in (duals.phi1, duals.phi1_left):
            worst_sym = max(worst_sym, np.max(np.abs(arr - arr.transpose(0, 2, 1))))
        for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
            worst_sym = max(
                worst_sym, np.max(np.abs(duals.phi2 - duals.phi2.transpose(*perm)))
            )

    ok = worst_phi <= 1e-4 and worst_phi1 <= 1e-3 and worst_sym <= 1e-12
    line = emit(
        5,
        ok,
        f"100 short paths (N_A <= 8): max rel FD error phi {worst_phi:.2e} <= 1e-4, "
        f"phi' {worst_phi1:.2e} <= 1e-3, symmetry defect {worst_sym:.2e} <= 1e-12",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 6


def purejump_reference():
    """E[g(X(T))] for the zero-drift zero-diffusion variant by quadrature.

    With a = b = 0 the first component stays 0, so a jump with mark z at
    time s replaces the second component by z/sqrt(1+s) and the payoff is
    determined by the last jump alone.  Integrating the last-jump time
    density lam(s) * exp(-(Lam(T) - Lam(s))) against E[z^2 | s]/(1+s)
    (the no-jump atom pays 0) gives the expectation.  All pieces are
    evaluated numerically from their definitions.
    """
    s = np.linspace(0.0, 1.0, 200_001)
    lam = 1.0 / (1.0 + s)
    big_lam = np.concatenate(
        [[0.0], np.cumsum((lam[1:] + lam[:-1]) * 0.5 * np.diff(s))]
    )
    survival = np.exp(-(big_lam[-1] - big_lam))
    # z = c + d*v with v = 2*sqrt(3)*(u - 1/2); z^2 is quadratic in u, so
    # three numeric u-moments give E[z^2 | s] without a 2-d grid
    u = np.linspace(0.0, 1.0, 200_001)
    v = 2.0 * np.sqrt(3.0) * (u - 0.5)
    m1 = np.trapezoid(v, u)
    m2 = np.trapezoid(v * v, u)
    c = np.cos(2.0 * np.pi * s)
    d = np.sin(2.0 * np.pi * s)
    z2_mean = c * c + 2.0 * c * d * m1 + d * d * m2
    return float(np.trapezoid(lam * survival * z2_mean / (1.0 + s), s))


def test_c06_pure_jump_time_error_is_null():
    model = build_model("purejump")
    integral = intensity_integral_for(model)
    det = uniform_mesh(model.horizon, 5)

    worst_rho = 0.0
    for i in range(1000):
        w_rng, t_rng, z_rng = realization_streams(SeedConfig(), i)
        jumps = sample_jumps(model, integral, t_rng, z_rng)
        grid = build_augmented_grid(det, jumps, horizon=model.horizon)
        dw = sample_wiener_increments(grid, w_rng, model.wiener_dim)
        path = euler_path(model, grid, dw)
        duals = backward_duals(model, path, order=3)
        worst_rho = max(worst_rho, float(np.max(np.abs(rho_per_step(model, path, duals)))))

    reference = purejump_reference()
    m = 4096
    hits = 0
    worst_gap = 0.0
    for k in range(10):
        res = run_mesh_batch(model, det, offset_seeds(k), 0, m, tol=0.05)
        mean, std = sample_stats(res["payoff"])
        bound = statistical_error_bound(std, m, 1.65)
        gap = abs(mean - reference)
        worst_gap = max(worst_gap, gap / bound)
        hits += gap <= bound
    ok = worst_rho == 0.0 and hits >= 9
    line = emit(
        6,
        ok,
        f"pure-jump variant: max |rho~| over 1000 paths {worst_rho:.1e} (exactly 0 "
        f"required); mean within E_S of {reference:.5f} in {hits}/10 runs "
        f"(worst gap {worst_gap:.2f} E_S)",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 7


def test_c07_brownian_bridge_moments_and_bitwise_sums():
    draws = 100_000
    w = 0.8
    dw = np.full(draws, w)
    rng = np.random.Generator(np.random.Philox(key=424242))
    first, second = bridge_split(1.0, dw, rng)

    bitwise = bool(np.all(first + second == dw))
    mean = float(first.mean())
    var = float(first.var(ddof=1))
    se_mean = 0.5 / math.sqrt(draws)  # std of the midpoint is sqrt(dt)/2
    se_var = 0.25 * math.sqrt(2.0 / (draws - 1))
    mean_ok = abs(mean - 0.5 * w) <= 3.0 * se_mean
    var_ok = abs(var - 0.25) <= 3.0 * se_var
    ok = bitwise and mean_ok and var_ok
    line = emit(
        7,
        ok,
        f"{draws} bisections of a unit step (w={w}): midpoint mean {mean:.5f} "
        f"within 3 sigma of {0.5 * w}, variance {var:.5f} within 3 sigma of 0.25, "
        f"halves sum back bitwise: {bitwise}",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 8


def make_bernoulli(key):
    def draw(start, count):
        out = np.empty(count)
        for i in range(count):
            g = np.random.Generator(
                np.random.Philox(key=key, counter=[0, 0, 0, start + i])
            )
            out[i] = 1.0 if g.random() < 0.5 else 0.0
        return out

    return draw


def test_c08_statistical_machinery():
    growth_ok = (
        change_M(100, 0.5, 0.01333, 1.65, 10) == 1024
        and change_M(1024, 0.5, 0.01333, 1.65, 10) == 4096
        and change_M(100, 0.0, 0.01333) == 2
    )

    split_ok = True
    for tol in (0.05, 0.04, 0.02, 0.1, 0.37, 1e-4):
        b = split_tolerance(tol)
        split_ok = split_ok and b.statistical + b.time == tol
        split_ok = split_ok and b.time_step + b.time_stat == b.time

    hits = 0
    for k in range(10):
        result = monte_carlo(make_bernoulli(9000 + k), 0.02)
        hits += abs(result.estimate - 0.5) <= 0.02
    mc_ok = hits >= 9

    ok = growth_ok and split_ok and mc_ok
    line = emit(
        8,
        ok,
        f"change_M examples exact: {growth_ok}; tolerance splits sum bitwise: "
        f"{split_ok}; Bernoulli(1/2) monte_carlo within TOL_S=0.02 in {hits}/10 runs",
    )
    assert ok, line


# ---------------------------------------------------------------- criterion 9


def test_c09_jump_count_mean():
    model = build_model("test5")
    integral = intensity_integral_for(model)
    draws = 100_000
    counts = np.empty(draws)
    for i in range(draws):
        _, t_rng, z_rng = realization_streams(SeedConfig(), i)
        counts[i] = sample_jumps(model, integral, t_rng, z_rng).count
    mean = float(counts.mean())
    se = float(counts.std(ddof=1)) / math.sqrt(draws)
    target = math.log(2.0)
    ok = abs(mean - target) <= 3.0 * se
    line = emit(
        9,
        ok,
        f"mean jump count over {draws} realizations: {mean:.5f} vs log 2 = "
        f"{target:.5f} (3 SE = {3.0 * se:.5f})",
    )
    assert ok, line


# --------------------------------------------------------------- criterion 10


def test_c10_reproducibility_across_worker_counts(tmp_path):
    cases = (
        ("simulate", ["simulate", "--m", "20000", "--n", "5"]),
        ("adapt-s", ["adapt-s", "--tol", "0.1", "--m", "2100"]),
    )
    ok = True
    parts = []
    for name, argv in cases:
        blobs = []
        for workers in ("1", "8"):
            out = tmp_path / f"{name}_w{workers}.csv"
            rc = main(argv + ["--workers", workers, "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        same = blobs[0] == blobs[1]
        ok = ok and same
        parts.append(f"{name}: {'identical' if same else 'DIFFER'}")
    line = emit(
        10,
        ok,
        "CSV bytes for 1 vs 8 workers; " + "; ".join(parts),
    )
    assert ok, line
