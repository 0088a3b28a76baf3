"""Statistical control, refinement drivers, and batch reproducibility."""

import math
import weakref
from dataclasses import replace

import keyed_oracle as oracle
import numpy as np
import pytest

from jumpmc import (
    AdaptParams,
    ConvergenceError,
    EvaluationError,
    JumpMCError,
    ParameterError,
    PathDivergenceError,
    SeedConfig,
    StatParams,
    UniformMarks,
    algorithm_d,
    algorithm_s,
    build_model,
    change_M,
    control_time_error,
    monte_carlo,
    refine_deterministic,
    run_mesh_batch,
    run_stochastic_batch,
    sample_stats,
    split_tolerance,
    statistical_error_bound,
    stopping_deterministic,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc import duals
from jumpmc.density import cutoff_density_S, rho_per_step
from jumpmc.duals import backward_duals
from jumpmc.euler import brownian_bridge_refine, euler_path, sample_wiener_increments
from jumpmc.jumps import build_augmented_grid, intensity_integral_for, sample_jumps
from jumpmc.model import as_vectorized
from jumpmc.rng import keyed_streams


def test_split_tolerance_components():
    b = split_tolerance(0.02)
    assert b.statistical == pytest.approx(0.013333, rel=1e-4)
    assert b.time == pytest.approx(0.0066667, rel=1e-4)
    assert b.time_step == pytest.approx(0.0044444, rel=1e-4)
    assert b.time_stat == pytest.approx(0.0022222, rel=1e-4)
    b2 = split_tolerance(0.045)
    assert b2.statistical == pytest.approx(0.03, rel=1e-12)
    assert b2.time_step == pytest.approx(0.01, rel=1e-12)
    assert b2.time_stat == pytest.approx(0.005, rel=1e-12)


def test_split_tolerance_partition():
    for tol in (0.9, 0.02, 0.045, 1e-4, 3.7):
        b = split_tolerance(tol)
        # partitions hold bitwise, not just approximately
        assert b.statistical + b.time == tol
        assert b.time_step + b.time_stat == b.time
        assert b.statistical + (b.time_step + b.time_stat) == tol
    with pytest.raises(ParameterError):
        split_tolerance(0.0)
    with pytest.raises(ParameterError):
        split_tolerance(-0.1)


def test_sample_stats_examples():
    assert sample_stats([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, std = sample_stats([0.0, 2.0])
    assert mean == 1.0 and std == pytest.approx(1.0, rel=1e-15)
    mean, std = sample_stats([1.0, 2.0, 3.0, 4.0])
    assert mean == pytest.approx(2.5, rel=1e-15)
    assert std == pytest.approx(math.sqrt(1.25), rel=1e-13)
    with pytest.raises(ParameterError):
        sample_stats([1.0])


def test_statistical_error_bound_examples():
    assert statistical_error_bound(1.0, 10000, 1.65) == pytest.approx(0.0165)
    assert statistical_error_bound(0.0, 5) == 0.0
    assert statistical_error_bound(0.5, 100, 2.0) == pytest.approx(0.1)
    with pytest.raises(ParameterError):
        statistical_error_bound(1.0, 0)
    with pytest.raises(ParameterError):
        statistical_error_bound(-1.0, 10)
    with pytest.raises(ParameterError):
        statistical_error_bound(math.nan, 10)


def test_change_m_frozen_examples():
    assert change_M(100, 0.5, 0.01333, 1.65, 10) == 1024
    assert change_M(1024, 0.5, 0.01333, 1.65, 10) == 4096
    assert change_M(100, 0.0, 0.01333) == 2
    with pytest.raises(ParameterError):
        change_M(100, 0.5, 0.0)
    with pytest.raises(ParameterError):  # not a raw ValueError from int(nan)
        change_M(100, math.nan, 0.01333)


def test_change_m_power_of_two_and_cap():
    rng = np.random.Generator(np.random.Philox(key=91))
    for _ in range(200):
        m_in = int(rng.integers(1, 10000))
        s = float(rng.uniform(0.0, 10.0))
        tol_s = float(rng.uniform(1e-4, 1.0))
        mch = int(rng.integers(2, 20))
        out = change_M(m_in, s, tol_s, 1.65, mch)
        assert out & (out - 1) == 0 and out >= 2
        assert out <= 2 * mch * m_in


def test_monte_carlo_constant_sampler():
    result = monte_carlo(lambda start, count: np.full(count, 3.25), 0.01)
    assert result.estimate == 3.25
    assert result.error_bound == 0.0
    assert result.m_final == StatParams().m0
    assert len(result.batches) == 1
    assert result.next_index == StatParams().m0


@pytest.mark.parametrize("start_index", [2.5, -1, None, "3"])
def test_monte_carlo_rejects_a_bad_start_index(start_index):
    def draw(start, count):
        raise AssertionError(f"draw called at realization {start!r}")

    with pytest.raises(ParameterError, match="start_index"):
        monte_carlo(draw, 0.01, start_index=start_index)


def bernoulli_draw(start, count):
    out = np.empty(count)
    for i in range(count):
        g = np.random.Generator(
            np.random.Philox(key=777, counter=[0, 0, 0, start + i])
        )
        out[i] = 1.0 if g.random() < 0.5 else 0.0
    return out


def test_monte_carlo_names_the_first_non_finite_sample():
    def draw(start, count):
        values = np.ones(count)
        values[2:] = np.nan
        return values

    with pytest.raises(EvaluationError, match="realization 12") as info:
        monte_carlo(draw, 0.01, StatParams(m0=4), start_index=10)
    assert info.value.realization == 12
    with pytest.raises(EvaluationError) as info:
        monte_carlo(lambda s, c: np.full(c, np.inf), 0.01, StatParams(m0=4))
    assert info.value.realization == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: StatParams(c0=math.inf),
        lambda: StatParams(c0=math.nan),
        lambda: change_M(100, 0.0, 0.01, math.inf),
        lambda: change_M(100, 0.5, 0.01, math.nan),
        lambda: change_M(100, 0.5, 0.01, 0.0),
        lambda: statistical_error_bound(0.0, 100, math.inf),
        lambda: statistical_error_bound(1.0, 100, -1.0),
        lambda: statistical_error_bound(1.0, 100, 0.0),
    ],
    ids=[
        "stat_params_inf", "stat_params_nan", "change_m_inf", "change_m_nan", "change_m_zero",
        "bound_inf", "bound_negative", "bound_zero",
    ],
)
def test_c0_must_be_finite_and_positive(call):
    with pytest.raises(ParameterError, match="c0 must be finite"):
        call()


def test_monte_carlo_bernoulli():
    result = monte_carlo(bernoulli_draw, 0.02)
    assert result.m_final >= 2048
    assert abs(result.estimate - 0.5) <= 0.02
    assert result.error_bound <= 0.02
    # Fresh batches: indices are consumed without reuse.
    assert result.next_index == sum(b.size for b in result.batches)


def test_monte_carlo_batch_cap():
    def noisy(start, count):
        g = np.random.Generator(np.random.Philox(key=5, counter=[0, 0, 0, start]))
        return g.standard_normal(count)

    with pytest.raises(ConvergenceError):
        monte_carlo(noisy, 1e-9, StatParams(max_batches=3, mch=2))


def test_refine_deterministic_cases():
    mesh = uniform_mesh(1.0, 2)
    # All below threshold: unchanged.
    out = refine_deterministic(mesh, np.array([1e-9, 1e-9]), 0.00444, 2.0)
    np.testing.assert_array_equal(out, mesh)
    # First step loud, second quiet: threshold d1*tol_tt/N = 0.00444.
    out = refine_deterministic(mesh, np.array([1.0, 1e-9]), 0.00444, 2.0)
    np.testing.assert_allclose(out, [0.0, 0.25, 0.5, 1.0])
    # Uniform N=5 with r = 0.01 >= 0.001776 everywhere: N doubles.
    out = refine_deterministic(
        uniform_mesh(1.0, 5), np.full(5, 0.01), 0.00444, 2.0
    )
    np.testing.assert_allclose(out, uniform_mesh(1.0, 10))
    # Boundary is inclusive: r exactly at threshold refines.
    thr = 2.0 * 0.00444 / 2
    out = refine_deterministic(mesh, np.array([thr, 0.0]), 0.00444, 2.0)
    assert len(out) == 4


def test_stopping_deterministic_cases():
    assert stopping_deterministic(np.zeros(4), 4, 0.00444, 8.0)
    thr = 8.0 * 0.00444 / 2
    assert not stopping_deterministic(np.array([thr, 0.0]), 2, 0.00444, 8.0)
    assert stopping_deterministic(np.array([0.0015]), 20, 0.00444, 8.0)


def test_param_validation():
    with pytest.raises(ParameterError):
        StatParams(c0=1.0)
    with pytest.raises(ParameterError):
        StatParams(mch=1)
    with pytest.raises(ParameterError):
        StatParams(m0=1)
    with pytest.raises(ParameterError):
        AdaptParams(D1=7.2)  # needs D1 > (2/c) d1 = 7.27
    with pytest.raises(ParameterError):
        AdaptParams(S1=7.0)
    with pytest.raises(ParameterError):
        AdaptParams(c=0.0)
    with pytest.raises(ParameterError):
        AdaptParams(n_initial=0)
    # The inequality is strict but 8 > 7.2727 passes.
    AdaptParams(D1=8.0, S1=8.0)


def test_mesh_batch_chunk_and_worker_invariance(monkeypatch):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    base = run_mesh_batch(m, det, seeds, 0, 50, tol=0.05, want_density=True)
    monkeypatch.setattr(ctl, "MESH_CHUNK", 16)
    chunked = run_mesh_batch(m, det, seeds, 0, 50, tol=0.05, want_density=True)
    pooled = run_mesh_batch(
        m, det, seeds, 0, 50, tol=0.05, want_density=True, workers=2
    )
    for key in ("payoff", "n_a", "n_jumps", "signed_total", "r"):
        np.testing.assert_array_equal(base[key], chunked[key])
        np.testing.assert_array_equal(base[key], pooled[key])


def test_stochastic_batch_worker_invariance(monkeypatch):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    kw = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0)
    base = run_stochastic_batch(m, det, seeds, 0, 20, **kw)
    monkeypatch.setattr(ctl, "STOCH_CHUNK", 8)
    pooled = run_stochastic_batch(m, det, seeds, 0, 20, workers=2, **kw)
    for key in ("payoff", "n_a", "levels", "accepted", "signed_total", "r_total"):
        np.testing.assert_array_equal(base[key], pooled[key])


def test_control_time_error_pure_jump_accepts_immediately():
    m = build_model("purejump")
    seeds = SeedConfig()
    _, jump_rng, mark_rng = oracle.row_streams(seeds, 3)
    jumps = sample_jumps(m, intensity_integral_for(m), jump_rng, mark_rng)
    out = control_time_error(
        m,
        uniform_mesh(1.0, 5),
        seeds,
        3,
        tol=0.04,
        tol_t=0.04 / 3.0,
        n_a_bar=5.0,
    )
    assert out.accepted
    assert out.levels == 0
    assert out.n_a == 5 + jumps.count
    assert out.signed_time_error == 0.0
    # Indicators sit exactly at the clamp floor times dt^2.
    floor = 0.04 ** (1.0 / 9.0)
    assert out.r_total <= floor * (5 + jumps.count) * (0.2) ** 2 + 1e-12


def test_algorithm_d_report_invariants():
    m = build_model("test5")
    rep = algorithm_d(m, 0.05)
    budget = split_tolerance(0.05)
    assert rep.algorithm == "deterministic-mesh"
    assert abs(rep.estimate - 0.5) < 2 * 0.05
    assert rep.e_c == pytest.approx(0.5 - rep.estimate, rel=1e-12, abs=1e-15)
    last = rep.iterations[-1]
    assert last.action == "stop"
    n = last.n_intervals
    assert last.max_indicator < 8.0 * budget.time_step / n
    assert last.e_ts <= budget.time_stat
    assert rep.e_s <= budget.statistical
    assert rep.claimed_bound == pytest.approx(
        rep.e_tt + rep.e_ts + rep.e_s, rel=1e-12
    )
    assert rep.det_times[0] == 0.0 and rep.det_times[-1] == 1.0
    assert rep.total_work == rep.total_steps  # no per-path refinement here
    assert rep.rejected_realizations == 0


def test_algorithm_d_iteration_cap():
    m = build_model("test5")
    with pytest.raises(ConvergenceError) as exc:
        algorithm_d(m, 0.02, adapt=AdaptParams(max_refinements=1))
    assert len(exc.value.iterations) == 1


def test_algorithm_d_rejects_tol_at_least_one():
    m = build_model("test5")
    with pytest.raises(ParameterError):
        algorithm_d(m, 1.5)
    with pytest.raises(ParameterError):
        algorithm_s(m, 1.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_a_non_finite_tolerance_is_a_parameter_error(tol):
    m = build_model("test5")
    for call in (split_tolerance, lambda t: algorithm_d(m, t), lambda t: algorithm_s(m, t)):
        with pytest.raises(ParameterError) as exc:
            call(tol)
        assert type(exc.value) is ParameterError


@pytest.mark.parametrize("engine", ["mesh", "stochastic", "interval"])
def test_a_nan_mesh_is_rejected_before_any_work(monkeypatch, engine):
    m = build_model("test5")
    det = np.array([0.0, math.nan, 1.0])

    def no_setup(*args, **kwargs):
        raise AssertionError("set-up ran on an invalid mesh")

    monkeypatch.setattr(ctl, "_setup_paths", no_setup)
    with pytest.raises(ParameterError, match="finite and strictly increasing"):
        if engine == "mesh":
            run_mesh_batch(m, det, SeedConfig(), 0, 10)
        elif engine == "stochastic":
            run_stochastic_batch(m, det, SeedConfig(), 0, 10, tol=0.1, tol_t=0.03, n_a_bar=5.0)
        else:
            ctl.run_interval_batch(m, det, SeedConfig(), 10)


def test_algorithm_s_report_invariants():
    m = build_model("test5")
    rep = algorithm_s(m, 0.1)
    budget = split_tolerance(0.1)
    assert rep.algorithm == "per-realization"
    assert rep.e_s <= budget.statistical
    assert abs(rep.estimate - 0.5) < 2 * 0.1
    assert rep.batches
    for row in rep.batches:
        assert row.min_n_a >= 5
        assert row.mean_n_a >= row.min_n_a - 1e-12
        assert row.max_n_a >= row.mean_n_a - 1e-12
    # Work counts every simulated level; steps only the accepted meshes.
    assert rep.total_work >= rep.total_steps
    total = sum(r.m for r in rep.batches)
    assert rep.total_realizations == total
    # N_A feedback: thresholds for batch j use batch j-1's mean.
    assert rep.batches[0].n_a_bar == 5.0
    if len(rep.batches) > 1:
        assert rep.batches[1].n_a_bar == pytest.approx(
            rep.batches[0].mean_n_a, rel=1e-12
        )


def test_algorithm_s_batch_cap():
    m = build_model("test5")
    with pytest.raises(ConvergenceError) as exc:
        algorithm_s(m, 0.02, stats=StatParams(m0=4, max_batches=1))
    assert len(exc.value.batches) == 1


def reference_realization(model, seeds, index, det, tol, tol_t, n_a_bar, adapt):
    """Per-realization refinement loop built from the public scalar
    pipeline; stops refining at the last simulated level.  Also reports
    the next normals of its Wiener generator after the refinement."""
    integral = intensity_integral_for(model)
    w_rng, t_rng, z_rng = oracle.row_streams(seeds, index)
    jumps = sample_jumps(model, integral, t_rng, z_rng)
    grid = build_augmented_grid(det, jumps, horizon=model.horizon)
    dw = sample_wiener_increments(grid, w_rng, model.wiener_dim)
    min_step = model.horizon * 2.0 ** -30
    work = 0
    for level in range(adapt.max_refinements + 1):
        path = euler_path(model, grid, dw)
        work += grid.n_steps
        rho = rho_per_step(model, path, backward_duals(model, path, order=3))
        r = cutoff_density_S(rho, tol) * grid.dt ** 2
        accepted = bool(r.max() < adapt.S1 * tol_t / n_a_bar)
        splittable = (r >= adapt.s1 * tol_t / n_a_bar) & (0.5 * grid.dt >= min_step)
        if accepted or level == adapt.max_refinements or not splittable.any():
            break
        grid, dw = brownian_bridge_refine(grid, dw, splittable, w_rng, min_step=min_step)
    return {
        "payoff": float(model.payoff(path.terminal)),
        "n_a": grid.n_steps,
        "n_jumps": grid.n_jumps,
        "levels": level,
        "accepted": accepted,
        "signed_total": float(np.sum(rho * grid.dt ** 2)),
        "r_total": float(np.sum(r)),
        "work": work,
        "next_normals": w_rng.standard_normal(4),
    }


EXACT_KEYS = ("payoff", "n_a", "n_jumps", "levels", "accepted", "work")


@pytest.mark.parametrize(
    "tol, adapt, count",
    [(0.04, AdaptParams(), 300), (0.01, AdaptParams(max_refinements=2), 60)],
)
def test_level_loop_matches_scalar_reference(tol, adapt, count):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    kw = dict(tol=tol, tol_t=split_tolerance(tol).time, n_a_bar=5.0, adapt=adapt)
    res = run_stochastic_batch(m, det, seeds, 0, count, **kw)
    for i in range(count):
        ref = reference_realization(m, seeds, i, det, **kw)
        for key in EXACT_KEYS + ("signed_total", "r_total"):
            assert res[key][i] == ref[key], (i, key)


def test_level_loop_matches_scalar_reference_at_an_offset():
    # realizations set up away from index 0, with other seeds
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig(wiener=1, jump_times=2, marks=3)
    kw = dict(tol=0.04, tol_t=split_tolerance(0.04).time, n_a_bar=5.0, adapt=AdaptParams())
    res = run_stochastic_batch(m, det, seeds, 1000, 100, **kw)
    for i in range(100):
        ref = reference_realization(m, seeds, 1000 + i, det, **kw)
        for key in EXACT_KEYS + ("signed_total", "r_total"):
            assert res[key][i] == ref[key], (i, key)


def test_control_time_error_matches_the_reference_and_the_batch():
    # realizations 0-99 at TOL 0.04 include rows whose bridge splits
    # reach a redraw round
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    kw = dict(tol=0.04, tol_t=split_tolerance(0.04).time, n_a_bar=5.0, adapt=AdaptParams())
    batch = run_stochastic_batch(m, det, seeds, 0, 100, **kw)
    fields = {key: key for key in EXACT_KEYS}
    fields.update(signed_time_error="signed_total", r_total="r_total")
    for i in range(100):
        out = control_time_error(m, det, seeds, i, **kw)
        ref = reference_realization(m, seeds, i, det, **kw)
        for field, key in fields.items():
            assert getattr(out, field) == ref[key] == batch[key][i], (i, field)


def test_control_time_error_level_cap_reports_last_mesh():
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    kw = dict(
        tol=0.01,
        tol_t=split_tolerance(0.01).time,
        n_a_bar=5.0,
        adapt=AdaptParams(max_refinements=1),
    )
    ref = reference_realization(m, seeds, 1, det, **kw)
    out = control_time_error(m, det, seeds, 1, **kw)
    assert not out.accepted and out.levels == 1
    assert out.n_a == ref["n_a"] and out.work == ref["work"]
    assert out.payoff == ref["payoff"]
    assert out.signed_time_error == ref["signed_total"]
    assert out.r_total == ref["r_total"]


def test_level_loop_block_chunk_and_adapter_invariance(monkeypatch):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    seeds = SeedConfig()
    kw = dict(tol=0.04, tol_t=split_tolerance(0.04).time, n_a_bar=5.0)
    base = run_stochastic_batch(m, det, seeds, 3, 60, **kw)
    # the row-loop adapter feeds the kernel the same per-row callback values
    looped = run_stochastic_batch(replace(m, vectorized=False), det, seeds, 3, 60, **kw)
    monkeypatch.setattr(ctl, "STOCH_CHUNK", 7)
    # 3 row-steps is below every row's step count: one-row blocks; 10**6
    # is one block per level
    for budget in (3, 7, 40, 3072, 10**6):
        monkeypatch.setattr(ctl, "STOCH_BLOCK_STEPS", budget)
        small = run_stochastic_batch(m, det, seeds, 3, 60, **kw)
        for key in base:
            np.testing.assert_array_equal(base[key], looped[key])
            np.testing.assert_array_equal(base[key], small[key])


def test_level_loop_blocks_hold_any_step_counts_within_the_budget(monkeypatch):
    # each level goes through the kernel in few blocks of rows with any
    # step counts; only a one-row block may take more steps in all than
    # the row-step budget
    calls = []
    kernel = ctl._path_batch

    def counted(model, paths, realizations, want_rho):
        calls.append(paths.n_steps.copy())
        return kernel(model, paths, realizations, want_rho)

    monkeypatch.setattr(ctl, "_path_batch", counted)
    algorithm_s(build_model("test5"), 0.04)
    assert len(calls) <= 14
    assert any(len(set(n.tolist())) > 1 for n in calls)
    for n in calls:
        assert (n[1:] <= n[:-1]).all()
        assert len(n) == 1 or n.sum() <= ctl.STOCH_BLOCK_STEPS


def test_the_sweep_holds_no_left_limits_and_no_density_only_callbacks(monkeypatch):
    # _path_batch frees the forward left limits before the backward sweep,
    # evaluates drift_t and diffusion_t only after it, and hands the
    # density forward Euler's own drift and diffusion arrays
    m = as_vectorized(build_model("test5"))
    det = uniform_mesh(1.0, 5)
    rows, paths, _, _ = ctl._setup_paths(
        m, det, keyed_streams(SeedConfig()), 0, 64, intensity_integral_for(m)
    )
    (cols, paths), = ctl._ragged_blocks(paths, 10**6)
    rows = rows[cols]
    assert paths.jump_flag.any() and len(set(paths.n_steps.tolist())) > 1
    density_only = {"drift_t", "diffusion_t"}
    left_refs, density_refs, alive, evaluated, forward_out, density_in = [], [], [], [], [], []
    forward, stack_calls, propagate = ctl.euler_batch, ctl._stack_calls, duals.propagate
    rho_batch = ctl.rho_batch

    def spied_forward(*args, **kwargs):
        values, left, coefficients = forward(*args, **kwargs)
        left_refs.append(weakref.ref(left))
        forward_out.append((values, dict(coefficients)))
        return values, left, coefficients

    def spied_stack_calls(model, names, *args, **kwargs):
        evaluated.extend(names)
        out = stack_calls(model, names, *args, **kwargs)
        for name in density_only.intersection(names):
            value = out[name]
            density_refs.append(weakref.ref(getattr(value, "value", value)))
        return out

    def spied_propagate(G, phi, plans=None):
        alive.extend(ref() is not None for ref in left_refs + density_refs)
        return propagate(G, phi, plans)

    def spied_rho_batch(cb, *stores):
        density_in.append(dict(cb))
        return rho_batch(cb, *stores)

    monkeypatch.setattr(ctl, "euler_batch", spied_forward)
    monkeypatch.setattr(ctl, "_stack_calls", spied_stack_calls)
    monkeypatch.setattr(duals, "propagate", spied_propagate)
    monkeypatch.setattr(ctl, "rho_batch", spied_rho_batch)
    ctl._path_batch(m, paths, rows.tolist(), True)
    assert len(left_refs) == 1 and len(density_refs) == len(density_only)
    assert alive and not any(alive)
    assert not {"drift", "diffusion"}.intersection(evaluated)
    ((values, coefficients),), (cb,) = forward_out, density_in
    assert cb["drift"] is coefficients["drift"]
    assert cb["diffusion"] is coefficients["diffusion"]
    # the bytes the kernel evaluated at the packed nodes before
    nodes = (paths.times[:-1], values[:-1])
    again = stack_calls(m, ["drift", "diffusion"], *nodes, running=paths.running())
    for name, value in again.items():
        assert coefficients[name].tobytes() == value.tobytes()


def test_time_control_batches_are_one_density_kernel_call_each(monkeypatch):
    # each of algorithm_d's time-control batches goes through the density
    # kernel as one block of rows with any step counts, longest first;
    # only a one-row block may take more steps than the budget.  The
    # forward-only Monte Carlo phase runs one call per chunk, longest first
    density, forward = [], []
    kernel = ctl._path_batch

    def counted(model, paths, realizations, want_rho):
        (density if want_rho else forward).append(paths.n_steps.copy())
        return kernel(model, paths, realizations, want_rho)

    monkeypatch.setattr(ctl, "_path_batch", counted)
    report = algorithm_d(build_model("test5"), 0.02, stats=StatParams(m0=256))
    assert len(density) == len(report.iterations)
    assert all(len(set(n.tolist())) > 1 for n in density)
    for n in density:
        assert (n[1:] <= n[:-1]).all()
        assert len(n) == 1 or n.sum() <= ctl.MESH_BLOCK_STEPS
    assert all(len(set(n.tolist())) > 1 and (n[1:] <= n[:-1]).all() for n in forward)


def test_the_monte_carlo_phase_runs_one_forward_pass_per_chunk(monkeypatch):
    # algorithm_d's forward-only Monte Carlo phase at seed 0 runs 3 chunks
    # (of 256, 4096 and 16384 rows): one euler_terminal pass each, 135 step
    # iterations in all (one pass per step-count group would make 18
    # passes and 766 step iterations)
    passes = []
    terminal = ctl.euler_terminal

    def counted(model, paths, *args, **kwargs):
        passes.append(len(paths.running()))
        return terminal(model, paths, *args, **kwargs)

    monkeypatch.setattr(ctl, "euler_terminal", counted)
    algorithm_d(build_model("test5"), 0.02, stats=StatParams(m0=256))
    assert (len(passes), sum(passes)) == (3, 135)


def test_mesh_batch_row_loop_adapter_matches_vectorized():
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    base = run_mesh_batch(m, det, SeedConfig(), 0, 40, tol=0.05, want_density=True)
    looped = run_mesh_batch(
        replace(m, vectorized=False), det, SeedConfig(), 0, 40, tol=0.05, want_density=True
    )
    for key in base:
        np.testing.assert_array_equal(base[key], looped[key])


def test_workers_run_the_given_model_object(monkeypatch):
    # an edited builtin: rebuilding it by name would lose the new x0
    m = replace(build_model("test5"), x0=[1.0, 1.0])
    det = uniform_mesh(1.0, 5)
    monkeypatch.setattr(ctl, "MESH_CHUNK", 50)
    monkeypatch.setattr(ctl, "STOCH_CHUNK", 10)
    one = run_mesh_batch(m, det, SeedConfig(), 0, 100)
    two = run_mesh_batch(m, det, SeedConfig(), 0, 100, workers=2)
    np.testing.assert_array_equal(one["payoff"], two["payoff"])
    assert one["payoff"].mean() > 2.0  # |x|^2 starts at 2, not at 0
    kw = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0)
    one = run_stochastic_batch(m, det, SeedConfig(), 0, 20, **kw)
    two = run_stochastic_batch(m, det, SeedConfig(), 0, 20, workers=2, **kw)
    for key in one:
        np.testing.assert_array_equal(one[key], two[key])


def diverging_model():
    """test5 whose drift blows up once x1 passes 0.3."""
    base = build_model("test5")

    def drift(t, x):
        return np.where(x[..., :1] > 0.3, 1e300, base.drift(t, x))

    return replace(base, drift=drift)


def overflowing_density_model():
    """test5 from (1, 1) with drift 1e22 x: payoffs stay finite (about
    1e254) but the error density overflows to NaN."""
    base = build_model("test5")
    return replace(
        base,
        x0=[1.0, 1.0],
        drift=lambda t, x: 1e22 * x,
        drift_x=lambda t, x: np.broadcast_to(1e22 * np.eye(2), x.shape[:-1] + (2, 2)).copy(),
    )


def bad_mark_model():
    """test5 whose mark quantile returns three entries per jump: a chunk
    fails at its first realization with a jump."""
    return replace(
        build_model("test5"), mark_sampler=UniformMarks(lambda t, u: np.zeros((len(t), 3)))
    )


def unordered_jumps_model():
    """test5 whose inverse integrated intensity halves the times past
    L = 0.4, so a later jump can land before an earlier one."""
    base = build_model("test5")
    inverse = base.intensity_integral_inverse
    return replace(
        base, intensity_integral_inverse=lambda s: inverse(s) / (2.0 if s > 0.4 else 1.0)
    )


def _mesh(m, start, count, workers=1):
    return run_mesh_batch(m, uniform_mesh(1.0, 5), SeedConfig(), start, count, workers=workers)


def _mesh_density(m, start, count, workers=1):
    return run_mesh_batch(
        m, uniform_mesh(1.0, 5), SeedConfig(), start, count,
        tol=0.05, want_density=True, workers=workers,
    )


def _stochastic(m, start, count, workers=1):
    return run_stochastic_batch(
        m, uniform_mesh(1.0, 5), SeedConfig(), start, count,
        tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0, workers=workers,
    )


def _mesh_any_chunk(m, start, count, workers=1):
    """``_mesh`` and ``_mesh_density`` with MESH_CHUNK 1, 7 and its
    default: every run must raise the same error, which is raised again."""
    seen = {}
    for chunk in (1, 7, ctl.MESH_CHUNK):
        for run in (_mesh, _mesh_density):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ctl, "MESH_CHUNK", chunk)
                with pytest.raises(JumpMCError) as exc:
                    run(m, start, count, workers=workers)
            error = exc.value
            seen[type(error), error.realization, getattr(error, "step", None), str(error)] = error
    assert len(seen) == 1, list(seen)
    raise error


@pytest.mark.parametrize(
    "run, make_model, error, start, named",
    [
        pytest.param(_mesh, diverging_model, PathDivergenceError, 1000, None, id="mesh"),
        pytest.param(
            _stochastic, diverging_model, PathDivergenceError, 1000, None, id="stochastic"
        ),
        pytest.param(
            _mesh_density, overflowing_density_model, EvaluationError, 1000, None,
            id="mesh-density-overflow",
        ),
        # from 1002 the first realizations of this model diverge at a
        # refinement level; its first density overflow (at level 0) is
        # realization 1004
        pytest.param(
            _stochastic, overflowing_density_model, PathDivergenceError, 1002, None,
            id="stochastic-density-overflow",
        ),
        # errors raised while a realization is set up
        pytest.param(_mesh, bad_mark_model, EvaluationError, 1000, None, id="mesh-mark-shape"),
        pytest.param(
            _stochastic, bad_mark_model, EvaluationError, 1000, None, id="stochastic-mark-shape"
        ),
        pytest.param(
            _mesh, unordered_jumps_model, ParameterError, 1000, None, id="mesh-jump-order"
        ),
        pytest.param(
            _stochastic, unordered_jumps_model, ParameterError, 1000, None,
            id="stochastic-jump-order",
        ),
        # one forward pass over a chunk's step-count groups: 1169 (6 steps)
        # diverges at step 5, after the larger 1192 (7 steps, so an earlier
        # column) at step 4; the smaller is named
        pytest.param(
            _mesh_any_chunk, diverging_model, PathDivergenceError, 1169, 1169,
            id="mesh-across-step-counts",
        ),
    ],
)
def test_divergence_error_names_absolute_realization(run, make_model, error, start, named):
    m = make_model()
    with pytest.raises(error) as exc:
        run(m, start, 50)
    assert type(exc.value) is error
    index = exc.value.realization
    assert start <= index < start + 50
    assert f"realization {index}" in str(exc.value)
    # the named realization fails on its own too
    with pytest.raises(error) as alone:
        run(m, index, 1)
    assert alone.value.realization == index
    if named is not None:
        assert (index, exc.value.step) == (named, 5)
        n_a = run_mesh_batch(build_model("test5"), uniform_mesh(1.0, 5), SeedConfig(), start, 50)
        with pytest.raises(error) as later:
            run(m, 1192, 1)
        assert later.value.step == 4 and n_a["n_a"][1192 - start] > n_a["n_a"][named - start]


@pytest.mark.parametrize(
    "run, chunk_name", [(_mesh, "MESH_CHUNK"), (_stochastic, "STOCH_CHUNK")], ids=["mesh", "stochastic"]
)
def test_divergence_in_a_pool_worker_reaches_the_caller(monkeypatch, run, chunk_name):
    # With 25-row chunks from 1037 the first chunk finishes and the error
    # comes from the second one, so at workers=2 it must cross the process
    # boundary with its attributes.
    monkeypatch.setattr(ctl, chunk_name, 25)
    m = diverging_model()
    run(m, 1037, 25)
    for workers in (1, 2):
        with pytest.raises(PathDivergenceError) as exc:
            run(m, 1037, 50, workers=workers)
        assert type(exc.value) is PathDivergenceError
        # 1081 (step 5) and 1086 (step 4) diverge; the smaller one is named
        assert (exc.value.realization, exc.value.step) == (1081, 5)
        assert "realization 1081" in str(exc.value)


@pytest.mark.parametrize(
    "run, chunk_name, make_model, start, count",
    [
        (_mesh, "MESH_CHUNK", diverging_model, 1062, 25),
        (_mesh_density, "MESH_CHUNK", diverging_model, 1062, 25),
        (_stochastic, "STOCH_CHUNK", diverging_model, 1062, 25),
        (_mesh, "MESH_CHUNK", bad_mark_model, 1000, 30),
        (_stochastic, "STOCH_CHUNK", bad_mark_model, 1000, 30),
        (_stochastic, "STOCH_CHUNK", overflowing_density_model, 1003, 5),
    ],
    ids=[
        "mesh", "mesh-density", "stochastic", "mesh-mark-shape", "stochastic-mark-shape",
        "stochastic-overflow",
    ],
)
def test_failing_realization_does_not_depend_on_chunking(
    monkeypatch, run, chunk_name, make_model, start, count
):
    # The error names the smallest failing realization whatever the chunk
    # size and the engine's block budget: the one a run with one-row
    # chunks reaches first.  The forward-only mesh engine runs a chunk in
    # one pass, so its budget changes nothing there.
    m = make_model()
    seen = set()
    budget_name = "MESH_BLOCK_STEPS" if chunk_name == "MESH_CHUNK" else "STOCH_BLOCK_STEPS"
    default = getattr(ctl, budget_name)
    for chunk in (1, 7, 25, getattr(ctl, chunk_name)):
        monkeypatch.setattr(ctl, chunk_name, chunk)
        for workers, budget in ((1, 3), (1, 40), (1, default), (2, default)):
            monkeypatch.setattr(ctl, budget_name, budget)
            with pytest.raises(JumpMCError) as exc:
                run(m, start, count, workers=workers)
            error = exc.value
            seen.add((type(error), error.realization, getattr(error, "step", None), str(error)))
    assert len(seen) == 1, seen
    ((kind, which, _, _),) = seen
    with pytest.raises(kind) as alone:
        run(m, which, 1)
    assert alone.value.realization == which
    if make_model is diverging_model:
        assert (which, error.step) == (1081, 5)


def nan_payoff_model():
    """test5 whose payoff is NaN once x1 ends above 0.8."""
    base = build_model("test5")
    return replace(base, payoff=lambda x: np.where(x[..., 0] > 0.8, np.nan, base.payoff(x)))


@pytest.mark.parametrize(
    "algorithm, chunk_name", [(algorithm_d, "MESH_CHUNK"), (algorithm_s, "STOCH_CHUNK")],
    ids=["algorithm_d", "algorithm_s"],
)
def test_a_non_finite_payoff_names_the_smallest_realization(monkeypatch, algorithm, chunk_name):
    # a NaN payoff stops the batch at its smallest realization, before a
    # NaN standard deviation reaches change_M
    m = nan_payoff_model()
    seen = set()
    for chunk in (7, 25, getattr(ctl, chunk_name)):
        monkeypatch.setattr(ctl, chunk_name, chunk)
        for workers in (1, 2):
            with pytest.raises(EvaluationError) as exc:
                algorithm(m, 0.1, workers=workers)
            assert type(exc.value) is EvaluationError
            seen.add((exc.value.realization, str(exc.value)))
    assert len(seen) == 1, seen
    ((which, message),) = seen
    assert message == f"payoff is not finite (realization {which})"
    # every realization before it has a finite payoff, on either engine
    assert np.isfinite(_mesh(m, 0, which)["payoff"]).all()
    assert np.isfinite(_stochastic(m, 0, which)["payoff"]).all()
    for run in (_mesh, _mesh_density, _stochastic):
        with pytest.raises(EvaluationError) as alone:
            run(m, which, 1)
        assert alone.value.realization == which
    with pytest.raises(EvaluationError) as rhodef:
        ctl.run_interval_batch(m, uniform_mesh(1.0, 5), SeedConfig(), which + 1)
    assert rhodef.value.realization == which


@pytest.mark.parametrize("run", [_mesh_density, _stochastic], ids=["mesh", "stochastic"])
def test_density_overflow_raises_without_a_numpy_warning(run):
    # realization 1033's density overflows inside a sum: numpy's
    # invalid-value warning must not escape before the named error
    with pytest.raises(EvaluationError) as exc:
        run(overflowing_density_model(), 1033, 1)
    assert exc.value.realization == 1033


@pytest.mark.parametrize(
    "tol_t, n_a_bar",
    [(0.01, 0.0), (0.01, -5.0), (0.01, math.nan), (0.01, math.inf), (0.0, 5.0),
     (-0.01, 5.0), (math.nan, 5.0)],
)
def test_stochastic_control_rejects_bad_thresholds(tol_t, n_a_bar):
    # n_a_bar = 0 divided by zero, nan accepted nothing and refined
    # nothing, and inf or tol_t = 0 bisected every step to the floor
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    kw = dict(tol=0.04, tol_t=tol_t, n_a_bar=n_a_bar)
    with pytest.raises(ParameterError):
        run_stochastic_batch(m, det, SeedConfig(), 0, 10, **kw)
    with pytest.raises(ParameterError):
        control_time_error(m, det, SeedConfig(), 0, **kw)


@pytest.mark.parametrize("engine", ["mesh", "stochastic", "control"])
@pytest.mark.parametrize("tol", [1.5, 0.0])
def test_a_bad_density_tol_is_rejected_before_any_work(monkeypatch, engine, tol):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran with an invalid TOL")

    monkeypatch.setattr(ctl, "_setup_paths", no_work)
    kw = dict(tol=tol, tol_t=0.01, n_a_bar=5.0)
    with pytest.raises(ParameterError, match="TOL must lie in"):
        if engine == "mesh":
            run_mesh_batch(m, det, SeedConfig(), 0, 40000, tol=tol, want_density=True)
        elif engine == "stochastic":
            run_stochastic_batch(m, det, SeedConfig(), 0, 10, **kw)
        else:
            control_time_error(m, det, SeedConfig(), 0, **kw)


@pytest.mark.parametrize("count", [0, -3])
def test_library_entry_points_reject_fewer_than_one_realization(count):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    calls = [
        lambda: run_mesh_batch(m, det, SeedConfig(), 0, count),
        lambda: run_stochastic_batch(
            m, det, SeedConfig(), 0, count, tol=0.04, tol_t=0.01, n_a_bar=5.0
        ),
        lambda: ctl.run_interval_batch(m, det, SeedConfig(), count),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="batch size"):
            call()


@pytest.mark.parametrize("workers", [0, -1])
def test_library_entry_points_reject_fewer_than_one_worker(workers):
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    calls = [
        lambda: run_mesh_batch(m, det, SeedConfig(), 0, 10, workers=workers),
        lambda: run_stochastic_batch(
            m, det, SeedConfig(), 0, 10, tol=0.04, tol_t=0.01, n_a_bar=5.0, workers=workers
        ),
        lambda: ctl.run_interval_batch(m, det, SeedConfig(), 10, workers=workers),
        lambda: algorithm_d(m, 0.1, workers=workers),
        lambda: algorithm_s(m, 0.1, workers=workers),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="workers"):
            call()


def _mesh_rows(start, count, workers=1):
    return run_mesh_batch(
        build_model("test5"), uniform_mesh(1.0, 5), SeedConfig(), start, count, workers=workers
    )


NOT_INTEGERS = {
    "algorithm_s_m0": lambda: algorithm_s(build_model("test5"), 0.04, stats=StatParams(m0=2.5)),
    "n_initial": lambda: AdaptParams(n_initial=5.0),
    "max_refinements": lambda: AdaptParams(max_refinements=2.5),
    "max_batches": lambda: StatParams(max_batches=1.5),
    "mch": lambda: StatParams(mch=2.5),
    "change_M_mch": lambda: change_M(100, 1e9, 1e-3, 1.65, 2.5),
    "change_M_m_in": lambda: change_M(100.5, 0.5, 0.01),
    "mesh_count": lambda: _mesh_rows(0, 2.5),
    "mesh_start": lambda: _mesh_rows(0.5, 3),
    "stochastic_start": lambda: control_time_error(
        build_model("test5"), uniform_mesh(1.0, 5), SeedConfig(), 1.5,
        tol=0.04, tol_t=0.01, n_a_bar=5.0,
    ),
    "workers_one_chunk": lambda: _mesh_rows(0, 3, workers=1.5),
    "workers_many_chunks": lambda: _mesh_rows(0, ctl.MESH_CHUNK + 1, workers=1.5),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_integer_parameters_reject_other_numbers_before_any_work(monkeypatch, case):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran with a non-integer parameter")

    monkeypatch.setattr(ctl, "_setup_paths", no_work)
    with pytest.raises(ParameterError, match="must be an integer"):
        NOT_INTEGERS[case]()


def test_integer_parameters_accept_numpy_integers():
    stats = StatParams(mch=np.int32(3), m0=np.int64(32), max_batches=np.int64(40))
    adapt = AdaptParams(n_initial=np.int64(5), max_refinements=np.int16(30))
    assert (stats, adapt) == (StatParams(mch=3, m0=32), AdaptParams())
    assert type(stats.m0) is int and type(adapt.n_initial) is int
    assert change_M(np.int64(100), 0.5, 0.01333, 1.65, np.int64(10)) == 1024
    rows = _mesh_rows(np.int64(3), np.int64(4), workers=np.int64(1))
    np.testing.assert_array_equal(rows["payoff"], _mesh_rows(3, 4)["payoff"])
    m = build_model("test5")
    got, want = (algorithm_s(m, 0.2, stats=s) for s in (stats, StatParams(mch=3, m0=32)))
    assert (got.estimate, got.total_work, got.batches) == (want.estimate, want.total_work, want.batches)
