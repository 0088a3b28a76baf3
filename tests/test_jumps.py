"""Jump-time sampling, intensity integrals, and the augmented grid."""

import math
from dataclasses import replace

import numpy as np
import pytest

from jumpmc import (
    EvaluationError,
    ParameterError,
    SeedConfig,
    build_model,
    run_mesh_batch,
    uniform_mesh,
)
from jumpmc.jumps import (
    IntensityIntegral,
    JumpRealization,
    build_augmented_grid,
    build_grid_batch,
    intensity_integral_for,
    interval_of_steps,
    jump_times_from_exponentials,
    sample_jump_chunk,
    sample_jump_times,
    sample_jumps,
    sample_marks,
)
from jumpmc.rng import STREAM_JUMP_TIMES, STREAM_MARKS, keyed_streams, stream

NO_JUMPS = JumpRealization(times=np.empty(0), marks=np.empty((0, 1)))


def constant_rate_integral(rate=2.0, horizon=1.0):
    return IntensityIntegral(lambda t: rate, horizon, bound=rate)


def test_integral_constant_rate():
    integral = constant_rate_integral(rate=2.0)
    assert integral.value(0.5) == pytest.approx(1.0, rel=1e-12)
    assert integral.total == pytest.approx(2.0, rel=1e-12)
    assert integral.inverse(1.0) == pytest.approx(0.5, rel=1e-10)


def test_integral_oscillator_closed_form():
    m = build_model("test5")
    integral = intensity_integral_for(m)
    assert integral.value(1.0) == pytest.approx(math.log(2.0), rel=1e-14)
    # Lambda^{-1}(0.5) = e^{0.5} - 1
    assert integral.inverse(0.5) == pytest.approx(math.e**0.5 - 1.0, rel=1e-13)


def test_integral_quadrature_matches_closed_form():
    # numeric quadrature path against the known antiderivative
    integral = IntensityIntegral(lambda t: 1.0 / (1.0 + t), 1.0, bound=1.0)
    for t in (0.0, 0.2, 0.55, 1.0):
        assert integral.value(t) == pytest.approx(math.log1p(t), rel=1e-12)
    for s in (0.1, 0.3, 0.6):
        assert integral.inverse(s) == pytest.approx(math.expm1(s), rel=1e-10)


def test_integral_rejects_negative_rate():
    with pytest.raises(EvaluationError):
        IntensityIntegral(lambda t: -0.1, 1.0, bound=1.0)


def test_integral_rejects_rate_above_bound():
    with pytest.raises(EvaluationError):
        IntensityIntegral(lambda t: 2.0, 1.0, bound=1.0)


def test_jump_times_from_exponentials_oscillator():
    # Lambda(T) = log 2 ~ 0.693: eps=0.5 gives tau = e^0.5 - 1 ~ 0.6487,
    # the next partial sum 0.9 exceeds log 2, so exactly one jump
    m = build_model("test5")
    integral = intensity_integral_for(m)
    times = jump_times_from_exponentials(integral, [0.5, 0.4])
    assert len(times) == 1
    assert times[0] == pytest.approx(math.e**0.5 - 1.0, rel=1e-12)


def test_jump_times_from_exponentials_constant_rate():
    # rate 2 on [0,1]: partial sums 1.0, 1.6 below 2, next 2.6 above
    integral = constant_rate_integral(rate=2.0)
    times = jump_times_from_exponentials(integral, [1.0, 0.6, 1.0])
    np.testing.assert_allclose(times, [0.5, 0.8], rtol=1e-10)


def test_jump_times_boundary_is_strict():
    # partial sum equal to Lambda(T) does not produce a jump at T
    integral = constant_rate_integral(rate=1.0, horizon=1.0)
    times = jump_times_from_exponentials(integral, [1.0, 5.0])
    assert len(times) == 0


def test_jump_times_validation():
    integral = constant_rate_integral()
    with pytest.raises(ParameterError):
        jump_times_from_exponentials(integral, [0.5, -0.1, 99.0])
    with pytest.raises(ParameterError):
        jump_times_from_exponentials(integral, [0.5, 0.5])  # supply exhausted


def test_zero_intensity_never_jumps():
    integral = IntensityIntegral(lambda t: 0.0, 1.0, bound=0.0)
    rng = stream(20, 0, STREAM_JUMP_TIMES)
    times = sample_jump_times(integral, rng)
    assert len(times) == 0


def test_a_nan_intensity_is_an_error():
    with pytest.raises(EvaluationError, match="NaN"):
        IntensityIntegral(lambda t: math.nan if t > 0.5 else 1.0, 1.0, bound=2.0)


def test_a_non_finite_integrated_intensity_is_an_error():
    # rows whose exponentials do not reach L(T) are drawn again with twice
    # as many, so a NaN L(T) must stop the set-up, not grow it forever
    base = build_model("test5")
    model = replace(base, intensity_integral=lambda t: math.nan if t > 0.0 else 0.0)
    with pytest.raises(EvaluationError, match="not finite"):
        run_mesh_batch(model, uniform_mesh(1.0, 5), SeedConfig(), 0, 10)


def test_an_inverse_error_names_its_realization():
    # the chunk maps the inverse over all of its sums at once; an error
    # still names the realization whose sum failed
    base = build_model("test5")

    def inverse(s):
        if s > 0.6:
            raise EvaluationError("inverse failed")
        return math.expm1(s)

    model = replace(base, intensity_integral_inverse=inverse)
    _, times_stream, marks_stream = keyed_streams(SeedConfig())
    n_jumps, times, _ = sample_jump_chunk(
        base, intensity_integral_for(base), times_stream, marks_stream, range(100)
    )
    owner = np.repeat(np.arange(100), n_jumps)
    first = int(owner[np.argmax(times > math.expm1(0.6))])
    assert first > 0
    with pytest.raises(EvaluationError, match="inverse failed") as exc:
        run_mesh_batch(model, uniform_mesh(1.0, 5), SeedConfig(), 0, 100)
    assert exc.value.realization == first


def test_mean_jump_count_matches_total_intensity():
    # N-hat ~ Poisson(log 2); check the mean within 5 standard errors
    m = build_model("test5")
    integral = intensity_integral_for(m)
    n = 20000
    counts = np.empty(n)
    for i in range(n):
        rng = stream(20, i, STREAM_JUMP_TIMES)
        counts[i] = len(sample_jump_times(integral, rng))
    target = math.log(2.0)
    se = math.sqrt(target / n)
    assert abs(counts.mean() - target) < 5.0 * se


def test_mark_sampler_frozen_value():
    # at tau=0.25: cos(pi/2)=0, sin(pi/2)=1, so z = 2 sqrt(3) (u - 1/2);
    # a generator that returns u=0.5 gives exactly 0
    m = build_model("test5")

    class Fixed:
        def random(self, size=None):
            return 0.5 if size is None else np.full(size, 0.5)

    z = m.mark_sampler(0.25, Fixed())
    assert float(np.asarray(z)[0]) == pytest.approx(0.0, abs=1e-15)


def test_mark_second_moment():
    # E[z^2 | tau] = cos^2 + sin^2 * (2 sqrt(3))^2 /12 = 1 for every tau
    m = build_model("test5")
    rng = stream(101, 0, STREAM_MARKS)
    taus = np.linspace(0.0, 1.0, 7)
    for tau in taus:
        zs = np.array([float(m.mark_sampler(tau, rng)[0]) for _ in range(4000)])
        assert abs((zs**2).mean() - 1.0) < 0.08


# Host guards: set-up maps the builtin mark quantile with np.cos and np.sin,
# and a closed inverse with np.frompyfunc.  Where numpy's SIMD loops round
# differently from libm, these fail instead of moving marks silently.


def test_array_mark_quantile_has_the_bits_of_the_scalar_math_formula():
    quantile = build_model("test5").mark_sampler.quantile
    rng = np.random.default_rng(23)
    for _ in range(4):
        t, u = rng.random(500_000), rng.random(500_000)
        scalar = [
            math.cos(2.0 * math.pi * s)
            + math.sin(2.0 * math.pi * s) * (2.0 * math.sqrt(3.0)) * (v - 0.5)
            for s, v in zip(t.tolist(), u.tolist())
        ]
        np.testing.assert_array_equal(quantile(t, u), np.array(scalar)[:, None])


def test_mapped_closed_inverse_has_the_bits_of_the_scalar_loop():
    integral = intensity_integral_for(build_model("test5"))
    sums = np.random.default_rng(29).random(1_000_000) * integral.total
    loop = [integral.inverse(s) for s in sums.tolist()]
    np.testing.assert_array_equal(integral.inverses(sums), loop)


def test_sample_marks_shape_validation():
    m = build_model("test5")

    class Bad:
        def random(self, size=None):
            return 0.5

    bad_model = type(m)(
        **{
            **{f.name: getattr(m, f.name) for f in m.__dataclass_fields__.values()},
            "mark_sampler": lambda t, rng: np.zeros(3),
        }
    )
    with pytest.raises(EvaluationError):
        sample_marks(bad_model, np.array([0.5]), Bad())


def test_sample_jumps_reproducible():
    m = build_model("test5")
    integral = intensity_integral_for(m)
    seeds = SeedConfig()
    t_rng = stream(seeds.jump_times, 4, STREAM_JUMP_TIMES)
    z_rng = stream(seeds.marks, 4, STREAM_MARKS)
    first = sample_jumps(m, integral, t_rng, z_rng)
    t_rng = stream(seeds.jump_times, 4, STREAM_JUMP_TIMES)
    z_rng = stream(seeds.marks, 4, STREAM_MARKS)
    second = sample_jumps(m, integral, t_rng, z_rng)
    np.testing.assert_array_equal(first.times, second.times)
    np.testing.assert_array_equal(first.marks, second.marks)


# --- augmented grid ---------------------------------------------------------


def test_grid_insertion_and_counts():
    det = np.array([0.0, 0.5, 1.0])
    jumps = JumpRealization(times=np.array([0.25, 0.75]), marks=np.array([[1.0], [2.0]]))
    grid = build_augmented_grid(det, jumps, horizon=1.0)
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.n_steps == 4
    assert grid.n_jumps == 2
    assert grid.collisions == 0
    np.testing.assert_array_equal(grid.jump_index, [-1, 0, -1, 1, -1])
    # the deterministic nodes keep their times; the jumps sit between them
    np.testing.assert_array_equal(grid.times[[0, 2, 4]], det)
    np.testing.assert_array_equal(grid.times[grid.jump_index >= 0], jumps.times)


def test_grid_collision_merges_node():
    # one jump exactly on a deterministic node: N_A = N + N_hat - collisions
    det = np.array([0.0, 0.5, 1.0])
    jumps = JumpRealization(times=np.array([0.5]), marks=np.array([[3.0]]))
    grid = build_augmented_grid(det, jumps, horizon=1.0)
    assert grid.n_steps == 2
    assert grid.collisions == 1
    assert grid.jump_index[1] == 0
    # the merged jump sits at the deterministic node's time; no node is new
    np.testing.assert_array_equal(grid.times, det)


def test_grid_near_collision_merges_within_tolerance():
    det = np.array([0.0, 0.5, 1.0])
    eps = 1e-15
    jumps = JumpRealization(times=np.array([0.5 + eps]), marks=np.array([[1.0]]))
    grid = build_augmented_grid(det, jumps, horizon=1.0)
    assert grid.n_steps == 2
    assert grid.collisions == 1


def test_grid_interval_of_step():
    det = np.array([0.0, 0.5, 1.0])
    jumps = JumpRealization(times=np.array([0.25]), marks=np.array([[1.0]]))
    grid = build_augmented_grid(det, jumps, horizon=1.0)
    np.testing.assert_array_equal(interval_of_steps(grid.det_times, grid.times), [0, 0, 1])


def test_grid_validation():
    jumps = NO_JUMPS
    with pytest.raises(ParameterError):
        build_augmented_grid(np.array([0.0, 0.5, 0.5, 1.0]), jumps, horizon=1.0)
    with pytest.raises(ParameterError):
        build_augmented_grid(np.array([0.1, 1.0]), jumps, horizon=1.0)
    with pytest.raises(ParameterError):
        build_augmented_grid(np.array([0.0, 0.9]), jumps, horizon=1.0)
    bad = JumpRealization(times=np.array([1.5]), marks=np.array([[0.0]]))
    with pytest.raises(ParameterError):
        build_augmented_grid(np.array([0.0, 1.0]), bad, horizon=1.0)


@pytest.mark.parametrize("node", [math.nan, math.inf, -math.inf])
def test_grid_rejects_a_non_finite_mesh(node):
    with pytest.raises(ParameterError, match="finite and strictly increasing"):
        build_augmented_grid(np.array([0.0, node, 1.0]), NO_JUMPS, horizon=1.0)


def flat_jumps(rows):
    """``build_grid_batch``'s (n_jumps, times, marks) of JumpRealization rows."""
    return (
        [len(r.times) for r in rows],
        np.concatenate([r.times for r in rows]),
        np.concatenate([r.marks for r in rows]),
    )


def test_grid_groups_errors_name_the_realization():
    det = np.array([0.0, 0.5, 1.0])
    fine = JumpRealization(times=np.array([0.25]), marks=np.array([[1.0]]))
    cases = [
        # both jumps merge into the node at 0.5
        (JumpRealization(np.array([0.5, 0.5 + 1e-16]), np.zeros((2, 1))), EvaluationError),
        (JumpRealization(np.array([0.6, 0.3]), np.zeros((2, 1))), ParameterError),
    ]
    for bad, error in cases:
        with pytest.raises(error) as exc:
            build_grid_batch(
                det, *flat_jumps([fine, bad, fine]), horizon=1.0, realizations=[7, 8, 9]
            )
        assert type(exc.value) is error
        assert exc.value.realization == 8 and "(realization 8)" in str(exc.value)
        with pytest.raises(error) as alone:
            build_augmented_grid(det, bad, horizon=1.0)
        assert alone.value.realization is None
    # flat arrays carry no per-row mark count: a mark too many is caught
    # for the whole chunk
    bad = JumpRealization(np.array([0.3]), np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        build_grid_batch(det, *flat_jumps([fine, bad, fine]), horizon=1.0)
    with pytest.raises(ParameterError):
        build_augmented_grid(det, bad, horizon=1.0)


def test_uniform_mesh():
    mesh = uniform_mesh(1.0, 5)
    np.testing.assert_allclose(mesh, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)
    with pytest.raises(ParameterError):
        uniform_mesh(1.0, 0)


@pytest.mark.parametrize("n", [2.5, 2.0, "3", True])
def test_uniform_mesh_rejects_a_step_count_that_is_not_an_integer(n):
    with pytest.raises(ParameterError, match="must be an integer"):
        uniform_mesh(1.0, n)
    np.testing.assert_array_equal(uniform_mesh(1.0, np.int64(2)), [0.0, 0.5, 1.0])


def test_constant_rate_gaps_are_exponential():
    # constant rate: inverse is linear, so gaps reproduce the exponentials/rate
    integral = constant_rate_integral(rate=4.0, horizon=10.0)
    eps = [1.2, 0.8, 2.0]
    times = jump_times_from_exponentials(integral, eps + [99.0])
    gaps = np.diff(np.concatenate([[0.0], times]))
    np.testing.assert_allclose(gaps, np.array(eps) / 4.0, rtol=1e-9)
