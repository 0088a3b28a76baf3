"""Counter-based stream layout: disjoint, reproducible, seed-validated,
and the chunk-wide draws against numpy's own generator."""

from dataclasses import replace

import numpy as np
import pytest

from jumpmc import (
    EvaluationError,
    ParameterError,
    SeedConfig,
    build_model,
    intensity_integral_for,
    realization_streams,
    run_mesh_batch,
    run_stochastic_batch,
    sample_jumps,
    sample_marks,
    stream,
    uniform_mesh,
)
from jumpmc import jumps
from jumpmc.model import MODELS, UniformMarks
from jumpmc.rng import (
    STREAM_JUMP_TIMES,
    STREAM_MARKS,
    STREAM_WIENER,
    KeyedStream,
    keyed_streams,
    philox_words,
)


def test_streams_are_reproducible():
    a = stream(7, 3, STREAM_WIENER).standard_normal(8)
    b = stream(7, 3, STREAM_WIENER).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_across_realizations_and_roles():
    base = stream(7, 0, STREAM_WIENER).standard_normal(8)
    other_real = stream(7, 1, STREAM_WIENER).standard_normal(8)
    other_role = stream(7, 0, STREAM_MARKS).standard_normal(8)
    other_seed = stream(8, 0, STREAM_WIENER).standard_normal(8)
    assert not np.array_equal(base, other_real)
    assert not np.array_equal(base, other_role)
    assert not np.array_equal(base, other_seed)


def test_realization_streams_match_roles():
    seeds = SeedConfig(wiener=7, jump_times=20, marks=101)
    w, t, z = realization_streams(seeds, 5)
    np.testing.assert_array_equal(
        w.standard_normal(4), stream(7, 5, STREAM_WIENER).standard_normal(4)
    )
    np.testing.assert_array_equal(
        t.standard_normal(4), stream(20, 5, STREAM_JUMP_TIMES).standard_normal(4)
    )
    np.testing.assert_array_equal(
        z.standard_normal(4), stream(101, 5, STREAM_MARKS).standard_normal(4)
    )


def test_seed_config_defaults_and_validation():
    seeds = SeedConfig()
    assert (seeds.wiener, seeds.jump_times, seeds.marks) == (7, 20, 101)
    with pytest.raises(ParameterError):
        SeedConfig(wiener=-1)
    with pytest.raises(ParameterError):
        SeedConfig(marks=2**64)


def test_no_consumption_order_coupling():
    # drawing from one stream must not advance another
    seeds = SeedConfig()
    w1, t1, _ = realization_streams(seeds, 0)
    w1.standard_normal(1000)
    tail_after = t1.standard_normal(4)
    _, t2, _ = realization_streams(seeds, 0)
    np.testing.assert_array_equal(tail_after, t2.standard_normal(4))


def test_keyed_stream_reset_matches_a_new_stream():
    rng = np.random.default_rng(4)
    near_zero = rng.integers(0, 1000, size=4)
    near_top = (1 << 60) - 1 - rng.integers(0, 1000, size=4)
    for stream_id in (STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS):
        keyed = KeyedStream(2**64 - 5, stream_id)
        for index in [0, (1 << 60) - 1, *near_zero.tolist(), *near_top.tolist()]:
            # leave a half-used 64-bit word and a partly read buffer behind
            keyed.at(index + 1 if index == 0 else index - 1).integers(
                0, 2**32, size=3, dtype=np.uint32
            )
            got = keyed.at(index)
            fresh = stream(2**64 - 5, index, stream_id)
            assert got.integers(0, 2**32, dtype=np.uint32) == fresh.integers(
                0, 2**32, dtype=np.uint32
            )
            np.testing.assert_array_equal(got.standard_normal(7), fresh.standard_normal(7))
            np.testing.assert_array_equal(got.random(5), fresh.random(5))
    for bad in (-1, 1 << 60):
        with pytest.raises(ParameterError):
            KeyedStream(7, STREAM_WIENER).at(bad)


def test_keyed_streams_follow_the_realization_layout():
    seeds = SeedConfig(wiener=3, jump_times=4, marks=5)
    for keyed, fresh in zip(keyed_streams(seeds), realization_streams(seeds, 11)):
        np.testing.assert_array_equal(keyed.at(11).standard_normal(6), fresh.standard_normal(6))


# ---------------------------------------------------------------------------
# counter-based draws against numpy's Philox and Generator


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS])
def test_philox_words_match_random_raw(seed, stream_id):
    for index in (0, (1 << 60) - 1, 12345):
        raw = stream(seed, index, stream_id).bit_generator.random_raw(16)
        words = philox_words(seed, stream_id, [index] * 4, [0, 1, 2, 3])
        np.testing.assert_array_equal(words.ravel(), raw)
        keyed = KeyedStream(seed, stream_id)
        for word in range(10):  # offsets across 4-word blocks
            got = keyed.at(index, word).bit_generator.random_raw(6)
            np.testing.assert_array_equal(got, raw[word:word + 6])
            assert keyed.word == word + 6
    with pytest.raises(ParameterError):
        philox_words(seed, stream_id, [1 << 60], [0])


def first_rejections(kind, keyed, indices, count):
    return keyed.fast_draws(kind, indices, np.full(len(indices), count))[1]


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential"])
def test_draws_match_the_generator_on_a_million_values(kind):
    count = 50
    keyed = KeyedStream(2**64 - 3, STREAM_WIENER)
    # rows whose fast path rejects at their first, middle and last draw
    probe = np.arange(5000, 25000)
    first = first_rejections(kind, keyed, probe, count)
    built = [int(probe[np.argmax(first == k)]) for k in (0, count // 2, count - 1)]
    assert all(first_rejections(kind, keyed, built, count) == [0, count // 2, count - 1])
    rows = np.concatenate([np.arange(20010), built, [(1 << 60) - 1]])
    counts = np.full(len(rows), count)
    counts[:7] = [0, 1, 2, 3, 4, 5, 9]
    ends = np.empty(len(rows), dtype=np.int64)
    values = keyed.draws(kind, rows, counts, ends)
    assert values.size >= 10**6
    at = 0
    for index, n, end in zip(rows.tolist(), counts.tolist(), ends.tolist()):
        generator = stream(2**64 - 3, index, STREAM_WIENER)
        np.testing.assert_array_equal(values[at:at + n], getattr(generator, kind)(n))
        state = generator.bit_generator.state
        assert end == 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
        at += n
    assert at == values.size


def test_uniforms_match_generator_random():
    keyed = KeyedStream(101, STREAM_MARKS)
    rows = np.arange(300, 600)
    ends = np.empty(len(rows), dtype=np.int64)
    values = keyed.draws("random", rows, rows % 11, ends)
    np.testing.assert_array_equal(ends, rows % 11)
    expected = [stream(101, i, STREAM_MARKS).random(i % 11) for i in rows.tolist()]
    np.testing.assert_array_equal(values, np.concatenate(expected))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mark_quantile_matches_the_scalar_sampler(name):
    model = build_model(name)
    assert isinstance(model.mark_sampler, UniformMarks)
    times = np.random.default_rng(5).random(200)
    scalar = stream(101, 3, STREAM_MARKS)
    uniforms = stream(101, 3, STREAM_MARKS).random(200)
    for t, u in zip(times.tolist(), uniforms.tolist()):
        np.testing.assert_array_equal(
            model.mark_sampler.quantile(t, u), model.mark_sampler(t, scalar)
        )


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("wrapped", [False, True])
def test_jump_chunk_matches_one_row_sampling(monkeypatch, name, wrapped):
    model = build_model(name)
    if wrapped:
        # a plain function loses the quantile: marks are drawn per jump
        builtin = model.mark_sampler
        model = replace(model, mark_sampler=lambda t, rng: builtin(t, rng))
    calls = []
    monkeypatch.setattr(
        jumps, "sample_marks", lambda *a: calls.append(1) or sample_marks(*a)
    )
    integral = intensity_integral_for(model)
    seeds = SeedConfig(wiener=1, jump_times=2, marks=3)
    _, times_stream, marks_stream = keyed_streams(seeds)
    rows = range(2000, 4000)
    n_jumps, times, marks = jumps.sample_jump_chunk(
        model, integral, times_stream, marks_stream, rows
    )
    assert bool(calls) == wrapped
    at = 0
    for i, n in zip(rows, n_jumps.tolist()):
        _, t_rng, z_rng = realization_streams(seeds, i)
        one = sample_jumps(model, integral, t_rng, z_rng)
        np.testing.assert_array_equal(times[at:at + n], one.times)
        np.testing.assert_array_equal(marks[at:at + n], one.marks)
        at += n
    assert at == len(times) and n_jumps.max() >= 4


def test_jump_chunk_hands_rejected_and_uncovered_rows_to_the_generator(monkeypatch):
    # blocks of four exponentials under a rate-3 intensity: many rows run
    # past their block, and many reject a draw inside it
    model = replace(
        build_model("test5"), intensity=lambda t: 3.0, intensity_bound=3.0,
        intensity_integral=lambda t: 3.0 * t, intensity_integral_inverse=lambda s: s / 3.0,
    )
    monkeypatch.setattr(jumps, "_exponential_block", lambda total: 4)
    integral = intensity_integral_for(model)
    seeds = SeedConfig()
    _, times_stream, marks_stream = keyed_streams(seeds)
    n_jumps, times, marks = jumps.sample_jump_chunk(
        model, integral, times_stream, marks_stream, range(500)
    )
    assert (n_jumps > 4).sum() > 50
    at = 0
    for i, n in enumerate(n_jumps.tolist()):
        one = sample_jumps(model, integral, *realization_streams(seeds, i)[1:])
        np.testing.assert_array_equal(times[at:at + n], one.times)
        np.testing.assert_array_equal(marks[at:at + n], one.marks)
        at += n


def bad_mark_model():
    """test5 whose mark sampler returns three entries for jumps after t=0.5."""
    base = build_model("test5")

    def sampler(t, rng):
        z = base.mark_sampler(t, rng)
        return np.zeros(3) if t > 0.5 else z

    return replace(base, mark_sampler=sampler)


@pytest.mark.parametrize("engine", ["mesh", "stochastic"])
def test_samplers_without_a_quantile_raise_per_realization(monkeypatch, engine):
    det = uniform_mesh(1.0, 5)
    calls = []
    monkeypatch.setattr(
        jumps, "sample_marks", lambda *a: calls.append(1) or sample_marks(*a)
    )
    with pytest.raises(EvaluationError) as exc:
        if engine == "mesh":
            run_mesh_batch(bad_mark_model(), det, SeedConfig(), 1000, 50)
        else:
            kw = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0)
            run_stochastic_batch(bad_mark_model(), det, SeedConfig(), 1000, 50, **kw)
    assert calls  # the per-jump path
    assert type(exc.value) is EvaluationError
    assert exc.value.realization == 1008
    assert str(exc.value) == "mark sampler returned shape (3,), expected (1,) (realization 1008)"
    # a UniformMarks quantile with the wrong shape names its realization too
    quantile = build_model("test5").mark_sampler.quantile
    shaped = replace(
        build_model("test5"),
        mark_sampler=UniformMarks(lambda t, u: np.zeros(3) if t > 0.5 else quantile(t, u)),
    )
    with pytest.raises(EvaluationError) as exc:
        run_mesh_batch(shaped, det, SeedConfig(), 1000, 50)
    assert exc.value.realization == 1008
