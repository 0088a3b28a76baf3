"""Counter-based stream layout: disjoint, reproducible, seed-validated,
and the chunk-wide draws against numpy's own generator."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jumpmc import (
    EvaluationError,
    ParameterError,
    SeedConfig,
    build_model,
    run_mesh_batch,
    run_stochastic_batch,
    uniform_mesh,
)
from jumpmc import controller as ctl
from jumpmc import jumps
from jumpmc import rng as rng_module
from jumpmc._ziggurat import FE_DOUBLE, FI_DOUBLE, KE_DOUBLE, KI_DOUBLE, WE_DOUBLE, WI_DOUBLE
from jumpmc.jumps import intensity_integral_for, sample_jumps, sample_marks
from jumpmc.model import MODELS, UniformMarks
from jumpmc.rng import (
    STREAM_JUMP_TIMES,
    STREAM_MARKS,
    STREAM_WIENER,
    KeyedStream,
    keyed_streams,
    philox_words,
    realization_streams,
    stream,
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


@pytest.mark.parametrize("seed", [1.5, 1.0, "1", True])
def test_seed_config_rejects_seeds_that_are_not_integers(seed):
    # 1.5 used to run seed 1's streams without a word
    with pytest.raises(ParameterError, match="must be an integer"):
        SeedConfig(wiener=seed)


def test_seed_config_stores_numpy_integer_seeds_as_int():
    seeds = SeedConfig(wiener=np.int64(3), jump_times=np.uint64(2**64 - 1))
    assert type(seeds.wiener) is int and type(seeds.jump_times) is int
    assert seeds == SeedConfig(wiener=3, jump_times=2**64 - 1)


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
            assert keyed.generator.bit_generator.random_raw() == raw[word + 6]
    with pytest.raises(ParameterError):
        philox_words(seed, stream_id, [1 << 60], [0])


@pytest.mark.parametrize("stream_id", [STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS])
def test_philox_words_match_numpy_philox_on_random_keys_and_counters(stream_id):
    rng = np.random.default_rng(11 + stream_id)
    for seed in [0, 2**64 - 1, *rng.integers(0, 2**64, 3, dtype=np.uint64).tolist()]:
        realizations = rng.integers(0, 1 << 60, 64, dtype=np.int64)
        blocks = rng.integers(0, 1 << 63, 64, dtype=np.uint64)
        blocks[:3] = [0, 1, (1 << 63) - 1]
        words = philox_words(seed, stream_id, realizations, blocks)
        for r, block, got in zip(realizations.tolist(), blocks.tolist(), words):
            key = np.array([seed, r + ((stream_id + 1) << 60)], dtype=np.uint64)
            # numpy's Philox steps its counter before each block
            counter = np.array([block, 0, 0, 0], dtype=np.uint64)
            bits = np.random.Philox(key=key, counter=counter)
            np.testing.assert_array_equal(got, bits.random_raw(4))


def _words(keyed, indices, count):
    """The first ``count`` Philox words of each of the streams ``indices``,
    as a (len(indices), count) array."""
    blocks = (count + 3) // 4
    return philox_words(
        keyed.seed, keyed.stream_id, np.repeat(indices, blocks),
        np.tile(np.arange(blocks), len(indices)),
    ).reshape(len(indices), -1)[:, :count]


def first_rejections(kind, keyed, indices, count):
    """Each row's first word that the fast path of ``kind`` rejects
    (``count`` when none): its first draw that is not a fast-path draw."""
    _, ok = getattr(rng_module, kind)(_words(keyed, indices, count))
    return np.where(ok.all(axis=1), count, np.argmin(ok, axis=1))


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
    values = keyed.draws(kind, rows, counts)  # every value numpy's
    assert values.size >= 10**6
    at = 0
    for index, n in zip(rows.tolist(), counts.tolist()):
        generator = stream(2**64 - 3, index, STREAM_WIENER)
        np.testing.assert_array_equal(values[at:at + n], getattr(generator, kind)(n))
        at += n
    assert at == values.size


def test_uniforms_match_generator_random(monkeypatch):
    keyed = KeyedStream(101, STREAM_MARKS)
    rows = np.arange(300, 600)
    words = []
    slabs = KeyedStream._slabs
    monkeypatch.setattr(
        KeyedStream, "_slabs", lambda self, r, c: words.append(c.sum()) or slabs(self, r, c)
    )
    values = keyed.draws("random", rows, rows % 11)
    assert words == [(rows % 11).sum()]  # never rejects, so no slack words
    expected = [stream(101, i, STREAM_MARKS).random(i % 11) for i in rows.tolist()]
    np.testing.assert_array_equal(values, np.concatenate(expected))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mark_quantile_matches_the_scalar_sampler(name):
    model = build_model(name)
    assert isinstance(model.mark_sampler, UniformMarks)
    times = np.random.default_rng(5).random(200)
    scalar = stream(101, 3, STREAM_MARKS)
    uniforms = stream(101, 3, STREAM_MARKS).random(200)
    one_by_one = [model.mark_sampler(t, scalar) for t in times.tolist()]
    np.testing.assert_array_equal(model.mark_sampler.quantile(times, uniforms), one_by_one)


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


def test_jump_chunk_redraws_rows_that_do_not_reach_the_integral(monkeypatch):
    # two exponentials per row under a rate-3 intensity: most rows are
    # drawn again with four, many with eight and more
    model = replace(
        build_model("test5"), intensity=lambda t: 3.0, intensity_bound=3.0,
        intensity_integral=lambda t: 3.0 * t, intensity_integral_inverse=lambda s: s / 3.0,
    )
    monkeypatch.setattr(jumps, "_exponential_count", lambda total: 2)
    integral = intensity_integral_for(model)
    seeds = SeedConfig()
    _, times_stream, marks_stream = keyed_streams(seeds)
    n_jumps, times, marks = jumps.sample_jump_chunk(
        model, integral, times_stream, marks_stream, range(500)
    )
    assert (n_jumps >= 4).sum() > 50
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


@pytest.mark.parametrize("engine", ["mesh", "stochastic"])
@pytest.mark.parametrize("chunk, workers", [(1, 1), (7, 2), (16384, 1)])
def test_a_wrongly_shaped_quantile_names_the_first_realization_with_a_jump(
    monkeypatch, engine, chunk, workers
):
    # the quantile maps a whole chunk, so no single jump is to blame: the
    # error names the smallest realization that jumps, however rows are chunked
    model = build_model("test5")
    _, times_stream, marks_stream = keyed_streams(SeedConfig())
    n_jumps, _, _ = jumps.sample_jump_chunk(
        model, intensity_integral_for(model), times_stream, marks_stream, range(1000, 1050)
    )
    first = 1000 + int(np.argmax(n_jumps > 0))
    assert first > 1000  # realization 1000 does not jump, so the chunk start is not named
    shaped = replace(model, mark_sampler=UniformMarks(lambda t, u: np.zeros((len(t), 3))))
    det = uniform_mesh(1.0, 5)
    with pytest.raises(EvaluationError) as exc:
        if engine == "mesh":
            monkeypatch.setattr(ctl, "MESH_CHUNK", chunk)
            run_mesh_batch(shaped, det, SeedConfig(), 1000, 50, workers=workers)
        else:
            monkeypatch.setattr(ctl, "STOCH_CHUNK", chunk)
            kw = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0, workers=workers)
            run_stochastic_batch(shaped, det, SeedConfig(), 1000, 50, **kw)
    assert type(exc.value) is EvaluationError
    assert exc.value.realization == first
    assert str(exc.value).endswith(f"(realization {first})")


# ---------------------------------------------------------------------------
# ziggurat rejections resolved in arrays, against the generator


def _assert_draws_match(keyed, rows, counts, kind="standard_normal"):
    """Check ``draws`` against the generator, one row at a time; the
    realizations it handed to the generator, in order."""
    handed = []
    at = keyed.at
    keyed.at = lambda i, w=0: handed.append(i) or at(i, w)
    values = keyed.draws(kind, rows, counts)
    del keyed.at
    expected = [getattr(keyed.at(i), kind)(n) for i, n in zip(rows.tolist(), counts.tolist())]
    np.testing.assert_array_equal(values, np.concatenate(expected))
    return handed


def test_normal_draws_match_the_generator_from_any_start():
    # a row read from normal ``start`` on (as the bridge refinement reads
    # from a row's position) is the tail of its first start + count normals
    rng = np.random.default_rng(8)
    keyed = KeyedStream(2**64 - 11, STREAM_WIENER)
    rows = np.concatenate([np.arange(31000), [(1 << 60) - 1]])
    counts = rng.choice([0, 1, 6, 41], p=[0.05, 0.05, 0.1, 0.8], size=len(rows))
    starts = rng.integers(0, 8, size=len(rows))
    assert counts.sum() >= 10**6 and set(starts.tolist()) == set(range(8))
    _assert_draws_match(keyed, rows, starts + counts)


# kind: (wedge index and fast-path integer of a word, then the fast-path
# bound, width and wedge tables, and the exponent of the wedge bound)
_ZIGGURATS = {
    "standard_normal": (
        lambda w: (w & 0xFF, (w >> 9) & 0xFFFFFFFFFFFFF),
        KI_DOUBLE, WI_DOUBLE, FI_DOUBLE, lambda x: -0.5 * x * x,
    ),
    "standard_exponential": (
        lambda w: ((w >> 3) & 0xFF, w >> 11), KE_DOUBLE, WE_DOUBLE, FE_DOUBLE, lambda x: -x,
    ),
}


def _ziggurat_walk(kind, words, count):
    """numpy's ziggurat reading ``count`` draws of ``kind`` from
    ``words``, a scalar oracle of its control flow: the rejected draws it
    meets in order ("tail", "accept" or "reject" by the wedge test),
    whether two words in a row fail the fast path, and whether the last
    value needed the wedge test.  Stops at a tail draw or at the end of
    the words."""
    split, k, width, f, exponent = _ZIGGURATS[kind]
    parts = [split(int(w)) for w in words]
    fast = [r < k[idx] for idx, r in parts]
    met, adjacent, last, q, made = [], False, False, 0, 0
    while made < count and q < len(words) - 1:
        idx, r = parts[q]
        adjacent |= not fast[q] and not fast[q + 1]
        if fast[q]:
            made, q, last = made + 1, q + 1, False
            continue
        if idx == 0:
            met.append("tail")
            break
        x = r * width[idx]
        u = (int(words[q + 1]) >> 11) * (1.0 / 9007199254740992.0)
        ok = (f[idx - 1] - f[idx]) * u + f[idx] < math.exp(exponent(x))
        met.append("accept" if ok else "reject")
        made, q, last = made + ok, q + 2, bool(ok)
    return met, adjacent, last


def _crafted_rows(kind, keyed, count):
    """Realizations whose ``count`` draws of ``kind`` from word 0 meet: a
    wedge test at the last draw, two adjacent fast-path failures, a wedge
    accept, a wedge reject, a tail draw, and exactly two rejections."""
    probe = np.arange(4000)
    wanted = {}
    for i, row in zip(probe.tolist(), _words(keyed, probe, count + 13)):
        met, adjacent, last = _ziggurat_walk(kind, row, count)
        for name, has in (
            ("last", last), ("adjacent", adjacent), ("accept", "accept" in met),
            ("reject", "reject" in met), ("tail", "tail" in met),
            ("several", len(met) == 2 and "tail" not in met),
        ):
            if has:
                wanted.setdefault(name, i)
    assert len(wanted) == 6, wanted
    return wanted


def _check_crafted_rows(monkeypatch, kind, keyed, slack):
    monkeypatch.setattr(rng_module, "FEW_ROWS", 0)  # the array path, for 26 rows
    crafted = _crafted_rows(kind, keyed, 41)
    if slack is not None:  # every rejection runs past the drawn words
        monkeypatch.setattr(
            rng_module, "_slack", lambda counts: np.where(counts > 0, counts + slack, 0)
        )
    rows = np.array(sorted(set(crafted.values())) + list(range(20)))
    counts = np.full(len(rows), 41)
    counts[-3:] = [0, 1, 6]
    handed = _assert_draws_match(keyed, rows, counts, kind)
    assert crafted["tail"] in handed
    assert (crafted["several"] in handed) == (slack is not None)


@pytest.mark.parametrize("slack", [None, 0, 1])
def test_crafted_rejections_match_the_generator(monkeypatch, slack):
    _check_crafted_rows(monkeypatch, "standard_normal", KeyedStream(7, STREAM_WIENER), slack)


@pytest.mark.parametrize("slack", [None, 0, 1])
def test_crafted_exponential_rejections_match_the_generator(monkeypatch, slack):
    keyed = KeyedStream(20, STREAM_JUMP_TIMES)
    _check_crafted_rows(monkeypatch, "standard_exponential", keyed, slack)


def test_an_n40_chunk_hands_few_rows_to_the_generator(monkeypatch):
    monkeypatch.setattr(rng_module, "FEW_ROWS", 0)  # count the array path's hand-overs
    model = build_model("test5")
    wiener_calls = []
    at = KeyedStream.at

    def counted(self, i, w=0):
        if self.stream_id == STREAM_WIENER:
            wiener_calls.append(i)
        return at(self, i, w)

    monkeypatch.setattr(KeyedStream, "at", counted)
    ctl._setup_paths(
        model, uniform_mesh(model.horizon, 40), keyed_streams(SeedConfig()), 0, 16384,
        intensity_integral_for(model),
    )
    assert 0 < len(wiener_calls) <= 0.02 * 16384


def test_jump_time_draws_of_two_chunks_hand_few_rows_to_the_generator(monkeypatch):
    monkeypatch.setattr(rng_module, "FEW_ROWS", 0)  # count the array path's hand-overs
    model = build_model("test5")
    integral = intensity_integral_for(model)
    # six exponentials and their slack fill two Philox blocks at L(T) = ln 2
    count = jumps._exponential_count(integral.total)
    assert (count, rng_module._slack(np.array([count]))[0]) == (6, 8)
    handed = []
    at = KeyedStream.at

    def counted(self, i, w=0):
        if self.stream_id == STREAM_JUMP_TIMES:
            handed.append(i)
        return at(self, i, w)

    monkeypatch.setattr(KeyedStream, "at", counted)
    for start in (0, 16384):
        ctl._setup_paths(
            model, uniform_mesh(model.horizon, 5), keyed_streams(SeedConfig()), start, 16384,
            integral,
        )
    assert 0 < len(handed) < 0.01 * 2 * 16384


# ---------------------------------------------------------------------------
# few-row calls on numpy's generator, many-row calls on the array path


def _count_passes(monkeypatch):
    """(rows, Philox passes) of every ``draws`` call from now on."""
    calls, passes = [], []
    philox, draws = rng_module.philox_words, KeyedStream.draws
    monkeypatch.setattr(rng_module, "philox_words", lambda *a: passes.append(a) or philox(*a))

    def counted(self, kind, realizations, counts):
        before = len(passes)
        values = draws(self, kind, realizations, counts)
        calls.append((len(counts), len(passes) - before))
        return values

    monkeypatch.setattr(KeyedStream, "draws", counted)
    return calls


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
def test_few_row_and_array_routes_match_the_generator(monkeypatch, kind):
    seed = 2**64 - 5
    keyed = KeyedStream(seed, STREAM_JUMP_TIMES)
    # ziggurat rows with a tail draw, wedge accepts and rejects, ...
    crafted = [] if kind == "random" else sorted(set(_crafted_rows(kind, keyed, 41).values()))
    calls = _count_passes(monkeypatch)
    for n in (rng_module.FEW_ROWS, rng_module.FEW_ROWS + 1):
        rows = np.array(crafted + list(range(5000, 5000 + n - len(crafted))))
        counts = np.resize([41] * len(crafted) + [0, 1, 6, 41], n)
        values = keyed.draws(kind, rows, counts)
        expected = [
            getattr(stream(seed, i, STREAM_JUMP_TIMES), kind)(c)
            for i, c in zip(rows.tolist(), counts.tolist())
        ]
        np.testing.assert_array_equal(values, np.concatenate(expected))
    (few, few_passes), (many, many_passes) = calls
    assert few == rng_module.FEW_ROWS and few_passes == 0
    assert many == rng_module.FEW_ROWS + 1 and many_passes == 1


@pytest.mark.parametrize("bad, count", [(-1, 3), (1 << 60, 0)])
def test_both_draws_routes_reject_a_realization_out_of_range(bad, count):
    keyed = KeyedStream(7, STREAM_WIENER)
    messages = []
    for n in (rng_module.FEW_ROWS, rng_module.FEW_ROWS + 1):
        rows, counts = np.arange(n), np.full(n, 2)
        rows[n // 2], counts[n // 2] = bad, count
        with pytest.raises(ParameterError, match="realization index out of range") as exc:
            keyed.draws("standard_normal", rows, counts)
        messages.append(str(exc.value))
    assert messages == [f"realization index out of range: {bad}"] * 2


def test_few_row_draws_make_no_philox_pass(monkeypatch):
    # the per-call cost of a Philox pass is what the few-row route saves:
    # guard that the small calls of algorithm_s (bridge top-ups, refined
    # pieces) stay off the array path, and that large set-up calls stay on it
    calls = _count_passes(monkeypatch)
    ctl.algorithm_s(build_model("test5"), 0.3)
    few = [passes for rows, passes in calls if rows <= rng_module.FEW_ROWS]
    assert few and not any(few), calls
    calls.clear()
    model = build_model("test5")
    ctl._setup_paths(
        model, uniform_mesh(model.horizon, 40), keyed_streams(SeedConfig()), 0, 16384,
        intensity_integral_for(model),
    )
    many = [passes for rows, passes in calls if rows > rng_module.FEW_ROWS]
    assert many and all(many), calls


def _calls_with_a_word_offset(tree):
    """Lines of the ``.at(...)`` calls in ``tree`` that pass more than a
    realization (numpy's ``np.<ufunc>.at`` aside)."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"
        ):
            continue
        owner = node.func.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "np":
            continue
        if len(node.args) + len(node.keywords) > 1:
            lines.append(node.lineno)
    return lines


def test_only_rng_draws_at_a_word_offset():
    # a Philox word offset depends on the row's ziggurat rejections, so
    # only rng may set a generator to one
    package = Path(rng_module.__file__).parent
    found = {
        path.name: _calls_with_a_word_offset(ast.parse(path.read_text()))
        for path in sorted(package.glob("*.py"))
    }
    assert found.pop("rng.py")  # the check sees rng's own hand-over
    assert not any(found.values()), found


# ---------------------------------------------------------------------------
# slab passes, the signed-table fast path and input checks


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
def test_slab_passes_of_whole_and_partial_blocks_match_the_generator(monkeypatch, kind):
    # passes of four blocks; with one slack word, a ziggurat row of 3 mod 4
    # draws fills whole blocks and any other row ends inside one (uniforms
    # draw no slack: whole blocks at 0 mod 4)
    monkeypatch.setattr(rng_module, "SLAB_BLOCKS", 4)
    if kind != "random":
        monkeypatch.setattr(
            rng_module, "_slack", lambda counts: np.where(counts > 0, counts + 1, 0)
        )
    made = []
    philox = rng_module.philox_words
    monkeypatch.setattr(
        rng_module, "philox_words", lambda *a: made.append(philox(*a)) or made[-1]
    )
    passes = []  # (yields the pass's Philox words, every row is whole blocks)
    slabs = KeyedStream._slabs

    def spy(self, realizations, drawn):
        for lo, hi, wv in slabs(self, realizations, drawn):
            whole = bool((drawn[lo:hi] % 4 == 0).all())
            passes.append((wv.base is made[-1], whole))
            yield lo, hi, wv

    monkeypatch.setattr(KeyedStream, "_slabs", spy)
    seed = 2**64 - 7
    keyed = KeyedStream(seed, STREAM_MARKS)
    rng = np.random.default_rng(3)
    rows = np.concatenate([rng.integers(0, 1 << 60, 400), [0, (1 << 60) - 1]])
    counts = rng.choice([0, 1, 2, 3, 4, 5, 7, 8, 11, 15, 16, 23, 41], size=len(rows))
    values = keyed.draws(kind, rows, counts)
    assert [shared for shared, _ in passes] == [whole for _, whole in passes]
    assert any(whole for _, whole in passes) and not all(whole for _, whole in passes)
    expected = [
        getattr(stream(seed, i, STREAM_MARKS), kind)(n)
        for i, n in zip(rows.tolist(), counts.tolist())
    ]
    np.testing.assert_array_equal(values, np.concatenate(expected))


def _sign_bit_normal(words):
    """The normal fast path with numpy's sign bit read apart: bit 8 of the
    word picks ``-x`` or ``x``."""
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    r = words >> np.uint64(8)
    rabs = (r >> np.uint64(1)) & np.uint64(0x000FFFFFFFFFFFFF)
    x = rabs.astype(np.float64) * WI_DOUBLE[idx]
    return np.where((r & np.uint64(1)).astype(bool), -x, x), rabs < KI_DOUBLE[idx]


def test_signed_table_normal_fast_path_matches_the_sign_bit_formula():
    low = np.arange(512, dtype=np.uint64)  # every table index and sign
    rabs = np.array([0, 1, 2**52 - 1], dtype=np.uint64)
    crossed = (low[:, None] | (rabs[None, :] << np.uint64(9))).ravel()
    top = crossed | np.uint64(7 << 61)  # bits the fast path ignores
    random_words = np.random.default_rng(9).integers(0, 2**64, 10**5, dtype=np.uint64)
    words = np.concatenate([crossed, top, random_words])
    want, want_ok = _sign_bit_normal(words)
    out = np.empty(len(words))
    for got, ok in (rng_module.standard_normal(words), rng_module.standard_normal(words, out)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(ok, want_ok)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
    negative_zero = (crossed >> np.uint64(9) == 0) & (crossed & np.uint64(0x100) != 0)
    assert negative_zero.sum() == 256 and np.signbit(out[:len(crossed)][negative_zero]).all()


@pytest.mark.parametrize(
    "kind, realizations, counts, message",
    [
        ("standard_normal", [1, 2], [3], r"of one length, got shapes \(2,\) and \(1,\)"),
        ("random", [4, 5, 6], [3, -2, 1], r"must be >= 0, got -2 \(realization 5\)"),
        ("normal", [1], [3], "unknown draw kind 'normal'"),
    ],
)
def test_draws_reject_bad_input(kind, realizations, counts, message):
    with pytest.raises(ParameterError, match=message):
        KeyedStream(7, STREAM_WIENER).draws(kind, realizations, counts)
