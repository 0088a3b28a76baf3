"""Counter-based stream layout: disjoint, reproducible, seed-validated;
the keyed words against numpy's Philox, and the chunk-wide draws against
the row streams of ``keyed_oracle``."""

import ast
from dataclasses import replace
from pathlib import Path

import keyed_oracle as oracle
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
from jumpmc._ziggurat import KI_DOUBLE, WI_DOUBLE
from jumpmc.jumps import intensity_integral_for, sample_jumps, sample_marks
from jumpmc.model import MODELS, UniformMarks
from jumpmc.rng import (
    STREAM_JUMP_TIMES,
    STREAM_MARKS,
    STREAM_WIENER,
    KeyedStream,
    keyed_streams,
    realization_streams,
    stream,
)
from test_keyed_oracle import crafted, run_crafted


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
    # one KeyedStream serves every call: its state is set anew for each
    # slab, whatever the calls before it drew
    rng = np.random.default_rng(4)
    near_zero = rng.integers(0, 1000, size=4)
    near_top = (1 << 60) - 1 - rng.integers(0, 1000, size=4)
    for stream_id in (STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS):
        keyed = KeyedStream(2**64 - 5, stream_id)
        for index in [0, (1 << 60) - 1, *near_zero.tolist(), *near_top.tolist()]:
            keyed.draws("random", [index + 1 if index == 0 else index - 1], [3])
            got = KeyedStream(2**64 - 5, stream_id).draws("standard_normal", [index], [7])
            np.testing.assert_array_equal(keyed.draws("standard_normal", [index], [7]), got)
            np.testing.assert_array_equal(
                got, oracle.draws(2**64 - 5, stream_id, "standard_normal", [index], [7])
            )


def test_keyed_streams_follow_the_realization_layout():
    seeds = SeedConfig(wiener=3, jump_times=4, marks=5)
    for keyed, row in zip(keyed_streams(seeds), oracle.row_streams(seeds, 11)):
        np.testing.assert_array_equal(keyed.draws("standard_normal", [11], [6]), row.standard_normal(6))


# ---------------------------------------------------------------------------
# the keyed words against numpy's Philox


def block_words(keyed, realizations, blocks):
    """The words of block ``blocks[k]`` of ``realizations[k]`` (ascending)
    as the keyed stream's slabs make them, (len, 4)."""
    realizations, stop = np.asarray(realizations), np.asarray(blocks) + 1
    words = np.empty(4 * stop.sum(), dtype=np.uint64)
    for at, wv in keyed._slabs(realizations, stop):
        words[at:at + len(wv)] = wv
    return words.reshape(-1, 4)[np.cumsum(stop) - 1]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS])
def test_philox_words_match_random_raw(seed, stream_id):
    keyed = KeyedStream(seed, stream_id)
    key = np.array([seed, stream_id + 1], dtype=np.uint64)
    for index in (0, (1 << 60) - 1, 12345):
        words = block_words(keyed, [index] * 4, [0, 1, 2, 3])
        for block in range(4):
            counter = np.array([index, block, 0, 0], dtype=np.uint64)
            bits = np.random.Philox(key=key, counter=counter)
            np.testing.assert_array_equal(words[block], bits.random_raw(4))
    with pytest.raises(ParameterError):
        keyed.draws("random", [1 << 60], [1])


@pytest.mark.parametrize("stream_id", [STREAM_WIENER, STREAM_JUMP_TIMES, STREAM_MARKS])
def test_philox_words_match_numpy_philox_on_random_keys_and_counters(stream_id):
    rng = np.random.default_rng(11 + stream_id)
    for seed in [0, 2**64 - 1, *rng.integers(0, 2**64, 3, dtype=np.uint64).tolist()]:
        realizations = np.sort(rng.integers(0, 1 << 60, 64, dtype=np.int64))
        realizations[:8] = np.arange(8) * 40  # slabs over nearby realizations
        blocks = rng.integers(0, 64, 64, dtype=np.int64)
        blocks[:3] = [0, 1, 255]
        words = block_words(KeyedStream(seed, stream_id), realizations, blocks)
        key = np.array([seed, stream_id + 1], dtype=np.uint64)
        for r, block, got in zip(realizations.tolist(), blocks.tolist(), words):
            # numpy's Philox steps its counter before each block
            counter = np.array([r, block, 0, 0], dtype=np.uint64)
            np.testing.assert_array_equal(got, np.random.Philox(key=key, counter=counter).random_raw(4))


def assert_rows_match_the_oracle(keyed, kind, rows, counts, values, check):
    """Rows ``check`` of a ``draws`` call against the oracle."""
    at = np.cumsum(counts) - counts
    for k in check:
        want = oracle.draws(keyed.seed, keyed.stream_id, kind, rows[k:k + 1], counts[k:k + 1])
        np.testing.assert_array_equal(values[at[k]:at[k] + counts[k]], want)


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential"])
def test_draws_match_the_generator_on_a_million_values(kind):
    # the row streams of the oracle are the generators of the keyed layout
    count = 50
    keyed = KeyedStream(2**64 - 3, STREAM_WIENER)
    # rows whose fast path rejects at their first, middle and last draw
    probe = oracle.first_words(keyed.seed, keyed.stream_id, 5000, 20000, 52)
    fast, _ = oracle.fast_path(kind, probe[:, :count])
    first = np.where(fast.all(axis=1), count, np.argmin(fast, axis=1))
    built = [5000 + int(np.argmax(first == k)) for k in (0, count // 2, count - 1)]
    rows = np.concatenate([np.arange(20010), built, [(1 << 60) - 1]])
    counts = np.full(len(rows), count)
    counts[:7] = [0, 1, 2, 3, 4, 5, 9]
    values = keyed.draws(kind, rows, counts)
    assert values.size >= 10**6 and values.size == counts.sum()
    check = [*range(10), *range(20010, len(rows)), *range(10, 20010, 97)]
    assert_rows_match_the_oracle(keyed, kind, rows, counts, values, check)


def test_uniforms_match_generator_random(monkeypatch):
    keyed = KeyedStream(101, STREAM_MARKS)
    rows = np.arange(300, 600)
    blocks = []
    slabs = KeyedStream._slabs
    monkeypatch.setattr(
        KeyedStream, "_slabs", lambda self, r, s: blocks.append(s.sum()) or slabs(self, r, s)
    )
    values = keyed.draws("random", rows, rows % 11)
    assert blocks == [((rows % 11 + 3) // 4).sum()]  # never rejects, so no slack words
    want = oracle.draws(101, STREAM_MARKS, "random", rows, rows % 11)
    np.testing.assert_array_equal(values, want)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mark_quantile_matches_the_scalar_sampler(name):
    # the quantile of 200 jumps is that of each jump alone, and the one-row
    # sample_marks draws its uniforms from the generator in jump order
    model = build_model(name)
    quantile = model.mark_sampler.quantile
    times = np.random.default_rng(5).random(200)
    uniforms = stream(101, 3, STREAM_MARKS).random((200, 1))
    one_by_one = [quantile(times[k:k + 1], uniforms[k:k + 1])[0] for k in range(200)]
    np.testing.assert_array_equal(quantile(times, uniforms), one_by_one)
    scalar = stream(101, 3, STREAM_MARKS)
    drawn = [sample_marks(model, times[k:k + 1], scalar)[0] for k in range(200)]
    np.testing.assert_array_equal(drawn, one_by_one)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("wrapped", [False, True])
def test_jump_chunk_matches_one_row_sampling(monkeypatch, name, wrapped):
    model = build_model(name)
    if wrapped:
        # a model author's own quantile, a Python function around the
        # builtin one, takes the same one call per chunk
        quantile = model.mark_sampler.quantile
        model = replace(model, mark_sampler=UniformMarks(lambda t, u: quantile(t, u)))
    calls = []
    monkeypatch.setattr(
        jumps, "sample_marks", lambda *a: calls.append(1) or sample_marks(*a)
    )
    integral = intensity_integral_for(model)
    seeds = SeedConfig(wiener=1, jump_times=2, marks=3)
    _, times_stream, marks_stream = keyed_streams(seeds)
    rows = range(2000, 2400)
    n_jumps, times, marks = jumps.sample_jump_chunk(
        model, integral, times_stream, marks_stream, rows
    )
    assert not calls
    at = 0
    for i, n in zip(rows, n_jumps.tolist()):
        _, t_rng, z_rng = oracle.row_streams(seeds, i)
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
        one = sample_jumps(model, integral, *oracle.row_streams(seeds, i)[1:])
        np.testing.assert_array_equal(times[at:at + n], one.times)
        np.testing.assert_array_equal(marks[at:at + n], one.marks)
        at += n


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
        model, intensity_integral_for(model), times_stream, marks_stream, range(1002, 1052)
    )
    first = 1002 + int(np.argmax(n_jumps > 0))
    assert first > 1002  # realization 1002 does not jump, so the chunk start is not named
    shaped = replace(model, mark_sampler=UniformMarks(lambda t, u: np.zeros((len(t), 3))))
    det = uniform_mesh(1.0, 5)
    with pytest.raises(EvaluationError) as exc:
        if engine == "mesh":
            monkeypatch.setattr(ctl, "MESH_CHUNK", chunk)
            run_mesh_batch(shaped, det, SeedConfig(), 1002, 50, workers=workers)
        else:
            monkeypatch.setattr(ctl, "STOCH_CHUNK", chunk)
            kw = dict(tol=0.1, tol_t=0.1 / 3.0, n_a_bar=5.0, workers=workers)
            run_stochastic_batch(shaped, det, SeedConfig(), 1002, 50, **kw)
    assert type(exc.value) is EvaluationError
    assert exc.value.realization == first
    assert str(exc.value).endswith(f"(realization {first})")


# ---------------------------------------------------------------------------
# ziggurat rejections resolved in arrays, against the oracle


def test_normal_draws_match_the_generator_from_any_start():
    # a row read from normal ``start`` on (as the bridge refinement reads
    # from a row's position) is the tail of its first start + count normals
    rng = np.random.default_rng(8)
    keyed = KeyedStream(2**64 - 11, STREAM_WIENER)
    rows = np.concatenate([np.arange(31000), [(1 << 60) - 1]])
    counts = rng.choice([0, 1, 6, 41], p=[0.05, 0.05, 0.1, 0.8], size=len(rows))
    starts = rng.integers(0, 8, size=len(rows))
    assert counts.sum() >= 10**6 and set(starts.tolist()) == set(range(8))
    values = keyed.draws("standard_normal", rows, starts + counts)
    check = [*range(0, 31000, 113), len(rows) - 1]
    assert_rows_match_the_oracle(keyed, "standard_normal", rows, starts + counts, values, check)


@pytest.mark.parametrize("slack", [None, 0, 1])
def test_crafted_rejections_match_the_generator(monkeypatch, slack):
    # tail draws, wedge accepts and rejects, adjacent rejected words, and
    # with little slack words that run out (test_keyed_oracle.crafted)
    run_crafted(monkeypatch, "standard_normal", slack)


@pytest.mark.parametrize("slack", [None, 0, 1])
def test_crafted_exponential_rejections_match_the_generator(monkeypatch, slack):
    run_crafted(monkeypatch, "standard_exponential", slack)


def spy_redo(monkeypatch, stream_id):
    """The rows drawn again and the tail draws read in place by each
    ``_wedges`` call of the ``stream_id`` family from now on."""
    seen = {"redo": 0, "tails": 0}
    wedges, draws = rng_module._wedges, KeyedStream.draws
    family = []

    def spy(*args):
        events, tails, redo = wedges(*args)
        if family[-1] == stream_id:
            seen["redo"] += len(redo)
            seen["tails"] += len(tails[0])
        return events, tails, redo

    def counted(self, *args):
        family.append(self.stream_id)
        return draws(self, *args)

    monkeypatch.setattr(rng_module, "_wedges", spy)
    monkeypatch.setattr(KeyedStream, "draws", counted)
    return seen


def test_an_n40_chunk_draws_few_rows_again(monkeypatch):
    model = build_model("test5")
    seen = spy_redo(monkeypatch, STREAM_WIENER)
    ctl._setup_paths(
        model, uniform_mesh(model.horizon, 40), keyed_streams(SeedConfig()), 0, 16384,
        intensity_integral_for(model),
    )
    # a tail draw every 4,000 normals or so, read from the row's words
    assert seen["tails"] > 50 and seen["redo"] <= 0.002 * 16384


def test_jump_time_draws_of_two_chunks_draw_few_rows_again(monkeypatch):
    model = build_model("test5")
    integral = intensity_integral_for(model)
    # five exponentials and their slack fill two Philox blocks at L(T) = ln 2
    count = jumps._exponential_count(integral.total)
    assert (count, rng_module._slack(np.array([count]))[0]) == (5, 8)
    seen = spy_redo(monkeypatch, STREAM_JUMP_TIMES)
    for start in (0, 16384):
        ctl._setup_paths(
            model, uniform_mesh(model.horizon, 5), keyed_streams(SeedConfig()), start, 16384,
            integral,
        )
    assert seen["tails"] > 0 and seen["redo"] < 0.01 * 2 * 16384


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
def test_calls_of_any_row_count_match_the_oracle(monkeypatch, kind):
    seed = 2**64 - 5
    keyed = KeyedStream(seed, STREAM_JUMP_TIMES)
    special = [] if kind == "random" else sorted(crafted(kind).values())
    for n in (1, 2, 3, 128, 129):
        rows = np.array([r for r, _ in special] + list(range(5000, 5000 + n)))[:n]
        counts = np.resize([c for _, c in special] + [0, 1, 6, 41], n)
        values = keyed.draws(kind, rows, counts)
        np.testing.assert_array_equal(values, oracle.draws(seed, STREAM_JUMP_TIMES, kind, rows, counts))


@pytest.mark.parametrize("bad, count", [(-1, 3), (1 << 60, 0)])
def test_draws_reject_a_realization_out_of_range(bad, count):
    keyed = KeyedStream(7, STREAM_WIENER)
    for n in (1, 129):
        rows, counts = np.arange(n), np.full(n, 2)
        rows[n // 2], counts[n // 2] = bad, count
        with pytest.raises(ParameterError, match="realization index out of range") as exc:
            keyed.draws("standard_normal", rows, counts)
        assert str(exc.value) == f"realization index out of range: {bad}"


@pytest.mark.parametrize("bad", [1 << 60, 1 << 63, 1 << 64, -1, np.uint64(1 << 63)])
def test_realizations_beyond_int64_are_out_of_range(bad):
    # checked in Python integers or in their own unsigned dtype, so an
    # index int64 cannot hold raises ParameterError with its true value,
    # as one in [2**60, 2**63) does, not OverflowError
    message = f"realization index out of range: {int(bad)}"
    calls = [[5, bad], np.array([5, bad], dtype=np.uint64)] if 0 <= bad < 1 << 64 else [[5, bad]]
    for realizations in calls:
        with pytest.raises(ParameterError) as exc:
            KeyedStream(7, STREAM_WIENER).draws("random", realizations, [1, 1])
        assert str(exc.value) == message
    with pytest.raises(ParameterError) as exc:
        stream(7, bad, STREAM_WIENER)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [1.9, 2.0, True])
def test_stream_rejects_a_realization_that_is_not_an_integer(bad):
    # int() would truncate 1.9 to realization 1's stream
    with pytest.raises(ParameterError, match=f"realization index must be an integer, got {bad!r}"):
        stream(7, bad, STREAM_WIENER)


@pytest.mark.parametrize(
    "start, count, bad",
    [
        ((1 << 60) - 1, 2, 1 << 60),
        (1 << 60, 2, 1 << 60),
        (1 << 63, 2, 1 << 63),
        (0, 1 << 64, 1 << 60),
    ],
)
def test_a_batch_past_the_last_realization_is_out_of_range(start, count, bad):
    # checked before any row is drawn, so no large count is run
    det = uniform_mesh(1.0, 5)
    with pytest.raises(ParameterError) as exc:
        run_mesh_batch(build_model("test5"), det, SeedConfig(), start, count)
    assert str(exc.value) == f"realization index out of range: {bad}"
    with pytest.raises(ParameterError, match="realization index out of range"):
        run_stochastic_batch(
            build_model("test5"), det, SeedConfig(), start, count, tol=0.04, tol_t=0.02,
            n_a_bar=5.0,
        )


def test_only_rng_draws_at_a_word_offset():
    # a row's word offset depends on its ziggurat rejections, so only rng
    # sets a Philox counter: no other module builds a bit generator, reads
    # raw words or touches a keyed stream's state
    package = Path(rng_module.__file__).parent
    private = {"Philox", "random_raw", "_counter", "_state", "_bits", "_slabs", "_values"}
    found = {
        path.name: sorted(
            {node.attr for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)} & private
        )
        for path in sorted(package.glob("*.py"))
    }
    assert found.pop("rng.py")  # the check sees rng's own
    assert not any(found.values()), found


# ---------------------------------------------------------------------------
# slabs, the signed-table fast path and input checks


@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
def test_slab_passes_of_whole_and_partial_blocks_match_the_generator(monkeypatch, kind):
    # passes of four blocks: a slab of consecutive distinct realizations
    # writes Philox's words as they come; any other slab takes each row's
    # block from them
    monkeypatch.setattr(rng_module, "SLAB_BLOCKS", 4)
    if kind != "random":
        monkeypatch.setattr(rng_module, "_slack", lambda counts: (counts + 1) * (counts > 0))
    passes = []  # whether the slab's realizations are consecutive and distinct
    slab = KeyedStream._slab

    def spy(self, words, at, realizations, stop):
        first = realizations[0]
        passes.append(np.array_equal(realizations, first + np.arange(len(realizations))))
        return slab(self, words, at, realizations, stop)

    monkeypatch.setattr(KeyedStream, "_slab", spy)
    seed = 2**64 - 7
    keyed = KeyedStream(seed, STREAM_MARKS)
    rng = np.random.default_rng(3)
    rows = np.concatenate([
        rng.integers(0, 1 << 60, 200), np.arange(100, 300), np.arange(9000, 9200), [0, (1 << 60) - 1],
        np.arange(20000, 20600, 3), [30000, 30000, 30001],
    ])
    counts = rng.choice([0, 1, 2, 3, 4, 5, 7, 8, 11, 15, 16, 23, 41], size=len(rows))
    counts[400:600] = rng.choice([0, 1, 2, 3, 4, 5, 7], size=200)  # slabs of two to four rows
    values = keyed.draws(kind, rows, counts)
    assert any(passes) and not all(passes)
    want = oracle.draws(seed, STREAM_MARKS, kind, rows, counts)
    np.testing.assert_array_equal(values, want)



@pytest.mark.parametrize("kind", ["standard_normal", "standard_exponential", "random"])
@pytest.mark.parametrize("rows", [[0, 0, 2], [0, 0, 1, 3], [4, 2, 2, 3]])
def test_repeated_realizations_of_one_span_take_their_own_blocks(kind, rows):
    # as many rows as the slab spans, of one block count, yet not one row
    # per realization: each row still reads its own realization's blocks
    values = KeyedStream(9, STREAM_WIENER).draws(kind, rows, [10] * len(rows))
    want = oracle.draws(9, STREAM_WIENER, kind, rows, [10] * len(rows))
    np.testing.assert_array_equal(values, want)

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
        # not truncated to realization 1, or to a count of 1
        ("random", [1.5], [1], "realization index must be an integer, got 1.5"),
        ("random", np.array([0.0, 2.0]), [1, 1], "realization index must be an integer, got 0.0"),
        ("random", [True], [1], "realization index must be an integer, got True"),
        ("random", [1], [1.5], "draw count must be an integer, got 1.5"),
        ("standard_normal", [1, 2], np.array([3.0, 1.0]), "draw count must be an integer, got 3.0"),
        # checked before the int64 cast: not wrapped, and no raw OverflowError
        (
            "random", [1, 2], np.array([0, 2**63], dtype=np.uint64),
            r"must be < 2\*\*63, got 9223372036854775808 \(realization 2\)",
        ),
        ("random", [1], [2**64], r"must be < 2\*\*63, got 18446744073709551616 \(realization 1\)"),
        ("random", [1, 3], [2**64, -1], r"must be < 2\*\*63, got 18446744073709551616 \(realization 1\)"),
    ],
)
def test_draws_reject_bad_input(kind, realizations, counts, message):
    with pytest.raises(ParameterError, match=message):
        KeyedStream(7, STREAM_WIENER).draws(kind, realizations, counts)
