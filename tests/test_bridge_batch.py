"""The batched bridge refinement against the one-row refinement.

``euler.bridge_refine_batch`` refines many rows of a ``PathBatch`` at
once, drawing every row's bridge normals from its Wiener stream at a
position counted in normals; each row must come out bit for bit as
``brownian_bridge_refine`` refines it with the generator after that many
normals, and end at the position after the normals it drew.  The rows
of one batch may have different step counts.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import SeedConfig, build_model, uniform_mesh  # noqa: E402
from jumpmc.euler import (  # noqa: E402
    _BridgeNormals,
    bridge_refine_batch,
    brownian_bridge_refine,
    concat_paths,
    stack_paths,
)
from jumpmc.jumps import column_grid  # noqa: E402
from jumpmc.model import as_vectorized  # noqa: E402
from jumpmc.rng import keyed_streams, philox_words, standard_normal  # noqa: E402
from rows_first_forward import setup_groups, to_node_major, to_rows_first  # noqa: E402

REJECTING, REDRAWING = 0, 1  # the block's crafted rows


def fast_path(wiener, realization, words):
    """Whether the ziggurat's fast path accepts each of the first
    ``words`` words (a multiple of 4) of ``realization``'s Wiener stream:
    up to the first rejection, word ``k`` is normal ``k``."""
    blocks = np.arange(words // 4)
    w = philox_words(wiener.seed, wiener.stream_id, np.full(len(blocks), realization), blocks)
    return standard_normal(w.ravel())[1]


@pytest.fixture(scope="module", params=["w1", "w2", "ragged"])
def block(request):
    """test5's rows below 200 as (model, grids, paths, realizations,
    positions, wiener): for "w1" and "w2" its largest step-count group,
    with its Wiener increments widened to two channels for "w2" (test5
    has one); for "ragged" every group in one batch, longest rows first.
    A row's position is the set-up's normals, its step count.

    Row REJECTING starts at its first normal that the ziggurat's fast
    path rejects, so its first bridge draw is resolved past the fast
    path.  Row REDRAWING has a 1e-20 increment on step 2, which no bridge
    perturbation of a 0.2 step can split exactly, so splitting that step
    runs through every redraw round of ``bridge_split``.
    """
    m = as_vectorized(build_model("test5"))
    det = uniform_mesh(1.0, 5)
    streams = keyed_streams(SeedConfig())
    groups = setup_groups(m, det, 0, 200)  # longest first
    if request.param == "ragged":
        assert len(groups) > 2
    else:
        groups = [max(groups, key=lambda g: len(g[0]))]
    grids = [
        column_grid(paths, b, det, collisions[b])
        for _, paths, collisions in groups for b in range(len(paths.n_steps))
    ]
    realizations = np.concatenate([rows for rows, _, _ in groups]).astype(np.int64)
    paths = concat_paths([paths for _, paths, _ in groups])[1]
    positions = paths.n_steps * m.wiener_dim
    wiener = streams[0]
    ok = fast_path(wiener, realizations[REJECTING], 400)
    assert not ok.all()
    positions[REJECTING] = np.argmin(ok)
    first = to_rows_first(paths)
    if request.param == "w2":
        extra = np.random.default_rng(5).standard_normal(first.dt.shape + (1,))
        dw = np.concatenate([first.dw, extra * np.sqrt(first.dt)[..., None]], axis=2)
        first = replace(first, dw=dw)
    first.dw[REDRAWING, 2] = 1e-20
    return m, grids, to_node_major(first), realizations, positions, wiener


class CountedNormals:
    """A generator that counts the normals drawn from it."""

    def __init__(self, generator, drawn):
        self.generator, self.drawn = generator, drawn

    def standard_normal(self, shape):
        values = self.generator.standard_normal(shape)
        self.drawn += values.size
        return values


def check_rows(block, rows, mask):
    """Refine ``rows`` of the block by ``mask`` in one batch and each row
    alone; return each row's position after its draws."""
    m, grids, paths, realizations, positions, wiener = block
    rows = np.asarray(rows)
    hit, refined, ends = bridge_refine_batch(
        paths.take(rows), mask, wiener, realizations[rows], positions[rows]
    )
    assert hit.tolist() == np.flatnonzero(mask.any(axis=1)).tolist()
    got = {}
    if len(hit):
        assert len(refined.dw) == refined.n_steps.max()
        got = {b: refined.take([j]) for j, b in enumerate(hit.tolist())}
    for b, row in enumerate(rows.tolist()):
        n = paths.n_steps[row]
        assert not mask[b, n:].any()
        generator = wiener.at(realizations[row])
        generator.standard_normal(positions[row])
        counted = CountedNormals(generator, positions[row])
        grid, dw = brownian_bridge_refine(grids[row], paths.dw[:n, row], mask[b, :n], counted)
        assert ends[b] == counted.drawn, b
        if b not in got:
            continue
        want = stack_paths(m, [grid], [dw])
        for name in ("times", "dw", "jump_flag", "marks", "n_steps"):
            np.testing.assert_array_equal(getattr(got[b], name), getattr(want, name), name)
    return ends


def own_steps(paths, rows):
    """The mask of each row's own steps, as wide as the longest row."""
    n_steps = paths.n_steps[np.asarray(rows)]
    return np.arange(n_steps.max()) < n_steps[:, None]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_refine_matches_one_row_refine(block, data):
    paths = block[2]
    n_steps, n_rows = paths.dw.shape[:2]
    rows = data.draw(
        st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=16, unique=True),
        label="rows",
    )
    mask = np.array(
        data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=n_steps, max_size=n_steps),
                min_size=len(rows), max_size=len(rows),
            ),
            label="mask",
        )
    )
    own = own_steps(paths, rows)
    check_rows(block, rows, mask[:, : own.shape[1]] & own)


def test_crafted_rows_take_both_fallbacks(block):
    _, _, paths, realizations, positions, wiener = block
    rows = [REJECTING, REDRAWING, 2, 3, len(paths.n_steps) - 1]
    ends = check_rows(block, rows, own_steps(paths, rows))
    ok = fast_path(wiener, realizations[REJECTING], 400)
    # the row's first bridge normal is its stream's first ziggurat rejection
    assert np.argmin(ok) == positions[REJECTING] and not ok[positions[REJECTING]]
    # the crafted step draws ten redraws on top of one draw per step
    n_steps = paths.n_steps[REDRAWING]
    assert ends[1] - positions[REDRAWING] >= paths.dw.shape[2] * (n_steps + 10)


def test_top_ups_draw_again_only_the_rows_that_ran_short(block, monkeypatch):
    """With one normal per split and channel drawn at first, a row runs
    short at its first redraw; each top-up draws those rows alone, and
    every row still comes out as the one-row refinement does."""
    m, grids, paths, realizations, positions, wiener = block
    dw = paths.dw.copy()
    dw[[0, 1, 3], 3] = 1e-20  # three more steps that draw every redraw
    block = (m, grids, replace(paths, dw=dw), realizations, positions, wiener)
    monkeypatch.setattr(_BridgeNormals, "allot", staticmethod(lambda counts: counts))
    calls = []
    draws = wiener.draws

    def spy(kind, rows, counts):
        calls.append(np.array(rows).tolist())
        return draws(kind, rows, counts)

    monkeypatch.setattr(wiener, "draws", spy)
    rows = np.arange(12)
    mask = own_steps(paths, rows)
    mask[6:, 1:] = False  # one split each: some of these draw no redraw
    used = check_rows(block, rows, mask) - positions[rows]
    (everyone, *top_ups) = calls
    assert everyone == realizations[rows].tolist()
    short = realizations[rows][used > dw.shape[2] * mask.sum(axis=1)].tolist()
    times = {r: sum(r in call for call in top_ups) for r in realizations[rows].tolist()}
    for call in top_ups:
        assert set(call) <= set(short) and len(set(call)) == len(call)
    assert all(times[r] > 0 for r in short)
    assert {0, 1, 2} <= set(times.values())
    assert times[realizations[3]] == 2
