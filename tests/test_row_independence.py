"""Row independence of the batched path kernel (property tests).

A row's numbers must not depend on the rows it shares a kernel call
with: neither on rows of its own step count nor, in a ragged block, on
longer or shorter rows.  A ragged call also evaluates every callback at
real nodes only.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dataclasses import replace  # noqa: E402

from jumpmc import build_model, uniform_mesh  # noqa: E402
from jumpmc import controller as ctl  # noqa: E402
from jumpmc.errors import PathDivergenceError  # noqa: E402
from jumpmc.euler import concat_paths, euler_terminal, stack_paths  # noqa: E402
from jumpmc.jumps import column_grid  # noqa: E402
from jumpmc.model import as_vectorized  # noqa: E402
from rows_first_forward import setup_groups, with_jumps  # noqa: E402


@pytest.fixture(scope="module")
def group():
    """test5, the (grid, dw, index) of its realizations below 120 whose
    augmented grid has 6 steps, and each one's one-row kernel result."""
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    groups = setup_groups(m, det, 0, 120)
    rows, paths, collisions = next(g for g in groups if len(g[1].dw) == 6)
    rows = [
        (column_grid(paths, b, det, collisions[b]), paths.dw[:, b], i)
        for b, i in enumerate(rows.tolist())
    ]
    alone = [
        ctl._path_batch(m, stack_paths(m, [g], [w]), [i], True) for g, w, i in rows
    ]
    return m, rows, alone


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_rows_match_their_one_row_result(group, data):
    m, rows, alone = group
    picked = data.draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True), label="rows"
    )
    paths = stack_paths(m, [rows[r][0] for r in picked], [rows[r][1] for r in picked])
    payoff, rho = ctl._path_batch(m, paths, [rows[r][2] for r in picked], True)
    for b, r in enumerate(picked):
        alone_payoff, alone_rho = alone[r]
        assert payoff[b] == alone_payoff[0]
        np.testing.assert_array_equal(rho[b], alone_rho[0])


# ---------------------------------------------------------------------------
# ragged blocks: rows of different step counts in one kernel call


def one_row_pool(model, start, count):
    """Each realization in [start, start+count) of ``model`` as (steps,
    index, one-row PathBatch), on 5 uniform intervals.  Every fourth row
    also jumps at node 0 and every fourth, from the second, at its last
    node, with mark 0.7."""
    groups = setup_groups(model, uniform_mesh(1.0, 5), start, count)
    assert len(groups) > 2
    pool = []
    for rows, paths, _ in groups[::-1]:
        for b, row in enumerate(rows.tolist()):
            one = paths.take([b])
            edge = {0: 0, 1: len(one.dw)}.get(row % 4)
            if edge is not None:
                one = with_jumps(one, [0], [edge], 0.7)
            pool.append((int(one.n_steps[0]), start + row, one))
    return pool


def ragged_block(pool, picked):
    """One batch of the ``picked`` rows of ``pool``, joined longest first
    by ``concat_paths``, and their pool indices in that order."""
    ranked, paths = concat_paths([pool[i][2] for i in picked])
    return [picked[i] for i in ranked.tolist()], paths


@pytest.fixture(scope="module", params=["test5", "purejump"])
def ragged(request):
    """(model, pool, each pool row's one-row payoff, rho and X(T))."""
    m = as_vectorized(build_model(request.param))
    pool = one_row_pool(m, 0, 150)
    alone = []
    for _, index, one in pool:
        payoff, rho = ctl._path_batch(m, one, [index], True)
        alone.append((payoff[0], rho[0], euler_terminal(m, one, realizations=[index])[0]))
    return m, pool, alone


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ragged_rows_match_their_one_row_result(ragged, data):
    m, pool, alone = ragged
    picked = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12, unique=True),
        label="rows",
    )
    order, paths = ragged_block(pool, picked)
    realizations = [pool[i][1] for i in order]
    payoff, rho = ctl._path_batch(m, paths, realizations, True)
    terminal = euler_terminal(m, paths, realizations=realizations)
    assert rho.shape == (len(order), max(pool[i][0] for i in order))
    for b, i in enumerate(order):
        n = pool[i][0]
        want_payoff, want_rho, want_terminal = alone[i]
        assert payoff[b] == want_payoff
        assert rho[b, :n].tobytes() == want_rho.tobytes()
        assert not rho[b, n:].any()
        assert terminal[b].tobytes() == want_terminal.tobytes()


def diverging_model():
    """test5 whose drift blows up once x1 passes 0.3."""
    base = build_model("test5")
    return replace(
        base, drift=lambda t, x: np.where(x[..., :1] > 0.3, 1e300, base.drift(t, x))
    )


@pytest.fixture(scope="module")
def diverging():
    """(model, pool, each pool row's one-row (step, realization), None
    for a row that does not diverge)."""
    m = diverging_model()
    pool = one_row_pool(m, 1000, 120)
    alone = []
    for _, index, one in pool:
        try:
            euler_terminal(m, one, realizations=[index])
            alone.append(None)
        except PathDivergenceError as exc:
            alone.append((exc.step, exc.realization))
    assert sum(a is not None for a in alone) >= 3
    return m, pool, alone


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_ragged_block_raises_its_first_diverging_row(diverging, data):
    m, pool, alone = diverging
    failing = [i for i, a in enumerate(alone) if a is not None]
    picked = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=10, unique=True),
        label="rows",
    )
    picked = sorted(set(picked) | {data.draw(st.sampled_from(failing), label="failing")})
    order, paths = ragged_block(pool, picked)
    realizations = [pool[i][1] for i in order]
    # the earliest diverging step, and the first row in the block there
    step, b = min((alone[i][0], b) for b, i in enumerate(order) if alone[i] is not None)
    for run in (
        lambda: ctl._path_batch(m, paths, realizations, True),
        lambda: ctl._path_batch(m, paths, realizations, False),
        lambda: euler_terminal(m, paths, realizations=realizations),
    ):
        with pytest.raises(PathDivergenceError) as exc:
            run()
        assert (exc.value.step, exc.value.realization) == (step, realizations[b])
        assert alone[order[b]] == (step, realizations[b])


class CountedPoints:
    """A callback that counts the points it is evaluated at (its first
    argument holds one entry per point)."""

    def __init__(self, f, counts, name):
        self.f, self.counts, self.name = f, counts, name

    def __call__(self, *args):
        self.counts[self.name] = self.counts.get(self.name, 0) + len(args[0])
        return self.f(*args)


def test_a_ragged_call_evaluates_callbacks_at_real_nodes_only():
    base = as_vectorized(build_model("test5"))
    pool = one_row_pool(base, 0, 150)
    by_steps = {}
    for i, (n, _, _) in enumerate(pool):
        by_steps.setdefault(n, []).append(i)
    # a row of every step count and five more of the shortest
    picked = [rows[0] for rows in by_steps.values()] + by_steps[min(by_steps)][1:6]
    order, paths = ragged_block(pool, picked)
    assert len(set(paths.n_steps.tolist())) > 2
    counts = {}
    names = [
        "jump", "payoff", *ctl._SWEEP_CALLBACKS, *ctl._DENSITY_ONLY_CALLBACKS,
        "jump_x", "jump_xx", "jump_xxx", "payoff_x", "payoff_xx", "payoff_xxx",
    ]
    names = sorted({n for n in names if getattr(base, n) is not None})
    m = replace(base, **{n: CountedPoints(getattr(base, n), counts, n) for n in names})
    counts.clear()  # the model's own checks call some callbacks once
    ctl._path_batch(m, paths, [pool[i][1] for i in order], True)
    nodes = int(paths.n_steps.sum())
    jumps = int(paths.jump_flag.sum())
    rows = len(order)
    want = {name: nodes for name in names}
    want.update(drift=2 * nodes, diffusion=2 * nodes)  # forward Euler and the kernel
    want.update({name: jumps for name in ("jump", "jump_x", "jump_xx", "jump_xxx")})
    want.update({name: rows for name in ("payoff", "payoff_x", "payoff_xx", "payoff_xxx")})
    for name, support in base.derivative_support.items():
        if support == ():
            want.pop(name, None)
    assert counts == want
