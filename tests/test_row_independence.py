"""Row independence of the batched path kernel (property test)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import SeedConfig, build_model, uniform_mesh  # noqa: E402
from jumpmc import controller as ctl  # noqa: E402
from jumpmc.jumps import intensity_integral_for  # noqa: E402
from jumpmc.rng import keyed_streams  # noqa: E402


@pytest.fixture(scope="module")
def group():
    """test5, the (grid, dw, index) of its realizations below 120 whose
    augmented grid has 6 steps, and each one's one-row kernel result."""
    m = build_model("test5")
    det = uniform_mesh(1.0, 5)
    integral = intensity_integral_for(m)
    groups = ctl._setup_groups(m, det, keyed_streams(SeedConfig()), 0, 120, integral)
    group, paths = next((g, p) for g, p in groups if p.dt.shape[1] == 6)
    rows = [(group.grid(b), paths.dw[b], i) for b, i in enumerate(group.rows.tolist())]
    alone = [
        ctl._path_batch(m, ctl.stack_paths(m, [g], [w]), [i], True) for g, w, i in rows
    ]
    return m, rows, alone


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_rows_match_their_one_row_result(group, data):
    m, rows, alone = group
    picked = data.draw(
        st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True), label="rows"
    )
    paths = ctl.stack_paths(m, [rows[r][0] for r in picked], [rows[r][1] for r in picked])
    payoff, rho = ctl._path_batch(m, paths, [rows[r][2] for r in picked], True)
    for b, r in enumerate(picked):
        alone_payoff, alone_rho = alone[r]
        assert payoff[b] == alone_payoff[0]
        np.testing.assert_array_equal(rho[b], alone_rho[0])
