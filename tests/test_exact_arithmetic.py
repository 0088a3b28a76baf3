"""Property tests of the exact float splits and the batch-size rule."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import change_M  # noqa: E402
from jumpmc.controller import _partition_exact  # noqa: E402
from jumpmc.euler import bridge_split  # noqa: E402


def binades(lo, hi):
    """Positive floats m * 2^e with e in [lo, hi] and m in [1, 2)."""
    return st.builds(
        math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(lo, hi)
    )


@st.composite
def increments(draw):
    channels = draw(st.integers(1, 4))
    size = draw(st.lists(binades(-80, 12), min_size=channels, max_size=channels))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=channels, max_size=channels))
    return np.array(size) * np.array(signs)


@settings(max_examples=300, deadline=None)
@given(dt=binades(-80, 6), dw=increments(), seed=st.integers(0, 2**32 - 1))
@example(dt=2.0 ** -80, dw=np.array([1e3, -3.0 ** 20]), seed=0)  # tiny dt, large |dw|
@example(dt=64.0, dw=np.array([2.0 ** -80, -(2.0 ** -70)]), seed=1)  # the reverse
def test_bridge_split_halves_sum_back_to_dw(dt, dw, seed):
    first, second = bridge_split(dt, dw, np.random.default_rng(seed))
    assert np.all(np.isfinite(first)) and np.all(np.isfinite(second))
    assert (first + second).tobytes() == dw.tobytes()


@settings(max_examples=500, deadline=None)
@given(total=st.floats(0.0, exclude_min=True, allow_infinity=False))
@example(total=5e-324)
@example(total=1.7976931348623157e308)
@example(total=0.1)
def test_partition_exact_parts_sum_to_total(total):
    large, small = _partition_exact(total)
    assert large + small == total
    assert 0.0 <= small <= large


@settings(max_examples=500, deadline=None)
@given(
    m_in=st.integers(1, 2**60),
    s_in=st.one_of(st.just(0.0), binades(-60, 60)),
    tol_s=binades(-60, 4),
    mch=st.integers(2, 1000),
)
@example(m_in=2**49 - 1, s_in=1e30, tol_s=1.0, mch=2)  # cap just below 2^50
def test_change_M_is_a_capped_power_of_two(m_in, s_in, tol_s, mch):
    m = change_M(m_in, s_in, tol_s, mch=mch)
    assert m >= 2
    assert m & (m - 1) == 0
    assert m <= 2 * mch * m_in
