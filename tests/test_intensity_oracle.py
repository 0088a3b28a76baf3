"""The node table of a numeric integrated intensity against the scipy path
it replaced and against exact closed forms.

``jumps.IntensityIntegral`` without closed forms reads lam once at the
Gauss-Legendre nodes of its panels and answers ``values`` and
``inverses`` from that table.  ``scipy_intensity_oracle`` keeps the
scalar quadrature and ``brentq`` path it replaced; its tests skip
without scipy.  The bound: no jump time moves by more than MOVE = 1e-13
times the horizon, from the oracle or from the exact inverse (the
largest move seen is about 5e-15).  A closed L comes only with its
closed inverse, so the table is the one numeric path.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jumpmc import SeedConfig, build_model  # noqa: E402
from jumpmc.jumps import (  # noqa: E402
    IntensityIntegral,
    intensity_integral_for,
    sample_jump_chunk,
)
from jumpmc.rng import keyed_streams  # noqa: E402

MOVE = 1e-13  # largest move of a jump time, times the horizon


def scipy_path(intensity, horizon):
    from scipy_intensity_oracle import ScipyIntensityIntegral

    return ScipyIntensityIntegral(intensity, horizon)


def rational():
    """lam = 1/(1+t) on [0, 1]: L = log1p(t), L^-1 = expm1(s)."""
    return IntensityIntegral(lambda t: 1.0 / (1.0 + t), 1.0, bound=1.0)


class Exponential:
    """lam(t) = c e^(k t) on [0, horizon], with L and L^-1 exact."""

    def __init__(self, c, kt, horizon):
        self.c, self.k, self.horizon = c, kt / horizon, horizon

    def rate(self, t):
        return self.c * math.exp(self.k * t)

    def closed_form(self, t):
        return self.c * math.expm1(self.k * t) / self.k

    def inverse(self, s):
        return np.log1p(np.asarray(s) * self.k / self.c) / self.k

    def integral(self):
        bound = max(self.c, self.rate(self.horizon))
        return IntensityIntegral(self.rate, self.horizon, bound=bound)


def exponentials(growth):
    """The family with |k| horizon in (1e-3, ``growth``]."""
    return st.builds(
        Exponential,
        c=st.floats(0.1, 10.0),
        kt=st.floats(-growth, growth).filter(lambda kt: abs(kt) > 1e-3),
        horizon=st.floats(0.1, 4.0),
    )


def levels(integral, count=200, seed=0):
    return np.random.default_rng(seed).random(count) * integral.total


def test_the_table_matches_log1p_and_expm1():
    integral = rational()
    assert integral.total == pytest.approx(math.log(2.0), rel=1e-15)
    t = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(integral.values(t), np.log1p(t), rtol=0, atol=4e-16)
    s = levels(integral, 10_000)
    np.testing.assert_allclose(integral.inverses(s), np.expm1(s), rtol=0, atol=MOVE)


def test_the_table_matches_the_scipy_path():
    integral = rational()
    oracle = scipy_path(integral.intensity, 1.0)
    assert integral.total == pytest.approx(oracle.total, rel=1e-15)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(
        integral.values(t), [oracle.value(x) for x in t.tolist()], rtol=0, atol=4e-16
    )
    s = levels(integral)
    np.testing.assert_allclose(
        integral.inverses(s), [oracle.inverse(x) for x in s.tolist()], rtol=0, atol=MOVE
    )


def test_one_element_calls_are_the_array_calls():
    integral = rational()
    s = levels(integral, 20)
    assert [integral.inverse(x) for x in s.tolist()] == integral.inverses(s).tolist()
    assert [integral.value(x) for x in s.tolist()] == integral.values(s).tolist()
    assert integral.inverses(np.array([-1.0, 0.0, integral.total, 9.0])).tolist() == [
        0.0, 0.0, 1.0, 1.0
    ]


@settings(max_examples=40, deadline=None)
@given(model=exponentials(4.0))
def test_the_table_matches_exact_forms(model):
    integral = model.integral()
    total = model.closed_form(model.horizon)
    assert integral.total == pytest.approx(total, rel=1e-14)
    t = np.linspace(0.0, model.horizon, 65)
    exact = [model.closed_form(x) for x in t.tolist()]
    np.testing.assert_allclose(integral.values(t), exact, rtol=0, atol=1e-14 * total)
    s = levels(integral)
    moved = np.abs(integral.inverses(s) - model.inverse(s))
    assert moved.max() <= MOVE * model.horizon


@settings(max_examples=15, deadline=None)
@given(model=exponentials(4.0))
def test_the_table_matches_the_scipy_path_on_a_family(model):
    integral = model.integral()
    oracle = scipy_path(model.rate, model.horizon)
    assert integral.total == pytest.approx(oracle.total, rel=1e-14)
    s = levels(integral, 50)
    moved = np.abs(integral.inverses(s) - [oracle.inverse(x) for x in s.tolist()])
    assert moved.max() <= MOVE * model.horizon


def test_a_numeric_chunk_moves_no_jump_time_beyond_the_bound():
    # the same exponentials through the closed inverse and through the table
    closed = build_model("test5")
    numeric = replace(closed, intensity_integral=None, intensity_integral_inverse=None)
    runs = []
    for model in (closed, numeric):
        _, times_stream, marks_stream = keyed_streams(SeedConfig())
        runs.append(
            sample_jump_chunk(
                model, intensity_integral_for(model), times_stream, marks_stream, range(4096)
            )
        )
    (n_closed, t_closed, _), (n_numeric, t_numeric, _) = runs
    np.testing.assert_array_equal(n_numeric, n_closed)
    assert len(t_closed) > 2000
    np.testing.assert_allclose(t_numeric, t_closed, rtol=0, atol=MOVE * closed.horizon)
