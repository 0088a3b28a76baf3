"""Counter-based stream layout: disjoint, reproducible, seed-validated."""

import numpy as np
import pytest

from jumpmc import ParameterError, SeedConfig, realization_streams, stream
from jumpmc.rng import (
    STREAM_JUMP_TIMES,
    STREAM_MARKS,
    STREAM_WIENER,
    KeyedStream,
    keyed_streams,
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
