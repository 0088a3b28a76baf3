"""Counter-based random streams, one triple per realization.

Every realization ``i`` owns three independent Philox streams (Wiener
increments, jump times, marks).  The stream key encodes the configured
seed, the realization index and the stream id, so path ``i`` draws the
same numbers no matter how realizations are batched or spread over
workers.  That property is what makes output byte-identical for any
worker count.  The engines draw through ``KeyedStream``, which serves a
whole stream family from one generator by re-keying it per realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

STREAM_WIENER = 0
STREAM_JUMP_TIMES = 1
STREAM_MARKS = 2

_STREAM_SHIFT = 60  # realization indices stay below 2**60


@dataclass(frozen=True)
class SeedConfig:
    """Seeds for the three per-realization stream families."""

    wiener: int = 7
    jump_times: int = 20
    marks: int = 101

    def __post_init__(self):
        for field in ("wiener", "jump_times", "marks"):
            value = getattr(self, field)
            if not 0 <= value < 2 ** 64:
                raise ParameterError(
                    f"seed '{field}' must be in [0, 2**64), got {value}"
                )


def _key_word(realization: int, stream_id: int) -> int:
    """Second Philox key word: realization index and stream id."""
    if realization < 0 or realization >= 1 << _STREAM_SHIFT:
        raise ParameterError(f"realization index out of range: {realization}")
    return int(realization) + ((stream_id + 1) << _STREAM_SHIFT)


def stream(seed: int, realization: int, stream_id: int) -> np.random.Generator:
    """Generator for one (seed, realization, stream) triple."""
    key = np.array([seed, _key_word(realization, stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _families(seeds: SeedConfig):
    """(seed, stream id) of the wiener, jump_times and marks families."""
    return (
        (seeds.wiener, STREAM_WIENER),
        (seeds.jump_times, STREAM_JUMP_TIMES),
        (seeds.marks, STREAM_MARKS),
    )


def realization_streams(seeds: SeedConfig, realization: int):
    """(wiener, jump_times, marks) generators for one realization."""
    return tuple(stream(seed, realization, sid) for seed, sid in _families(seeds))


class KeyedStream:
    """One generator that serves a stream family realization by realization.

    ``at(i)`` gives the generator the key of realization ``i`` and a zero
    counter, so it then draws exactly what ``stream(seed, i, stream_id)``
    draws: Philox is counter-based, its output a function of key and
    counter only.  A reset costs a fraction of a new generator.
    """

    def __init__(self, seed: int, stream_id: int):
        self.stream_id = stream_id
        # The state setter copies these arrays, so one dict serves every reset.
        self._state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, _key_word(0, stream_id)], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.generator = np.random.Generator(np.random.Philox(key=self._state["state"]["key"]))

    def at(self, realization: int) -> np.random.Generator:
        """The generator, set to the start of realization ``realization``'s stream."""
        self._state["state"]["key"][1] = _key_word(realization, self.stream_id)
        self.generator.bit_generator.state = self._state
        return self.generator


def keyed_streams(seeds: SeedConfig):
    """(wiener, jump_times, marks) keyed streams."""
    return tuple(KeyedStream(seed, sid) for seed, sid in _families(seeds))
