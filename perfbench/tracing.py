"""In-memory span tracer that wraps functions from outside the package.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began.  Spans stay in memory until ``save``.
Self time is a span's duration minus the time its child spans cover, so
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []  # span name per name id
        self._name_ids = {}
        self.spans = []  # (name_id, parent_span_index, start, end)
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._stack = []  # open spans as [index, child_s, name_id, parent, start]
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0]
        return self._name_ids[name]

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)

        return traced

    def open(self, name):
        """Start a span; pass the result to ``close``."""
        nid = self._name_id(name)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0, nid, parent, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        index, child_s, nid, parent, start = frame
        self._stack.pop()
        duration = end - start
        self.spans[index] = (nid, parent, start, end)
        stat = self.stats[self.names[nid]]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def patch(self, owner, attr, name, fn=None):
        """Replace ``owner.attr`` by a traced ``fn`` until ``restore``.

        ``fn`` defaults to the current ``owner.attr``.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original if fn is None else fn))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save(self, path):
        """Write every span to an ``.npz`` file; row i is span i."""
        unfinished = (-1, -1, np.nan, np.nan)
        rows = np.array(
            [unfinished if s is None else s for s in self.spans], dtype=float
        ).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=rows[:, 0].astype(np.int32),
            parent=rows[:, 1].astype(np.int64),
            start=rows[:, 2],
            end=rows[:, 3],
        )
