"""Span tracing at the simulator's module boundaries.

The traced run replaces each public function with a wrapper on the module
(or class) attribute that callers look up, so `engine.run_timestep` calling
`transmit_current` goes through the wrapper the engine module holds. Every
call records one span: name, start, end and the span that was open when it
began. Spans stay in flat arrays in memory and are written out when the
tracer is closed; per-name totals are computed from them at the end.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans for wrapped functions and counts outcomes they observe."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr with a traced wrapper.

        observe(counts, args, kwargs, result) runs after each call and may add
        to the outcome counters.
        """
        original = getattr(owner, attr)
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._open)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it.
        """
        ids = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=dur - child_time, minlength=n)
        return {name: {"calls": int(calls[k]), "s": float(incl[k]),
                       "self_s": float(self_s[k])}
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as arrays: name ids, start, end, parent index."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32))
