"""Spans and counts recorded from outside the program.

A :class:`Recorder` replaces a function where its caller looks it up
(a module global, a class attribute) with a wrapper that records one
span per call: name, start, end and the span open when it was called.
Spans live in compact arrays in memory until :meth:`Recorder.save`.
Nothing under ``src/`` is edited; :meth:`Recorder.restore` puts every
original object back.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped to record a span per call; ``count(*args)``, if
        given, is added to the counter of the same name."""
        kind = self._name_index(name)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            i = len(self.start)
            self.kind.append(kind)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            if count is not None:
                counts[name] += count(*args)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls, without a span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, wrapper_of) -> None:
        """Replace ``owner.attr`` by ``wrapper_of(original)`` if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the durations of its direct children)."""
        kind = np.array(self.kind, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - children
        k = len(self.names)
        calls = np.bincount(kind, minlength=k)
        incl = np.bincount(kind, weights=dur, minlength=k)
        excl = np.bincount(kind, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[j]), "s": float(incl[j]), "self_s": float(excl[j])}
            for j, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            kind=np.array(self.kind, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
