"""In-memory span tracer that wraps the program's public functions from outside.

A span is (name, start, end, parent, value): `value` is a count taken from
the wrapped call's result (steps of a walk, seeds of a query). Spans live in
flat arrays so that a few hundred thousand walk spans stay small, and are
written out once, at the end, with `Tracer.save`. A layer's self time is its
span duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.value = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, value: int = 0):
        idx = self._open(name)
        self.value[idx] = value
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, count: Callable | None = None) -> None:
        """Replace owner.attr by a spanning wrapper; `count(result)` fills the span value."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        nid = self._name_id(name)
        stack, value, end, clock = self._stack, self.value, self.end, time.perf_counter_ns
        # Inlined _open/_close: a walk span costs about a microsecond this way.
        name_append, parent_append = self.name.append, self.parent.append
        value_append, end_append, start_append = value.append, end.append, self.start.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            value_append(0)
            end_append(0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                value[idx] = count(result)
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "value": np.array(self.value, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Read-side view of a tracer's spans with durations and self times in ns."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.value = a["name"], a["parent"], a["value"]
        self.start = a["start"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(self.dur))
        self.self_ns = self.dur - covered

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        m = self.name == self.names.index(name)
        if parent is not None:
            m &= self.parent >= 0
            if parent not in self.names:
                return m & False
            m[m] = self.name[self.parent[m]] == self.names.index(parent)
        return m

    def seconds(self, name: str, where: np.ndarray | None = None, parent: str | None = None,
                self_time: bool = False) -> float:
        """Total (or self) seconds of the spans called `name`, optionally within `where`."""
        m = self.mask(name, parent)
        if where is not None:
            m &= where
        return float((self.self_ns if self_time else self.dur)[m].sum()) / 1e9

    def breakdown(self, root: int) -> dict[str, float]:
        """Self seconds by span name inside root; root's own self time is 'other'."""
        inside = self.under(root)
        inside[root] = False
        out = {"total": float(self.dur[root]) / 1e9, "other": float(self.self_ns[root]) / 1e9}
        for nid in sorted(set(self.name[inside].tolist())):
            out[self.names[nid]] = float(self.self_ns[inside & (self.name == nid)].sum()) / 1e9
        return out

    def under(self, root: int) -> np.ndarray:
        """Mask of the span `root` and its descendants.

        Spans are stored in the order they opened on one thread, so the
        descendants are exactly the later spans that opened before root closed.
        """
        idx = np.arange(len(self.dur))
        return (idx >= root) & (self.start <= self.start[root] + self.dur[root])
