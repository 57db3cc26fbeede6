"""Spans and counters: the in-process tracer of a traced run.

A traced run wraps the package's public functions and methods at their
module or class attribute, so every call that looks the name up at call time
records one span: a name, a start, an end and the span that was open when it
began.  Spans live in flat arrays in memory and are written out once, when
the run ends.  Spans nest strictly (one call stack), so a span's direct
children never overlap, and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter

import numpy as np

from hostspeed import clock

NO_PARENT = -1


class Tracer:
    """In-memory span store plus named counters for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.child_s = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self.child_s.append(0.0)
        self._stack.append(idx)
        self.starts.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        end = self.ends[idx] = clock()
        self._stack.pop()
        parent = self.parents[idx]
        if parent != NO_PARENT:
            self.child_s[parent] += end - self.starts[idx]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(counters, args, kwargs, result)`` runs after a call that
        returned.  A call that raises counts under ``<name>.raised`` and the
        exception propagates unchanged.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        nid = self._name_id(name)
        counters = self.counters
        raised = f"{name}.raised"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                counters[raised] += 1
                raise
            finally:
                self._close(idx)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for nid, start, end, child in zip(self.name_ids, self.starts, self.ends, self.child_s):
            entry = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return out

    def save(self, path) -> None:
        """Write every span to one ``.npz`` file."""
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64))

