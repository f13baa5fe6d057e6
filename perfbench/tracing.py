"""Span tracer and function wrappers for the benchmark's traced runs.

The program under test is never edited: the traced run replaces the
public functions of each layer with thin wrappers (:class:`Patches`),
records one span per call in memory (:class:`Tracer`), and restores
every original object when the run ends.  Spans are written out only
after the run, so file I/O never lands inside a measured span.

A span is ``(name, start, end, parent, trace id)``.  Spans are
allocated when they open, so indices are in start order and a parent's
index is always lower than its children's; :func:`self_times` relies
on that order.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import weakref
from array import array
from pathlib import Path
from typing import Callable

__all__ = ["Patches", "Tracer", "self_times", "summarize"]

#: Parent index of a span that has no enclosing span.
ROOT = -1


class Tracer:
    """Spans of one thread of one process, kept in parallel arrays.

    Only the thread that created the tracer records.  A forked worker
    inherits the wrappers (and this object), but :attr:`active` is
    cleared in the child at fork, so workers run the wrapped functions
    without recording anything.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.traces = array("i")
        #: Stamped on every span opened from now on; the caller bumps
        #: it once per request (a replayed visit, a report pass).
        self.trace_id = 0
        self.thread = threading.get_ident()
        self.active = True
        self._stack = [ROOT]
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _deactivate(ref))

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        """The interned id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def recording(self) -> bool:
        """Whether a call on the current thread should record a span."""
        return self.active and threading.get_ident() == self.thread

    def enter(self, nid: int) -> int:
        """Open a span; returns its index for :meth:`exit`."""
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.traces.append(self.trace_id)
        self.ends.append(0.0)
        self._stack.append(index)
        # The clock is read last, so the bookkeeping above stays
        # outside the span it opens.
        self.starts.append(self.clock())
        return index

    def exit(self, index: int) -> None:
        """Close the span ``index`` (the innermost open span)."""
        self.ends[index] = self.clock()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, self.name_id(name))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped so every call records a span ``name``."""
        nid = self.name_id(name)
        # :meth:`enter` and :meth:`exit` inlined: this runs on every
        # wrapped call, and its cost is the tracing overhead.
        get_ident = threading.get_ident
        clock = self.clock
        stack = self._stack
        starts, ends = self.starts, self.ends
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_trace, add_start = self.traces.append, starts.append
        add_end = ends.append

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active or get_ident() != self.thread:
                return function(*args, **kwargs)
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_trace(self.trace_id)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def dump(self, path: Path) -> Path:
        """Write every span to ``path`` (numpy ``.npz``)."""
        import json

        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name_ids=np.asarray(self.name_ids, dtype=np.int32),
                 starts=np.asarray(self.starts, dtype=np.float64),
                 ends=np.asarray(self.ends, dtype=np.float64),
                 parents=np.asarray(self.parents, dtype=np.int32),
                 traces=np.asarray(self.traces, dtype=np.int32))
        return path


def _deactivate(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.active = False


class _Span:
    __slots__ = ("tracer", "nid", "index")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid
        self.index = ROOT

    def __enter__(self) -> "_Span":
        self.index = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.exit(self.index)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans must be in start order with every parent before its children
    (the order :class:`Tracer` allocates them in).  Children are
    clipped to their parent's interval and overlapping children are
    counted once, so the result is exact for any span tree.
    """
    count = len(starts)
    covered = [0.0] * count
    covered_until = [float("-inf")] * count
    for index in range(count):
        parent = parents[index]
        if parent == ROOT:
            continue
        begin = max(starts[index], starts[parent], covered_until[parent])
        end = min(ends[index], ends[parent])
        if end > begin:
            covered[parent] += end - begin
        if end > covered_until[parent]:
            covered_until[parent] = end
    return [ends[index] - starts[index] - covered[index]
            for index in range(count)]


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and ``total_s``."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls = [0] * len(tracer.names)
    self_sum = [0.0] * len(tracer.names)
    total_sum = [0.0] * len(tracer.names)
    starts, ends = tracer.starts, tracer.ends
    for index, nid in enumerate(tracer.name_ids):
        calls[nid] += 1
        self_sum[nid] += selfs[index]
        total_sum[nid] += ends[index] - starts[index]
    return {name: {"calls": calls[nid], "self_s": self_sum[nid],
                   "total_s": total_sum[nid]}
            for nid, name in enumerate(tracer.names)}


class Patches:
    """Replaces attributes of modules and classes, and restores them.

    Every replacement is recorded as ``(owner, attribute, original)``
    where ``original`` is the exact object found in the owner's
    ``__dict__``; :meth:`remove` puts each one back, so afterwards
    every patched attribute is the original object again (``is``).
    """

    def __init__(self) -> None:
        self.records: list[tuple[object, str, object]] = []
        self.removed: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str,
                make: Callable[[Callable], Callable]) -> Callable:
        """Set ``owner.attribute`` to ``make(original)``."""
        original = vars(owner)[attribute]
        replacement = make(original)
        self.records.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
        return replacement

    def replace_everywhere(self, function: Callable, modules,
                           make: Callable[[Callable], Callable]
                           ) -> Callable:
        """Replace ``function`` in every module namespace that holds it.

        Modules that imported the function by name hold their own
        reference, so patching only its defining module would miss
        their calls.
        """
        replacement = make(function)
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self.records.append((module, attribute, function))
                    setattr(module, attribute, replacement)
        return replacement

    def remove(self) -> None:
        """Restore every original, newest replacement first."""
        while self.records:
            owner, attribute, original = self.records.pop()
            setattr(owner, attribute, original)
            self.removed.append((owner, attribute, original))

    def all_restored(self) -> bool:
        """Whether every replaced attribute is its original again."""
        return not self.records and all(
            vars(owner).get(attribute) is original
            for owner, attribute, original in self.removed)
