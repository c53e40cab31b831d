"""Spans recorded from outside the program, around calls into ppbench.

A Tracer rebinds a module attribute that ppbench looks a function up
through (for example ``ppbench.benchmark.sample``) to a wrapper that records
one span per call: id, name, parent span, start, end and thread. Nothing in
``src/`` changes; restore() puts the original functions back.

Spans live in per-thread arrays while the pass runs and are summarised (and
optionally written out) when it ends. Self time is a span's duration minus
the union of its children's intervals. A root span opened in a pool thread
has no parent in its own thread; it is attributed by time overlap to the
innermost main-thread span that was open when it started.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import itertools
import threading
from array import array
from time import perf_counter


class _Buffer:
    """Spans closed by one thread, in closing order."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        try:
            return local.buf, local.stack
        except AttributeError:
            local.buf = _Buffer(threading.get_ident())
            local.stack = []
            with self._lock:
                self._buffers.append(local.buf)
            return local.buf, local.stack

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        ids = self._ids
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, stack = state()
            span = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.ids.append(span)
                buf.names.append(name_id)
                buf.parents.append(parent)
                buf.starts.append(t0)
                buf.ends.append(t1)

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        """Route calls through module.attr into a span called name.

        One function bound in several modules gets one shared wrapper, so
        its spans carry one name whichever module the caller went through.
        """
        original = getattr(module, attr)
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = self._wrap(name, original)
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def spans(self) -> list[tuple[int, str, int, float, float, int]]:
        """Every closed span as (id, name, parent, start, end, thread), by id."""
        out = []
        for buf in self._buffers:
            for k in range(len(buf.ids)):
                out.append(
                    (
                        buf.ids[k],
                        self.names[buf.names[k]],
                        buf.parents[k],
                        buf.starts[k],
                        buf.ends[k],
                        buf.thread,
                    )
                )
        out.sort()
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines with a header.

        Times are integer nanoseconds from the first span's start.
        """
        spans = self.spans()
        t0 = min((s[3] for s in spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart_ns\tend_ns\tthread\n")
            for span, name, parent, start, end, thread in spans:
                fh.write(
                    "%d\t%s\t%d\t%d\t%d\t%d\n"
                    % (span, name, parent, (start - t0) * 1e9, (end - t0) * 1e9, thread)
                )


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, main_thread: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Pool-thread roots are re-parented by time overlap before self time is
    taken, so a span that waits on a pool counts the pool's work as its
    children's, not its own.
    """
    main = {s[0]: s for s in spans if s[5] == main_thread}
    by_start = sorted((s[3], s[0]) for s in main.values())
    starts = [t for t, _ in by_start]
    children: dict[int, list[tuple[float, float]]] = {}
    for _span, _name, parent, start, end, thread in spans:
        if parent < 0 and thread != main_thread:
            parent = _enclosing(main, by_start, starts, start)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))

    out: dict[str, dict[str, float]] = {}
    for span, name, _parent, start, end, _thread in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        busy = 0.0
        if span in children:
            busy = _union_length(
                [(max(lo, start), min(hi, end)) for lo, hi in children[span]
                 if hi > start and lo < end]
            )
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - busy
    return out


def _enclosing(main, by_start, starts, t: float) -> int:
    # main-thread spans nest, so walk up from the latest one started before t
    k = bisect.bisect_right(starts, t) - 1
    if k < 0:
        return -1
    span = main[by_start[k][1]]
    while span[4] < t:
        if span[2] < 0:
            return -1
        span = main[span[2]]
    return span[0]
