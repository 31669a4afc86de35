"""Span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark: it replaces public
functions of the program's layers with wrappers that record a span per
call, and puts the originals back when the run ends.  The untraced run
never constructs one, so it installs nothing.

A span is ``(id, name, start, end, parent, run)``; ``parent`` is the
span open on the same thread when the call began, ``run`` groups the
spans of one program pass or one service job.  Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    #: tracemalloc peak above the allocation level at entry, in bytes
    #: (0 when the tracer does not track memory).
    peak_bytes: int = 0


class _Frame:
    __slots__ = ("span_id", "start_bytes", "abs_peak")

    def __init__(self, span_id: int, start_bytes: int):
        self.span_id = span_id
        self.start_bytes = start_bytes
        self.abs_peak = start_bytes


class Tracer:
    """Records spans and counters; owns every wrapper it installs.

    Args:
        memory: track the tracemalloc peak inside each span.  The peak
            counter is process-global, so only single-threaded runs
            should turn it on.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_run(self, run: str) -> None:
        """Label the spans this thread records from now on."""
        self._local.run = run

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1].span_id if stack else None
        start_bytes = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].abs_peak = max(stack[-1].abs_peak, peak)
            tracemalloc.reset_peak()
            start_bytes = current
        frame = _Frame(span_id, start_bytes)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            peak_bytes = 0
            if self.memory:
                frame.abs_peak = max(frame.abs_peak,
                                     tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1].abs_peak = max(stack[-1].abs_peak,
                                             frame.abs_peak)
                peak_bytes = frame.abs_peak - frame.start_bytes
            span = Span(span_id, name, start, end, parent,
                        getattr(self._local, "run", ""), peak_bytes)
            with self._lock:
                self.spans.append(span)

    # -- installing wrappers ---------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             counter: Optional[Callable] = None,
             spans: bool = True) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``counter(result)`` (optional) returns how much to add to the
        ``name`` counter after each call; ``spans=False`` only counts
        calls, for functions too hot to time one by one.  Class and
        static methods are rewrapped as such.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else \
            getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not spans:
                tracer.count(name)
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if counter is not None:
                tracer.count(name, counter(result))
            return result

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
        if self.memory:
            tracemalloc.stop()

    # -- reading ---------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the time its children cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def total(self, name: str) -> float:
        """Seconds inside ``name`` spans (no wrapped function recurses)."""
        return sum(self.durations(name))

    def self_total(self, name: str) -> float:
        selfs = self.self_times()
        return sum(selfs[s.id] for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def peak_mb(self, prefix: str) -> float:
        """Largest in-call allocation peak of any span in a layer."""
        peaks = [s.peak_bytes for s in self.spans
                 if s.name.startswith(prefix)]
        return max(peaks, default=0) / 2 ** 20

    def write(self, path: str) -> None:
        """Dump spans (with self time) and counters as JSON lines."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run,
                    "self_s": selfs[s.id], "peak_bytes": s.peak_bytes,
                }) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
