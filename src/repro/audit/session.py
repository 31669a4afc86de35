"""Audit sessions: the fine-grained auditing system ``AS`` of the paper.

An :class:`AuditSession` collects I/O events during one (or more) program
executions, indexes them per ``(pid, path)`` identity (Section IV-C), and
answers the questions Kondo asks:

* which byte ranges of a file were accessed (merged coverage),
* which d-dimensional indices those ranges correspond to, given a layout,
* whether any write occurred (which would break the read-only assumption).

Capture is batched: every call appends an ``(offset, size, op)`` block
descriptor to a preallocated per-thread numpy buffer
(:class:`~repro.audit.blockcapture.BlockRecorder`); a flush — on
buffer-full, query, or close — batch-inserts the descriptors into
per-identity :class:`~repro.audit.flatstore.FlatIntervalStore` indexes.
Every query is answered vectorized from those sorted runs.  The
per-event recorder over the paper's interval B-tree survives as the test
oracle (``tests/oracles/event_session.py``); the two answer every query
identically (property-tested).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.arraymodel.layout import (
    flatten_many,
    merge_ranges_arrays,
    sorted_unique,
    unflatten_many,
)
from repro.audit.blockcapture import DEFAULT_BUFFER_SIZE, BlockRecorder
from repro.audit.events import Event
from repro.audit.flatstore import FlatIntervalStore
from repro.errors import AuditError


class AuditSession:
    """Collects, indexes, and resolves fine-grained I/O events.

    The session is thread-safe: interposed file handles from concurrently
    running (simulated) processes may record into the same session.

    Args:
        block_buffer: per-thread descriptor buffer capacity; a full
            buffer flushes in line.
    """

    def __init__(self, block_buffer: int = DEFAULT_BUFFER_SIZE):
        self._lock = threading.Lock()
        self._closed = False
        self._recorder = BlockRecorder(lock=self._lock,
                                       buffer_size=block_buffer)

    # -- recording ----------------------------------------------------------

    def record_event(self, event: Event) -> None:
        """Record one audited event (Definition 4)."""
        self.record(event.path, event.c.value, event.l, event.sz,
                    pid=event.pid)

    def record(self, path: str, op: str, offset: int, size: int,
               pid: Optional[int] = None) -> None:
        """Recorder-callback form used by :class:`~repro.arraymodel.datafile.ArrayFile`."""
        if self._closed:
            raise AuditError("cannot record into a closed audit session")
        self._recorder.record(path, op, offset, size, pid=pid)

    @property
    def recorder(self) -> Callable[..., None]:
        """The block recorder's callback, skipping :meth:`record`'s hop.

        Attach to a data file as ``ArrayFile.open(path, recorder=session)``
        (or pass this callable explicitly).
        """
        return self._recorder.record

    # -- queries --------------------------------------------------------------

    @property
    def n_events(self) -> int:
        self._recorder.flush()
        return self._recorder.n_events

    @property
    def events(self) -> List[Event]:
        self._recorder.flush()
        with self._lock:
            return self._recorder.events()

    @property
    def had_writes(self) -> bool:
        """True if any write event was observed on an audited file."""
        self._recorder.flush()
        return self._recorder.had_writes

    def identities(self) -> List[Tuple[int, str]]:
        """All (pid, path) identities with recorded accesses."""
        self._recorder.flush()
        return sorted(self._recorder.stores)

    def _matching_stores(self, path: str,
                         pid: Optional[int]) -> List[FlatIntervalStore]:
        """Flushed per-identity stores of ``path`` (of one ``pid`` if given).

        Caller holds the session lock.  One step per identity, never per
        range: KND009 allow-lists this helper for exactly that reason.
        """
        stores = []
        for (epid, epath), store in self._recorder.stores.items():
            if epath == path and (pid is None or epid == pid):
                stores.append(store)
        return stores

    def _accessed_range_arrays(
        self, path: str, pid: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merged coverage as ``(starts, ends)`` int64 arrays.

        One vectorized coalesce over the concatenation of every matching
        identity's already-merged coverage — no Python-level range loop.
        """
        self._recorder.flush()
        with self._lock:
            parts = [store.merged_arrays()
                     for store in self._matching_stores(path, pid)]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return merge_ranges_arrays(np.concatenate([p[0] for p in parts]),
                                   np.concatenate([p[1] for p in parts]))

    def accessed_ranges(
        self, path: str, pid: Optional[int] = None
    ) -> List[Tuple[int, int]]:
        """Merged accessed byte ranges ``[start, end)`` for a file.

        With ``pid`` given, performs the per-process lookup of Section IV-C;
        otherwise merges across all processes that touched the file — this
        reproduces the paper's worked example where events from P1 and P2
        on one file merge into ``(0, 120)`` and ``(130, 150)``.
        """
        starts, ends = self._accessed_range_arrays(path, pid)
        return list(zip(starts.tolist(), ends.tolist()))

    def range_overlaps(self, path: str, start: int, end: int,
                       pid: Optional[int] = None) -> List[Tuple[int, int, str]]:
        """Raw interval-index overlap lookup for a byte range."""
        self._recorder.flush()
        with self._lock:
            hits = [store.overlapping(start, end)
                    for store in self._matching_stores(path, pid)]
        return sorted(hit for part in hits for hit in part)

    def accessed_indices(self, path: str, layout,
                         pid: Optional[int] = None) -> np.ndarray:
        """Translate a file's accessed byte ranges to array indices.

        Returns the unique ``(n, d)`` int64 array of indices whose storage
        overlaps any accessed range — the run's index subset ``I_v`` — in
        row-major (equivalently lexicographic) order.  Rows dedupe as flat
        keys through the sorted-set kernel.
        """
        starts, ends = self._accessed_range_arrays(path, pid)
        dims = layout.schema.dims
        idx = layout.indices_in_ranges(starts, ends - starts)
        return unflatten_many(sorted_unique(flatten_many(idx, dims)), dims)

    def accessed_nbytes(self, path: str) -> int:
        """Total distinct bytes of ``path`` accessed across all processes."""
        starts, ends = self._accessed_range_arrays(path)
        return int(np.sum(ends - starts))

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded state (reuse the session for another run).

        ``close()`` is terminal: resetting a closed session raises
        :class:`AuditError` instead of silently reviving it.
        """
        if self._closed:
            raise AuditError("cannot reset a closed audit session")
        self._recorder.reset()

    def close(self) -> None:
        """Flush any pending capture buffers and seal the session.

        Closing is idempotent and *terminal* — recorded state stays
        queryable, but further :meth:`record` / :meth:`reset` calls
        raise :class:`AuditError`.
        """
        self._recorder.close()
        with self._lock:
            self._closed = True
