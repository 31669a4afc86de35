"""The per-event audit session: one ``Event`` and one B-tree insert per call.

Reference for :class:`repro.audit.session.AuditSession`, which captures
block descriptors into flat interval stores and must answer every query
identically.  Coverage resolves per merged range with
``layout.indices_in_range`` and a row dedupe — the plain form of the
production session's batched resolution.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.audit.events import Event, EventType
from repro.errors import AuditError
from tests.oracles.interval_btree import IntervalBTree


class EventSession:
    """Same recording and query surface as ``AuditSession``."""

    def __init__(self, btree_degree: int = 16):
        self._btree_degree = btree_degree
        self._trees: Dict[Tuple[int, str], IntervalBTree] = {}
        self._events: List[Event] = []
        self._lock = threading.Lock()
        self._closed = False

    def record_event(self, event: Event) -> None:
        if self._closed:
            raise AuditError("cannot record into a closed audit session")
        with self._lock:
            self._events.append(event)
            if event.is_access and event.sz > 0:
                tree = self._trees.setdefault(
                    event.id, IntervalBTree(self._btree_degree))
                tree.insert(event.l, event.l + event.sz, event.c.value)

    def record(self, path: str, op: str, offset: int, size: int,
               pid: Optional[int] = None) -> None:
        self.record_event(Event(
            pid=pid if pid is not None else os.getpid(), path=path,
            c=EventType.parse(op), l=offset, sz=size))

    @property
    def recorder(self):
        return self.record

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    @property
    def had_writes(self) -> bool:
        return any(e.is_write for e in self._events)

    def identities(self) -> List[Tuple[int, str]]:
        return sorted(self._trees)

    def _trees_of(self, path: str, pid: Optional[int]) -> List[IntervalBTree]:
        return [tree for (epid, epath), tree in self._trees.items()
                if epath == path and (pid is None or epid == pid)]

    def accessed_ranges(self, path: str,
                        pid: Optional[int] = None) -> List[Tuple[int, int]]:
        with self._lock:
            ranges = sorted(r for tree in self._trees_of(path, pid)
                            for r in tree.merged())
        out: List[Tuple[int, int]] = []
        for s, e in ranges:
            if out and s <= out[-1][1]:
                out[-1] = (out[-1][0], max(e, out[-1][1]))
            else:
                out.append((s, e))
        return out

    def range_overlaps(self, path: str, start: int, end: int,
                       pid: Optional[int] = None) -> List[Tuple[int, int, str]]:
        with self._lock:
            return sorted(hit for tree in self._trees_of(path, pid)
                          for hit in tree.overlapping(start, end))

    def accessed_indices(self, path: str, layout,
                         pid: Optional[int] = None) -> np.ndarray:
        parts = [layout.indices_in_range(start, end - start)
                 for start, end in self.accessed_ranges(path, pid=pid)]
        if not parts:
            return np.empty((0, layout.schema.ndim), dtype=np.int64)
        return np.unique(np.concatenate(parts, axis=0), axis=0)

    def accessed_nbytes(self, path: str) -> int:
        return sum(end - start for start, end in self.accessed_ranges(path))

    def reset(self) -> None:
        if self._closed:
            raise AuditError("cannot reset a closed audit session")
        with self._lock:
            self._trees.clear()
            self._events.clear()

    def close(self) -> None:
        self._closed = True
