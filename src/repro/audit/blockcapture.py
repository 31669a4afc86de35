"""Batched block-event capture: the audit hot path.

Per-event capture would pay, for every single ``read``/``pread``/
``mmap``: one :class:`~repro.audit.events.Event` dataclass allocation
(plus its validation), one shared-lock acquisition, one list append, and
one Python interval-B-tree descent.  The paper measures the resulting
audit overhead at ~31% (Section V-D6) — and it is the one cost every
Kondo run pays.

Following *Fast Capture of Cell-Level Provenance in Numpy* (PAPERS.md,
arxiv 2506.18255), :class:`BlockRecorder` instead buffers each access as a
*block descriptor* — an ``(offset, size, op)`` triple written into
preallocated per-thread numpy ring buffers — and defers everything else
to flush time:

* **record** (hot): three scalar stores into the calling thread's buffer
  plus two dict probes (op-code and identity interning).  No ``Event``
  allocation, no shared-lock traffic, no tree walk.
* **flush** (cold): one shared-lock acquisition moves the whole buffer —
  vectorized — into per-identity
  :class:`~repro.audit.flatstore.FlatIntervalStore` indexes and a
  columnar event log.  Flushes happen when a buffer fills, when a query
  needs a consistent view, and on close.
* **events()** materializes classic :class:`Event` objects from the
  columnar log on demand, so ``AuditSession.events`` / ``had_writes``
  observability is preserved.  Within one recording thread the
  materialized order matches the call order; across threads events
  appear in flush order (queries are order-independent either way).

Equivalence with per-event capture — same ``accessed_ranges``,
``accessed_indices``, ``accessed_nbytes`` and ``had_writes`` for any
interleaving of reads, seeks and mmaps across threads — is pinned by
hypothesis property tests in ``tests/audit/test_blockcapture.py``
against the per-event oracle session in ``tests/oracles/``.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arraymodel.layout import sorted_unique
from repro.audit.events import ACCESS_TYPES, Event, EventType
from repro.audit.flatstore import FlatIntervalStore
from repro.errors import AuditError

#: Default per-thread ring-buffer capacity (descriptors, not bytes).
DEFAULT_BUFFER_SIZE = 4096

#: Stable op-code table: index into ``tuple(EventType)``.
_CODE_TO_TYPE: Tuple[EventType, ...] = tuple(EventType)
_TYPE_TO_CODE: Dict[EventType, int] = {t: i for i, t in enumerate(_CODE_TO_TYPE)}
#: ``codes -> EventType.value`` lookup, vectorizable via fancy indexing.
_CODE_TO_VALUE = np.array([t.value for t in _CODE_TO_TYPE], dtype=object)
#: ``codes -> is-access`` lookup (read/pread/mmap).
_ACCESS_CODE = np.array([t in ACCESS_TYPES for t in _CODE_TO_TYPE], dtype=bool)
_WRITE_CODE = _TYPE_TO_CODE[EventType.WRITE]


class _ThreadBuffer:
    """One thread's preallocated descriptor ring buffer.

    ``lock`` orders the owning thread's appends against cross-thread
    drains; it is uncontended on the hot path (only a flushing query or
    ``close()`` ever touches another thread's buffer).
    """

    __slots__ = ("lock", "idents", "offsets", "sizes", "codes", "n")

    def __init__(self, capacity: int):
        self.lock = threading.Lock()
        self.idents = np.empty(capacity, dtype=np.int32)
        self.offsets = np.empty(capacity, dtype=np.int64)
        self.sizes = np.empty(capacity, dtype=np.int64)
        self.codes = np.empty(capacity, dtype=np.uint8)
        self.n = 0


class BlockRecorder:
    """Buffers block descriptors; flushes them vectorized into flat stores.

    Args:
        lock: the shared lock guarding the flushed state (an
            :class:`~repro.audit.session.AuditSession` passes its own, so
            session queries and recorder flushes serialize on one lock).
        buffer_size: per-thread ring-buffer capacity; a full buffer
            triggers an in-line flush.
    """

    def __init__(self, lock: Optional[threading.Lock] = None,
                 buffer_size: int = DEFAULT_BUFFER_SIZE):
        if buffer_size < 1:
            raise AuditError(f"buffer size must be >= 1, got {buffer_size}")
        self._buffer_size = buffer_size
        self._shared = lock if lock is not None else threading.Lock()
        self._local = threading.local()
        #: All live thread buffers, appended under ``_registry_lock`` so a
        #: flush can drain buffers owned by other threads.
        self._buffers: List[_ThreadBuffer] = []
        self._registry_lock = threading.Lock()
        # Identity interning: (pid, path) <-> small int.
        self._ident_ids: Dict[Tuple[int, str], int] = {}
        self._ident_keys: List[Tuple[int, str]] = []
        # Op-string interning (e.g. "pread64" -> code of EventType.PREAD).
        self._op_codes: Dict[str, int] = {}
        # Flushed state (guarded by ``_shared``): per-identity flat
        # interval indexes plus a columnar event log.
        self.stores: Dict[Tuple[int, str], FlatIntervalStore] = {}
        self._log: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._n_events = 0
        self._n_writes = 0
        self._closed = False

    # -- hot path -----------------------------------------------------------

    def _intern_identity(self, key: Tuple[int, str]) -> int:
        with self._registry_lock:
            ident = self._ident_ids.get(key)
            if ident is None:
                ident = len(self._ident_keys)
                self._ident_keys.append(key)
                self._ident_ids[key] = ident
        return ident

    def _intern_op(self, op: str) -> int:
        code = self._op_codes.get(op)
        if code is None:
            code = _TYPE_TO_CODE[EventType.parse(op)]
            with self._registry_lock:
                self._op_codes.setdefault(op, code)
        return code

    def _new_buffer(self) -> _ThreadBuffer:
        buf = _ThreadBuffer(self._buffer_size)
        self._local.buf = buf
        with self._registry_lock:
            self._buffers.append(buf)
        return buf

    def record(self, path: str, op: str, offset: int, size: int,
               pid: Optional[int] = None) -> None:
        """Record one block descriptor (recorder-callback signature)."""
        if self._closed:
            raise AuditError("cannot record into a closed block recorder")
        if offset < 0:
            raise AuditError(f"negative start offset {offset}")
        if size < 0:
            raise AuditError(f"negative size {size}")
        key = (pid if pid is not None else os.getpid(), path)
        ident = self._ident_ids.get(key)
        if ident is None:
            ident = self._intern_identity(key)
        code = self._op_codes.get(op)
        if code is None:
            code = self._intern_op(op)
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._new_buffer()
        with buf.lock:
            n = buf.n
            buf.idents[n] = ident
            buf.offsets[n] = offset
            buf.sizes[n] = size
            buf.codes[n] = code
            buf.n = n + 1
            if buf.n == self._buffer_size:
                self._drain(buf)

    # -- flush path ---------------------------------------------------------

    def _drain(self, buf: _ThreadBuffer) -> None:
        """Move one buffer's contents into the flushed state.

        Caller holds ``buf.lock``; the shared lock is taken exactly once.
        """
        n = buf.n
        if n == 0:
            return
        idents = buf.idents[:n].copy()
        offsets = buf.offsets[:n].copy()
        sizes = buf.sizes[:n].copy()
        codes = buf.codes[:n].copy()
        buf.n = 0
        with self._shared:
            self._log.append((idents, offsets, sizes, codes))
            self._n_events += n
            self._n_writes += int(np.count_nonzero(codes == _WRITE_CODE))
            access = _ACCESS_CODE[codes] & (sizes > 0)
            if access.any():
                self._ingest_groups(idents[access], offsets[access],
                                    sizes[access], codes[access])

    def _ingest_groups(self, idents: np.ndarray, offsets: np.ndarray,
                       sizes: np.ndarray, codes: np.ndarray) -> None:
        """Batch-insert access descriptors into per-identity flat stores.

        Caller holds the shared lock.  The loop here is per *identity
        group* (typically one per flush), never per element — KND009
        allow-lists this helper for exactly that reason.
        """
        for ident in sorted_unique(idents):
            key = self._ident_keys[int(ident)]
            store = self.stores.get(key)
            if store is None:
                store = FlatIntervalStore()
                self.stores[key] = store
            group = idents == ident
            starts = offsets[group]
            store.insert_batch(starts, starts + sizes[group],
                               _CODE_TO_VALUE[codes[group]])

    def flush(self) -> None:
        """Drain every thread's pending buffer into the flushed state."""
        with self._registry_lock:
            buffers = list(self._buffers)
        for buf in buffers:  # per-thread, not per-element
            with buf.lock:
                self._drain(buf)

    # -- observability ------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Flushed descriptor count (call :meth:`flush` first for all)."""
        return self._n_events

    @property
    def had_writes(self) -> bool:
        return self._n_writes > 0

    def events(self) -> List[Event]:
        """Materialize classic :class:`Event` objects from the log.

        Allocation happens here, on demand — never on the record path.
        """
        out: List[Event] = []
        for idents, offsets, sizes, codes in self._log:
            for i in range(idents.size):
                pid, path = self._ident_keys[int(idents[i])]
                out.append(Event(pid=pid, path=path,
                                 c=_CODE_TO_TYPE[int(codes[i])],
                                 l=int(offsets[i]), sz=int(sizes[i])))
        return out

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Drop all buffered and flushed state (buffers stay allocated)."""
        self.flush()
        with self._shared:
            self.stores.clear()
            self._log.clear()
            self._n_events = 0
            self._n_writes = 0

    def close(self) -> None:
        """Flush pending buffers and refuse further recording."""
        if self._closed:
            return
        self.flush()
        self._closed = True


#: Signature alias for the recorder callback ArrayFile expects.
RecorderCallback = Callable[[str, str, int, int], None]
