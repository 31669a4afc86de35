"""The flat sorted-array interval store behind every audit session.

The paper indexes events in interval B-trees (Section IV-C); a Python
B-tree pays a node walk per insert and per query, which dominates once
events arrive in batches of thousands.  Following *Compression and
In-Situ Query Processing for Fine-Grained Array Lineage* (PAPERS.md,
arxiv 2405.17701), this store keeps the intervals as flat sorted
``int64`` start/end arrays and answers every query with numpy
primitives —

* :meth:`FlatIntervalStore.merged` — one
  :func:`~repro.arraymodel.layout.merge_ranges_arrays` sweep over the
  sorted starts (a running max of ends finds coverage breaks),
* :meth:`FlatIntervalStore.overlapping` — two ``searchsorted`` probes
  (one on the starts, one on the cummax-of-ends, which is monotone)
  bracket the candidate window, then a single boolean mask selects hits,
* :meth:`FlatIntervalStore.covers` — an ``overlapping`` probe of width 1.

Inserts append into growth buffers; sorting is deferred until the next
query (amortized O(n log n) over a batch instead of O(log n) tree steps
per interval).  Query results are *bit-identical* to the paper's
interval B-tree, kept as the test oracle
(``tests/oracles/interval_btree.py``): both order intervals by
``(start, end)`` and use the same half-open overlap and coalescing
semantics, which the hypothesis property tests in
``tests/audit/test_flatstore.py`` pin down.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.arraymodel.layout import merge_ranges_arrays
from repro.errors import AuditError


#: Initial growth-buffer capacity (doubles as needed).
_INITIAL_CAPACITY = 1024


class FlatIntervalStore:
    """Half-open intervals in flat sorted numpy arrays.

    Same interval semantics and query results as the paper's interval
    B-tree, but optimized for batched inserts and vectorized queries.
    Payloads are stored in a parallel object array so ``overlapping``
    returns ``(start, end, payload)`` triples.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        capacity = max(int(capacity), 1)
        self._starts = np.empty(capacity, dtype=np.int64)
        self._ends = np.empty(capacity, dtype=np.int64)
        self._payloads = np.empty(capacity, dtype=object)
        self._n = 0
        #: Cumulative max of ends over the sorted prefix; rebuilt lazily.
        self._cummax: Optional[np.ndarray] = None
        self._sorted = True

    def __len__(self) -> int:
        return self._n

    # -- insertion ----------------------------------------------------------

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._starts)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_starts", "_ends", "_payloads"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def insert(self, start: int, end: int, payload: Any = None) -> None:
        """Insert interval ``[start, end)`` with an optional payload."""
        if end < start:
            raise AuditError(f"interval end {end} < start {start}")
        self._grow_to(self._n + 1)
        self._starts[self._n] = start
        self._ends[self._n] = end
        self._payloads[self._n] = payload
        self._n += 1
        self._sorted = False
        self._cummax = None

    def insert_batch(self, starts: np.ndarray, ends: np.ndarray,
                     payloads: Optional[np.ndarray] = None) -> None:
        """Append a whole batch of intervals in one vectorized step."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise AuditError("insert_batch requires matching 1-D arrays")
        if starts.size == 0:
            return
        if bool((ends < starts).any()):
            raise AuditError("insert_batch: interval end < start")
        n, k = self._n, starts.size
        self._grow_to(n + k)
        self._starts[n:n + k] = starts
        self._ends[n:n + k] = ends
        if payloads is None:
            self._payloads[n:n + k] = None
        else:
            self._payloads[n:n + k] = payloads
        self._n += k
        self._sorted = False
        self._cummax = None

    # -- internal ordering --------------------------------------------------

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            n = self._n
            order = np.lexsort((self._ends[:n], self._starts[:n]))
            self._starts[:n] = self._starts[:n][order]
            self._ends[:n] = self._ends[:n][order]
            self._payloads[:n] = self._payloads[:n][order]
            self._sorted = True
        if self._cummax is None:
            self._cummax = np.maximum.accumulate(self._ends[: self._n])

    # -- queries --------------------------------------------------------------

    def overlapping(self, start: int, end: int) -> List[Tuple[int, int, Any]]:
        """All stored intervals overlapping the half-open ``[start, end)``.

        A stored ``[s, e)`` hits iff ``s < end and e > start``.
        """
        if end < start:
            raise AuditError(f"query end {end} < start {start}")
        if end <= start or self._n == 0:
            return []
        self._ensure_sorted()
        n = self._n
        starts, ends = self._starts[:n], self._ends[:n]
        # Array methods, not the np.* wrappers: a probe is a handful of
        # scalar-sized numpy calls, so per-call dispatch sets its cost.
        # Everything at/after hi starts at >= end: cannot overlap.
        hi = int(starts.searchsorted(end, side="left"))
        # Everything before lo has cummax(end) <= start, so every end in
        # that prefix is <= start: cannot overlap.  cummax is monotone,
        # which is what makes this a valid searchsorted.
        lo = int(self._cummax[:hi].searchsorted(start, side="right"))
        if lo >= hi:
            return []
        sel = (ends[lo:hi] > start).nonzero()[0] + lo
        return list(zip(starts[sel].tolist(), ends[sel].tolist(),
                        self._payloads[sel].tolist()))

    def merged(self) -> List[Tuple[int, int]]:
        """Coalesced coverage: merged, sorted ``(start, end)`` ranges."""
        starts, ends = self.merged_arrays()
        return list(zip(starts.tolist(), ends.tolist()))

    def merged_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Merged coverage as ``(starts, ends)`` int64 arrays (no tuples)."""
        return merge_ranges_arrays(self._starts[: self._n],
                                   self._ends[: self._n])

    def covers(self, point: int) -> bool:
        """Whether any stored interval contains ``point``."""
        if self._n == 0:
            return False
        self._ensure_sorted()
        hi = int(self._starts[: self._n].searchsorted(point, side="right"))
        if hi == 0:
            return False
        return bool(self._cummax[hi - 1] > point)

    def iter_intervals(self) -> Iterator[Tuple[int, int, Any]]:
        """Sorted-by-(start, end) traversal of all stored intervals."""
        self._ensure_sorted()
        for i in range(self._n):  # materializer, not a hot path
            yield (int(self._starts[i]), int(self._ends[i]),
                   self._payloads[i])

    # -- diagnostics ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate buffer occupancy and (post-query) sort order."""
        n = self._n
        if n > len(self._starts):
            raise AuditError("occupancy beyond buffer capacity")
        if bool((self._ends[:n] < self._starts[:n]).any()):
            raise AuditError("stored interval with end < start")
        if self._sorted and n > 1:
            s = self._starts[:n]
            if bool((s[1:] < s[:-1]).any()):
                raise AuditError("sorted store with out-of-order starts")

