"""Audit overhead measurement (paper Section V-D6).

The paper reports ~31% average overhead for recording, merging, and looking
up the offset range of a system call.  This module times a workload's real
file reads with auditing off and on, and reports the same decomposition:
record cost, merge cost, lookup cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List

from repro.arraymodel.datafile import ArrayFile
from repro.audit.session import AuditSession


@dataclass
class OverheadReport:
    """Timings of one audited-vs-unaudited run comparison."""

    program: str
    file_nbytes: int
    n_io_calls: int
    plain_seconds: float
    audited_seconds: float
    merge_seconds: float
    lookup_seconds: float
    #: Exactly how many offset-range lookups the probe loop issued.
    n_lookups_actual: int = 0

    @property
    def overhead_fraction(self) -> float:
        """Relative slowdown of the audited run, incl. merge and lookup."""
        if self.plain_seconds <= 0:
            return 0.0
        total = self.audited_seconds + self.merge_seconds + self.lookup_seconds
        return (total - self.plain_seconds) / self.plain_seconds

    @property
    def record_seconds(self) -> float:
        """Capture cost alone: audited run time minus the unaudited run."""
        return max(0.0, self.audited_seconds - self.plain_seconds)


def measure_overhead(
    program_name: str,
    path: str,
    reader: Callable[[ArrayFile], int],
    n_lookups: int = 64,
) -> OverheadReport:
    """Measure audit overhead for one real-file workload.

    Args:
        program_name: label for the report.
        path: a KND file on disk.
        reader: callable that performs the workload's reads against an open
            :class:`ArrayFile` and returns the number of I/O calls issued.
        n_lookups: how many per-process offset-range lookups to time
            (modeling the run-time's system-call-to-offset resolution).
            Exactly this many probes are issued whenever any range was
            accessed; ``n_lookups_actual`` records the count.
    """
    # Unaudited baseline.
    with ArrayFile.open(path) as f:
        t0 = time.perf_counter()
        n_calls = reader(f)
        plain = time.perf_counter() - t0

    # Audited run: identical reads, with event recording.
    session = AuditSession()
    with ArrayFile.open(path, recorder=session.recorder) as f:
        t0 = time.perf_counter()
        reader(f)
        audited = time.perf_counter() - t0

    t0 = time.perf_counter()
    ranges = session.accessed_ranges(path)
    merge = time.perf_counter() - t0

    lookups_issued = 0
    t0 = time.perf_counter()
    if ranges:
        span = ranges[-1][1]
        # Exactly n_lookups evenly spaced probes across the covered span
        # (duplicate positions on tiny spans still cost a lookup each).
        for k in range(n_lookups):
            probe = (k * span) // n_lookups
            session.range_overlaps(path, probe, probe + 1)
        lookups_issued = n_lookups
    lookup = time.perf_counter() - t0

    with ArrayFile.open(path) as f:
        nbytes = f.file_nbytes
    return OverheadReport(
        program=program_name,
        file_nbytes=nbytes,
        n_io_calls=n_calls,
        plain_seconds=plain,
        audited_seconds=audited,
        merge_seconds=merge,
        lookup_seconds=lookup,
        n_lookups_actual=lookups_issued,
    )


def summarize(reports: List[OverheadReport]) -> float:
    """Average overhead fraction across reports (the paper's ~31% figure)."""
    if not reports:
        return 0.0
    return sum(r.overhead_fraction for r in reports) / len(reports)
