"""Fine-grained I/O auditing substrate (paper Sections II and IV-C).

Implements the paper's auditing system ``AS``: the event model
(:mod:`~repro.audit.events`), batched block-descriptor capture
(:mod:`~repro.audit.blockcapture`), flat sorted-array interval indexing
(:mod:`~repro.audit.flatstore`), per-process range merging and index
resolution (:mod:`~repro.audit.session`), in-process function interposition
(:mod:`~repro.audit.interposer`), strace trace ingestion
(:mod:`~repro.audit.strace`), and overhead measurement
(:mod:`~repro.audit.overhead`).
"""

from repro.arraymodel.layout import merge_ranges_arrays
from repro.audit.blockcapture import BlockRecorder
from repro.audit.events import ACCESS_TYPES, Event, EventType
from repro.audit.flatstore import FlatIntervalStore
from repro.audit.interposer import AuditedFile, audited_open
from repro.audit.overhead import OverheadReport, measure_overhead, summarize
from repro.audit.replay import (
    FileAccessRecord,
    ReplayReport,
    RunManifest,
    capture_manifest,
    subset_range_reader,
    verify_manifest,
)
from repro.audit.session import AuditSession
from repro.audit.strace import (
    StraceParser,
    parse_strace_text,
    strace_available,
    trace_command,
)

__all__ = [
    "Event",
    "EventType",
    "ACCESS_TYPES",
    "FlatIntervalStore",
    "BlockRecorder",
    "merge_ranges_arrays",
    "AuditSession",
    "AuditedFile",
    "audited_open",
    "StraceParser",
    "parse_strace_text",
    "strace_available",
    "trace_command",
    "OverheadReport",
    "measure_overhead",
    "summarize",
    "RunManifest",
    "FileAccessRecord",
    "ReplayReport",
    "capture_manifest",
    "verify_manifest",
    "subset_range_reader",
]
