"""``kondo fsck``: deep verification of KND/KNDS files and their journals.

Where ``ArrayFile.open`` / ``DebloatedArrayFile.open`` answer "may I
trust this file?" (and refuse when not), fsck answers "what exactly is
wrong with it?" — it never raises on damage, it *classifies* it:

* the header envelope (magic, length field, JSON, meta CRC),
* every payload span independently (clean / corrupt / unreadable),
* internal consistency (span table vs. layout, extent directory
  ordering and bounds for subsets),
* the bundle's journal, if present (torn tail, pending commit, which
  generation the live bytes match).

Exit-code contract (also the CLI's):

* ``0`` — clean: every check passed.
* ``1`` — localized damage: the header is trustworthy and damage is
  attributed to specific spans; ``kondo repair`` can fix it.
* ``2`` — structural damage: the header (or the file shape itself)
  cannot be trusted; only a journal generation or a full re-fetch
  can recover it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arraymodel.chunked import make_layout
from repro.arraymodel.datafile import verify_header
from repro.arraymodel.schema import ArraySchema
from repro.arraymodel.spans import (
    SPAN_CLEAN,
    SPAN_CORRUPT,
    SPAN_UNREADABLE,
    SpanTable,
    parse_optional_spans,
)
from repro.errors import FileFormatError
from repro.resilience.durability.journal import BundleJournal

KND_MAGIC = b"KND1"
KNDS_MAGIC = b"KNDS"

EXIT_CLEAN = 0
EXIT_CORRUPT = 1
EXIT_STRUCTURAL = 2


@dataclass
class FsckReport:
    """Everything ``kondo fsck`` learned about one file."""

    path: str
    kind: str = "unknown"              # "knd" | "knds" | "unknown"
    version: Optional[int] = None
    header_ok: bool = False
    header_error: Optional[str] = None
    #: None when the file predates payload CRCs or spans made it moot.
    payload_crc_ok: Optional[bool] = None
    span_size: Optional[int] = None
    n_spans: Optional[int] = None
    #: ``{"clean": N, "corrupt": M, "unreadable": K}`` for v3 files.
    span_counts: Optional[dict] = None
    #: ``[{"ordinal", "offset", "size", "status"}, ...]`` non-clean spans.
    bad_spans: List[dict] = field(default_factory=list)
    #: Internal-consistency violations (extent directory, sizes, ...).
    consistency_errors: List[str] = field(default_factory=list)
    #: ``BundleJournal.state()`` plus crash-analysis, when present.
    journal: Optional[dict] = None

    @property
    def exit_code(self) -> int:
        if not self.header_ok or self.consistency_errors:
            return EXIT_STRUCTURAL
        if self.bad_spans or self.payload_crc_ok is False:
            return EXIT_CORRUPT
        if self.journal is not None and self.journal.get("pending"):
            return EXIT_CORRUPT
        return EXIT_CLEAN

    @property
    def clean(self) -> bool:
        return self.exit_code == EXIT_CLEAN

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "version": self.version,
            "exit_code": self.exit_code,
            "clean": self.clean,
            "header_ok": self.header_ok,
            "header_error": self.header_error,
            "payload_crc_ok": self.payload_crc_ok,
            "spans": None if self.n_spans is None else {
                "size": self.span_size,
                "total": self.n_spans,
                "counts": self.span_counts,
                "bad": self.bad_spans,
            },
            "consistency_errors": self.consistency_errors,
            "journal": self.journal,
        }

    def format(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"fsck {self.path}: "
                 f"{'clean' if self.clean else 'DAMAGED'} "
                 f"(kind={self.kind}, version={self.version}, "
                 f"exit={self.exit_code})"]
        if self.header_error:
            lines.append(f"  header: {self.header_error}")
        elif self.header_ok:
            lines.append("  header: ok")
        for err in self.consistency_errors:
            lines.append(f"  consistency: {err}")
        if self.n_spans is not None:
            counts = self.span_counts or {}
            lines.append(
                f"  spans: {counts.get(SPAN_CLEAN, 0)}/{self.n_spans} "
                f"clean (span size {self.span_size})"
            )
            for bad in self.bad_spans:
                lines.append(
                    f"    span {bad['ordinal']} "
                    f"[{bad['offset']}, {bad['offset'] + bad['size']}) "
                    f"{bad['status']}"
                )
        elif self.payload_crc_ok is not None:
            lines.append(
                f"  payload crc: {'ok' if self.payload_crc_ok else 'MISMATCH'}"
            )
        if self.journal is not None:
            j = self.journal
            pend = j.get("pending")
            lines.append(
                f"  journal: generation {j.get('current_generation')}"
                + (f", PENDING commit of gen {pend['gen']}" if pend else "")
                + (" (torn tail)" if j.get("torn") else "")
            )
        return "\n".join(lines)


def _read_structure(path: str, report: FsckReport
                    ) -> Optional[Tuple[dict, ArraySchema, int]]:
    """Parse magic + header; fill the report; None on structural damage."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic == KND_MAGIC:
                report.kind = "knd"
            elif magic == KNDS_MAGIC:
                report.kind = "knds"
            else:
                report.header_error = f"unrecognized magic {magic!r}"
                return None
            hlen_raw = fh.read(4)
            if len(hlen_raw) != 4:
                report.header_error = "truncated header length field"
                return None
            hlen = int.from_bytes(hlen_raw, "little")
            if 8 + hlen > size:
                report.header_error = (
                    f"header length {hlen} exceeds file size {size}"
                )
                return None
            raw = fh.read(hlen)
    except OSError as exc:
        report.header_error = f"unreadable: {exc}"
        return None
    try:
        header = json.loads(raw.decode("utf-8"))
        schema = ArraySchema.from_dict(header["schema"])
    except (ValueError, KeyError, TypeError) as exc:
        report.header_error = f"malformed header: {exc}"
        return None
    try:
        verify_header(path, header)
    except FileFormatError as exc:
        report.header_error = str(exc)
        return None
    report.version = int(header.get("version", 1))
    report.header_ok = True
    return header, schema, 8 + hlen


def _check_consistency(path: str, report: FsckReport, header: dict,
                       schema: ArraySchema, payload_start: int) -> int:
    """Validate internal shape claims; return the expected payload size."""
    spans = parse_optional_spans(header)
    if report.kind == "knds":
        try:
            extents = [(int(s), int(z)) for s, z in header["extents"]]
        except (KeyError, ValueError, TypeError) as exc:
            report.consistency_errors.append(f"malformed extents: {exc}")
            return 0
        payload_limit = make_layout(schema).payload_nbytes
        end = -1
        for start, z in extents:
            if z <= 0 or start < 0 or start + z > payload_limit:
                report.consistency_errors.append(
                    f"extent [{start}, {start + z}) outside source "
                    f"payload of {payload_limit} bytes"
                )
            if start <= end:
                report.consistency_errors.append(
                    f"extent at {start} overlaps or is unsorted"
                )
            end = start + z
        expected = sum(z for _s, z in extents)
    else:
        expected = make_layout(schema).payload_nbytes
    if spans is not None and spans.payload_nbytes != expected:
        report.consistency_errors.append(
            f"span table covers {spans.payload_nbytes} bytes but the "
            f"{'kept' if report.kind == 'knds' else 'layout'} payload "
            f"is {expected} bytes"
        )
    return expected


def damage_summary(statuses: Sequence[str]) -> Dict[str, int]:
    """Count spans by classification: ``{"clean": N, "corrupt": M, ...}``."""
    counts = {SPAN_CLEAN: 0, SPAN_CORRUPT: 0, SPAN_UNREADABLE: 0}
    for status in statuses:
        counts[status] = counts.get(status, 0) + 1
    return counts


def bad_span_details(table: SpanTable, statuses: Sequence[str]
                     ) -> List[Tuple[int, int, int, str]]:
    """Every non-clean span as ``(ordinal, offset, size, status)``."""
    out = []
    for ordinal, status in enumerate(statuses):
        if status != SPAN_CLEAN:
            offset, size = table.span_range(ordinal)
            out.append((ordinal, offset, size, status))
    return out


def _check_payload(path: str, report: FsckReport, header: dict,
                   payload_start: int, expected: int) -> None:
    spans = parse_optional_spans(header)
    if spans is not None:
        with open(path, "rb") as fh:
            statuses = spans.classify_stream(fh, payload_start)
        report.span_size = spans.span_size
        report.n_spans = spans.n_spans
        report.span_counts = damage_summary(statuses)
        report.bad_spans = [
            {"ordinal": o, "offset": off, "size": z, "status": st}
            for o, off, z, st in bad_span_details(spans, statuses)
        ]
        return
    # Pre-v3: only a whole-payload CRC (v2) or nothing (v1).
    stored = header.get("payload_crc32")
    actual_size = os.path.getsize(path)
    if actual_size < payload_start + expected:
        report.bad_spans = [{
            "ordinal": 0, "offset": 0, "size": expected,
            "status": SPAN_UNREADABLE,
        }]
        return
    if stored is None:
        return
    crc = 0
    with open(path, "rb") as fh:
        fh.seek(payload_start)
        remaining = expected
        while remaining > 0:
            block = fh.read(min(remaining, 1 << 22))
            if not block:
                break
            crc = zlib.crc32(block, crc)
            remaining -= len(block)
    report.payload_crc_ok = (remaining == 0 and crc == int(stored))


def _check_journal(path: str, report: FsckReport) -> None:
    journal = BundleJournal(path)
    if not os.path.isdir(journal.journal_dir):
        return
    try:
        journal = BundleJournal.open(path, recover=False)
        state = journal.state()
        pending = journal.pending
        if pending is not None:
            # Crash analysis without touching anything: which side of
            # the torn commit do the live bytes match?
            with open(path, "rb") as fh:
                crc = zlib.crc32(fh.read())
            if crc == pending.get("file_crc32"):
                state["bundle_matches"] = "new"
            elif crc == pending.get("prev_crc32"):
                state["bundle_matches"] = "old"
            else:
                state["bundle_matches"] = "neither"
        report.journal = state
    except FileFormatError as exc:
        report.journal = {"present": True, "error": str(exc)}
        report.consistency_errors.append(f"journal: {exc}")


def fsck_file(path: str, check_journal: bool = True) -> FsckReport:
    """Deep-verify one KND/KNDS file; never raises on damage.

    ``check_journal=False`` skips journal inspection (used on files
    that are themselves journal generation snapshots).
    """
    report = FsckReport(path=path)
    if not os.path.exists(path):
        report.header_error = "no such file"
        return report
    parsed = _read_structure(path, report)
    if parsed is None:
        return report
    header, schema, payload_start = parsed
    expected = _check_consistency(path, report, header, schema,
                                  payload_start)
    if not report.consistency_errors:
        _check_payload(path, report, header, payload_start, expected)
    if check_journal:
        _check_journal(path, report)
    return report
