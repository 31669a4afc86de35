"""Per-span payload integrity: the KND/KNDS v3 span table.

A *span* is the unit of corruption localization: the payload is divided
into fixed-size runs (a chunk for chunked layouts, a stripe for
row-major / relocated payloads) and the v3 header stores one CRC32 per
span.  A flipped byte is then attributable to exactly one span, which is
what lets the runtime degrade a damaged bundle to
slower-but-correct (corrupt span ⇒ ``DataMissingError`` ⇒ fetch
fallback) and lets ``kondo repair`` re-fetch only the damaged bytes.

The table lives in ``arraymodel`` because it *is* part of the v3 format
(written by ``ArrayFile.create`` / ``DebloatedArrayFile.create``, parsed
by their ``open``); the resilience-side consumers (degrade-on-read,
``kondo fsck`` / ``repair``) import it from here, and
:mod:`repro.resilience.durability.fsck` turns span classifications
into its damage report.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.arraymodel.schema import ArraySchema
from repro.errors import FileFormatError

#: Default span width for row-major (unchunked) payloads.  64 KiB keeps
#: the table small (16 entries per MiB) while making a re-fetch after
#: localized corruption far cheaper than a whole-file download.
DEFAULT_STRIPE_NBYTES = 64 * 1024

#: Smallest stripe a writer will pick for a small payload: keeps the
#: span table from ballooning while still localizing damage within
#: files that are only a few KiB.
MIN_STRIPE_NBYTES = 512

#: Classification of one span after verification.
SPAN_CLEAN = "clean"
SPAN_CORRUPT = "corrupt"
SPAN_UNREADABLE = "unreadable"


@dataclass(frozen=True)
class SpanTable:
    """The per-span CRC32 directory of one payload.

    Attributes:
        span_size: nominal bytes per span (the final span may be short).
        payload_nbytes: total payload length the table describes.
        crcs: one CRC32 per span, in payload order.
    """

    span_size: int
    payload_nbytes: int
    crcs: Tuple[int, ...]

    def __post_init__(self):
        if self.span_size <= 0:
            raise FileFormatError(
                f"span_size must be positive, got {self.span_size}"
            )
        if self.payload_nbytes < 0:
            raise FileFormatError(
                f"payload_nbytes must be >= 0, got {self.payload_nbytes}"
            )
        expected = -(-self.payload_nbytes // self.span_size)
        if len(self.crcs) != expected:
            raise FileFormatError(
                f"span table has {len(self.crcs)} CRCs but a "
                f"{self.payload_nbytes}-byte payload at span size "
                f"{self.span_size} has {expected} spans"
            )

    @property
    def n_spans(self) -> int:
        return len(self.crcs)

    def span_range(self, ordinal: int) -> Tuple[int, int]:
        """``(offset, size)`` of span ``ordinal`` within the payload."""
        if not 0 <= ordinal < self.n_spans:
            raise FileFormatError(
                f"span {ordinal} out of range [0, {self.n_spans})"
            )
        start = ordinal * self.span_size
        return start, min(self.span_size, self.payload_nbytes - start)

    def spans_overlapping(self, offset: int, size: int) -> range:
        """Ordinals of every span intersecting payload range
        ``[offset, offset + size)``."""
        if size <= 0 or offset >= self.payload_nbytes:
            return range(0)
        first = max(0, offset) // self.span_size
        last = min(self.payload_nbytes, offset + size)
        return range(first, -(-last // self.span_size))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form embedded in v3 file headers."""
        return {
            "size": self.span_size,
            "payload_nbytes": self.payload_nbytes,
            "crc32": list(self.crcs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpanTable":
        try:
            return cls(
                span_size=int(d["size"]),
                payload_nbytes=int(d["payload_nbytes"]),
                crcs=tuple(int(c) for c in d["crc32"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"malformed span table: {exc}") from exc

    # -- verification -------------------------------------------------------

    def classify_stream(self, fh, payload_start: int) -> List[str]:
        """Verify every span from an open binary file; return statuses.

        Each span is independently read and CRC-checked, so one bad
        region never prevents classifying its neighbours:

        * ``"clean"`` — bytes present and CRC matches,
        * ``"corrupt"`` — bytes present but CRC differs,
        * ``"unreadable"`` — short read / I/O error (truncation).
        """
        statuses: List[str] = []
        for ordinal in range(self.n_spans):
            offset, size = self.span_range(ordinal)
            try:
                fh.seek(payload_start + offset)
                raw = fh.read(size)
            except OSError:
                statuses.append(SPAN_UNREADABLE)
                continue
            if len(raw) != size:
                statuses.append(SPAN_UNREADABLE)
            elif zlib.crc32(raw) != self.crcs[ordinal]:
                statuses.append(SPAN_CORRUPT)
            else:
                statuses.append(SPAN_CLEAN)
        return statuses

    def bad_ranges(self, statuses: Sequence[str]) -> List[Tuple[int, int]]:
        """``(offset, size)`` payload ranges of every non-clean span."""
        return [
            self.span_range(ordinal)
            for ordinal, status in enumerate(statuses)
            if status != SPAN_CLEAN
        ]


def iter_spans(payload_nbytes: int, span_size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(offset, size)`` for each span of a payload."""
    offset = 0
    while offset < payload_nbytes:
        yield offset, min(span_size, payload_nbytes - offset)
        offset += span_size


def build_span_table(payload: bytes, span_size: int) -> SpanTable:
    """Compute the span table of an in-memory payload."""
    crcs = tuple(
        zlib.crc32(payload[offset:offset + size])
        for offset, size in iter_spans(len(payload), span_size)
    )
    return SpanTable(span_size=span_size, payload_nbytes=len(payload),
                     crcs=crcs)


def parse_optional_spans(header: dict) -> Optional[SpanTable]:
    """The header's span table, or ``None`` for pre-v3 files."""
    spans = header.get("spans")
    if spans is None:
        return None
    return SpanTable.from_dict(spans)


def span_size_for(schema: ArraySchema,
                  payload_nbytes: Optional[int] = None) -> int:
    """The span width a v3 writer uses for ``schema``'s payload.

    Chunked layouts use the chunk as the span (Section VI: the chunk is
    the unit of access, so it is also the natural unit of damage and
    re-fetch).  Row-major payloads use a
    :data:`DEFAULT_STRIPE_NBYTES` stripe; when the writer knows the
    payload is small (``payload_nbytes``), the stripe shrinks in
    power-of-two steps toward :data:`MIN_STRIPE_NBYTES`, aiming at ~64
    spans so even a few-KiB subset localizes damage.  The chosen size
    is recorded in the table, so readers never recompute this.
    """
    if schema.chunks is not None:
        return schema.chunk_nbytes
    stripe = DEFAULT_STRIPE_NBYTES
    if payload_nbytes is not None and payload_nbytes < stripe * 64:
        target = -(-payload_nbytes // 64)
        stripe = MIN_STRIPE_NBYTES
        while stripe < target:
            stripe *= 2
    return max(stripe, schema.itemsize)
