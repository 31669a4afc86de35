"""Debloated data subsets: the KNDS sparse array file format.

Definition 1 of the paper: the data subset ``D_Theta`` keeps ``D(i)`` for
``i`` in the (approximated) index subset and maps every other index to the
designated *Null* value.  KNDS materializes that: it stores only the kept
byte extents, plus an extent directory, so the on-disk size shrinks by the
bloat fraction while every kept element remains readable at its original
logical index.

Layout on disk::

    bytes 0..3   magic  b"KNDS"
    bytes 4..7   header length H (uint32 LE)
    8..8+H       JSON header {"schema": ..., "extents": [[src_off, size], ...]}
    8+H ..       concatenation of the kept source-payload extents, in order

Reading an index resolves its source byte offset, binary-searches the extent
directory, and either reads the relocated bytes or raises
:class:`~repro.errors.DataMissingError` — the run-time exception of
Section III.
"""

from __future__ import annotations

import bisect
import json
import os
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.chunked import make_layout
from repro.arraymodel.datafile import (
    ArrayFile,
    Recorder,
    _numpy_dtype,
    checked_header,
    verify_header,
    verify_payload_crc,
)
from repro.arraymodel.layout import flat_runs, merge_ranges_arrays
from repro.arraymodel.schema import ArraySchema
from repro.arraymodel.spans import (
    SPAN_CLEAN,
    SpanTable,
    build_span_table,
    parse_optional_spans,
    span_size_for,
)
from repro.errors import DataMissingError, FileFormatError, LayoutError
from repro.ioutil import atomic_write

MAGIC = b"KNDS"

#: ``open(..., on_corruption=...)`` policies: ``"raise"`` surfaces payload
#: corruption as :class:`FileFormatError` at open time (the v2
#: behaviour); ``"degrade"`` opens the damaged file anyway, verifies the
#: v3 span table, and serves reads that touch a corrupt span as
#: :class:`DataMissingError` — the runtime's miss path (fetch / fallback)
#: then turns a damaged bundle into slower-but-correct instead of wrong.
CORRUPTION_POLICIES = ("raise", "degrade")


def compose_knds_bytes(schema: ArraySchema,
                       extents: Sequence[Tuple[int, int]],
                       payload: bytes) -> bytes:
    """Serialize a complete KNDS v3 file image from its parts.

    ``extents`` must already be merged/sorted and ``payload`` must be
    the concatenation of their bytes.  Shared by
    :meth:`DebloatedArrayFile.create` and the durability journal's
    patch application, so a healed/repaired generation is byte-for-byte
    the file a fresh carve would have written.
    """
    if len(payload) != sum(z for _s, z in extents):
        raise FileFormatError(
            f"payload is {len(payload)} bytes but extents total "
            f"{sum(z for _s, z in extents)}"
        )
    spans = build_span_table(payload, span_size_for(schema, len(payload)))
    header = checked_header(
        {"schema": schema.to_dict(),
         "extents": [[int(s), int(z)] for s, z in extents],
         "spans": spans.to_dict()},
        zlib.crc32(payload),
    )
    return b"".join([
        MAGIC, len(header).to_bytes(4, "little"), header, payload,
    ])


def merge_extents(extents: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and coalesce overlapping/adjacent ``(start, size)`` extents.

    The list form of :func:`~repro.arraymodel.layout.merge_ranges_arrays`;
    extents with ``size <= 0`` are dropped.
    """
    arr = np.asarray(list(extents), dtype=np.int64).reshape(-1, 2)
    starts, ends = merge_ranges_arrays(arr[:, 0], arr[:, 0] + arr[:, 1])
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def extents_from_flat_indices(
    flat: np.ndarray, itemsize: int
) -> List[Tuple[int, int]]:
    """Collapse a set of flat element numbers into merged byte extents."""
    starts, lengths = flat_runs(flat)
    return list(zip((starts * itemsize).tolist(),
                    (lengths * itemsize).tolist()))


class DebloatedArrayFile:
    """A KNDS sparse subset of a KND source array, readable by index."""

    def __init__(self, path: str, schema: ArraySchema,
                 extents: List[Tuple[int, int]], payload_start: int,
                 recorder: Optional[Recorder] = None,
                 span_table: Optional[SpanTable] = None):
        self.path = path
        self.schema = schema
        self.layout = make_layout(schema)
        self.extents = extents
        #: Per-span CRC directory over the *relocated* payload (v3).
        self.span_table = span_table
        #: Local payload ranges known corrupt (degrade mode), sorted.
        self._corrupt_local: List[Tuple[int, int]] = []
        self._starts = [s for s, _ in extents]
        # Cumulative placement of each extent inside the KNDS payload.
        self._placement = []
        pos = 0
        for _, size in extents:
            self._placement.append(pos)
            pos += size
        self._kept_nbytes = pos
        self._payload_start = payload_start
        self._recorder = recorder
        self._fh = open(path, "rb", buffering=0)
        self._closed = False

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        source: ArrayFile,
        keep_flat_indices: Optional[np.ndarray] = None,
        keep_extents: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> "DebloatedArrayFile":
        """Carve a debloated copy of ``source`` keeping only given elements.

        Exactly one of ``keep_flat_indices`` (layout-flat element numbers —
        i.e. payload offset / itemsize) or ``keep_extents`` (payload byte
        ranges) must be provided.
        """
        if (keep_flat_indices is None) == (keep_extents is None):
            raise FileFormatError(
                "provide exactly one of keep_flat_indices / keep_extents"
            )
        if keep_extents is None:
            extents = extents_from_flat_indices(
                keep_flat_indices, source.schema.itemsize
            )
        else:
            extents = merge_extents(keep_extents)
        payload_limit = source.layout.payload_nbytes
        for start, size in extents:
            if start < 0 or start + size > payload_limit:
                raise LayoutError(
                    f"extent [{start}, {start + size}) outside source payload"
                )
        # The payload CRC and span table must land in the header, which
        # precedes the payload on disk — so the kept extents are read
        # once up front (mirroring ArrayFile.create, which also builds
        # its payload in memory before writing).
        payload = b"".join(
            source.read_extent(start, size) for start, size in extents
        )
        blob = compose_knds_bytes(source.schema, extents, payload)
        with atomic_write(path) as fh:
            fh.write(blob)
        return cls.open(path)

    @classmethod
    def open(cls, path: str, recorder: Optional[Recorder] = None,
             verify_checksum: bool = True,
             on_corruption: str = "raise") -> "DebloatedArrayFile":
        """Open an existing KNDS file.

        Version-2+ files carry CRC32 checksums over the header body and
        the relocated payload; ``verify_checksum=True`` (the default)
        verifies both so corruption raises :class:`FileFormatError` here
        instead of surfacing as garbage floats or spurious
        ``DataMissingError`` later.  Version-1 files open as before.

        ``on_corruption="degrade"`` changes what payload corruption
        means: instead of refusing to open, the v3 span table is
        verified and every read that touches a non-clean span raises
        :class:`DataMissingError` — indistinguishable, to the runtime,
        from a debloated-away offset, so the existing fetch/fallback
        miss path serves bit-correct values from the origin.  A v2 file
        (whole-payload CRC only) cannot localize damage, so a failed
        CRC degrades *every* read to a miss — slow, but still correct.
        Header corruption is never degradable: without a trustworthy
        extent directory there is no index mapping to serve.
        """
        if on_corruption not in CORRUPTION_POLICIES:
            raise FileFormatError(
                f"on_corruption must be one of {CORRUPTION_POLICIES}, "
                f"got {on_corruption!r}"
            )
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise FileFormatError(f"{path}: bad magic {magic!r}")
            hlen = int.from_bytes(fh.read(4), "little")
            raw = fh.read(hlen)
            if len(raw) != hlen:
                raise FileFormatError(f"{path}: truncated header")
            try:
                header = json.loads(raw.decode("utf-8"))
                schema = ArraySchema.from_dict(header["schema"])
                extents = [(int(s), int(z)) for s, z in header["extents"]]
            except (ValueError, KeyError, TypeError) as exc:
                raise FileFormatError(f"{path}: malformed header: {exc}") from exc
            verify_header(path, header)
            spans = parse_optional_spans(header)
        f = cls(path, schema, extents, payload_start=8 + hlen,
                recorder=recorder, span_table=spans)
        if spans is not None and spans.payload_nbytes != f._kept_nbytes:
            f.close()
            raise FileFormatError(
                f"{path}: span table covers {spans.payload_nbytes} bytes "
                f"but the kept payload is {f._kept_nbytes} bytes"
            )
        expected = f._payload_start + f._kept_nbytes
        truncated = os.path.getsize(path) < expected
        if truncated and on_corruption != "degrade":
            f.close()
            raise FileFormatError(f"{path}: payload truncated")
        if verify_checksum and header.get("payload_crc32") is not None:
            try:
                with open(path, "rb") as vfh:
                    verify_payload_crc(
                        path, vfh, f._payload_start, f._kept_nbytes,
                        header["payload_crc32"],
                    )
            except FileFormatError:
                if on_corruption != "degrade":
                    f.close()
                    raise
                f._mark_degraded()
        elif truncated:
            # degrade mode with no whole-payload CRC to consult.
            f._mark_degraded()
        return f

    def _mark_degraded(self) -> None:
        """Record which local payload ranges must be served as misses."""
        statuses = self.verify_spans()
        if statuses is None:
            # Pre-v3 file: corruption cannot be localized, so the whole
            # payload is treated as missing (correct, just slow).
            self._corrupt_local = [(0, self._kept_nbytes)]
        else:
            self._corrupt_local = self.span_table.bad_ranges(statuses)

    def verify_spans(self) -> Optional[List[str]]:
        """Classify every relocated-payload span (v3); ``None`` pre-v3."""
        if self.span_table is None:
            return None
        with open(self.path, "rb") as vfh:
            return self.span_table.classify_stream(vfh, self._payload_start)

    @property
    def degraded(self) -> bool:
        """Whether corrupt spans are being served as misses."""
        return bool(self._corrupt_local)

    @property
    def corrupt_local_ranges(self) -> List[Tuple[int, int]]:
        """Local payload ``(offset, size)`` ranges known corrupt."""
        return list(self._corrupt_local)

    def _local_is_corrupt(self, local: int, size: int) -> bool:
        for start, ext in self._corrupt_local:
            if local < start + ext and start < local + size:
                return True
        return False

    # -- reading -----------------------------------------------------------

    def _locate(self, src_offset: int, size: int) -> Tuple[int, int]:
        """Map a source payload range to its KNDS payload position.

        Raises :class:`DataMissingError` if the range is not fully kept.
        """
        pos = bisect.bisect_right(self._starts, src_offset) - 1
        if pos < 0:
            raise DataMissingError(
                f"offset {src_offset} was debloated away", path=self.path
            )
        start, ext_size = self.extents[pos]
        if src_offset + size > start + ext_size:
            raise DataMissingError(
                f"range [{src_offset}, {src_offset + size}) not fully kept",
                path=self.path,
            )
        return pos, self._placement[pos] + (src_offset - start)

    def contains_index(self, index: Sequence[int]) -> bool:
        """Whether the element at ``index`` was kept in this subset."""
        try:
            self._locate(self.layout.offset_of(index), self.schema.itemsize)
            return True
        except DataMissingError:
            return False

    def read_point(self, index: Sequence[int]) -> float:
        """Read a kept element; raise :class:`DataMissingError` on Null.

        In degraded mode a kept element whose bytes sit in a corrupt
        span also raises :class:`DataMissingError`: serving it would
        return garbage, whereas a miss is routed through the runtime's
        fetch/fallback path and stays bit-correct.
        """
        src_off = self.layout.offset_of(index)
        try:
            _, local = self._locate(src_off, self.schema.itemsize)
        except DataMissingError as exc:
            raise DataMissingError(
                f"index {tuple(index)} maps to Null in {self.path}",
                index=tuple(index), path=self.path,
            ) from exc
        if self._local_is_corrupt(local, self.schema.itemsize):
            raise DataMissingError(
                f"index {tuple(index)} lies in a corrupt span of "
                f"{self.path} (degraded read served as a miss)",
                index=tuple(index), path=self.path,
            )
        self._fh.seek(self._payload_start + local)
        raw = self._fh.read(self.schema.itemsize)
        if self._recorder is not None:
            self._recorder(self.path, "read", src_off, len(raw))
        dt = _numpy_dtype(self.schema.dtype)
        if dt.kind == "V":
            return float(np.frombuffer(raw[:8], dtype="f8")[0])
        return float(np.frombuffer(raw, dtype=dt)[0])

    # -- raw payload access (durability tooling) ----------------------------

    def read_local_raw(self, offset: int, size: int) -> bytes:
        """Read raw *local* (relocated) payload bytes, unverified.

        Used by the durability layer to salvage the intact parts of a
        damaged file; never routed through the audit recorder.
        """
        if offset < 0 or size < 0 or offset + size > self._kept_nbytes:
            raise LayoutError(
                f"local range [{offset}, {offset + size}) outside kept "
                f"payload of {self._kept_nbytes} bytes"
            )
        with open(self.path, "rb") as fh:
            fh.seek(self._payload_start + offset)
            return fh.read(size)

    def source_ranges_of_local(self, offset: int, size: int
                               ) -> List[Tuple[int, int]]:
        """Map a local payload range back to source-payload extents.

        The inverse of the relocation the extent directory encodes:
        ``kondo repair`` uses it to turn a corrupt local span into the
        source byte ranges to re-fetch from an origin file.
        """
        out: List[Tuple[int, int]] = []
        end = offset + size
        for (src_start, ext_size), placed in zip(self.extents,
                                                 self._placement):
            lo = max(offset, placed)
            hi = min(end, placed + ext_size)
            if lo < hi:
                out.append((src_start + (lo - placed), hi - lo))
        return out

    # -- accounting ---------------------------------------------------------

    @property
    def kept_nbytes(self) -> int:
        """Bytes of source payload preserved in this subset."""
        return self._kept_nbytes

    @property
    def file_nbytes(self) -> int:
        """Total on-disk size of the KNDS file."""
        return os.path.getsize(self.path)

    def reduction_vs(self, source_payload_nbytes: int) -> float:
        """Fractional size reduction against the original payload."""
        if source_payload_nbytes <= 0:
            return 0.0
        return 1.0 - (self._kept_nbytes / source_payload_nbytes)

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "DebloatedArrayFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
