"""The KND array file format: a minimal self-describing HDF5 stand-in.

The paper's prototype targets HDF5 and NetCDF.  Offline we cannot link the
HDF5 C library, so KND provides the properties Kondo actually relies on
(DESIGN.md substitution #2): self-describing dims/dtype/chunking metadata in
a header, and a deterministic index<->byte-offset bijection for the payload.

Layout on disk::

    bytes 0..3    magic  b"KND1"
    bytes 4..7    header length H (little-endian uint32)
    bytes 8..8+H  JSON header {"dims": [...], "dtype": "...", "chunks": ...}
    8+H ..        payload (row-major or chunk-padded, per the schema)

Reads issue real ``seek``/``read`` syscalls on the underlying file object,
so a fine-grained audit recorder attached via :meth:`ArrayFile.open` sees
genuine I/O events (Section IV-C of the paper).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, Optional, Sequence

import numpy as np

from repro.arraymodel.chunked import make_layout
from repro.arraymodel.layout import Layout, row_major_strides
from repro.arraymodel.schema import ArraySchema
from repro.arraymodel.spans import (
    SpanTable,
    build_span_table,
    parse_optional_spans,
    span_size_for,
)
from repro.errors import FileFormatError, LayoutError
from repro.ioutil import atomic_write

MAGIC = b"KND1"

#: Header format version written by this code.  Version 2 added CRC32
#: integrity fields (``meta_crc32`` over the canonical header body,
#: ``payload_crc32`` over the payload bytes).  Version 3 adds the
#: per-span CRC table (``spans``, see :mod:`repro.arraymodel.spans`) so
#: corruption is *localized* to a span instead of merely detected.
#: Version-1 and version-2 files remain readable; they just verify with
#: whatever integrity metadata they carry.
FORMAT_VERSION = 3

#: Header fields that form the integrity envelope around the body: the
#: ``meta_crc32`` is computed over every *other* field, so the body a
#: reader re-checks is derived by stripping these.
ENVELOPE_FIELDS = ("version", "meta_crc32", "payload_crc32")

#: Signature of an audit recorder callback: (path, op, offset, size).
Recorder = Callable[[str, str, int, int], None]


def as_recorder(recorder) -> Optional[Recorder]:
    """Normalize a recorder argument to a plain callback.

    Accepts ``None``, a bare callable, or an audit-session-like object —
    anything exposing a ``recorder`` property (the session's block-recorder
    callback) or a ``record`` method.  Duck-typed on
    purpose: ``arraymodel`` sits below ``audit`` in the layer DAG and must
    not import it.
    """
    if recorder is None or callable(recorder):
        return recorder
    fast = getattr(recorder, "recorder", None)
    if callable(fast):
        return fast
    bound = getattr(recorder, "record", None)
    if callable(bound):
        return bound
    raise FileFormatError(
        f"recorder {recorder!r} is neither a callable nor an audit session"
    )


def meta_crc32(body: dict) -> int:
    """CRC32 of a header body's canonical JSON form (sorted keys, no
    whitespace).

    ``body`` is JSON-native with ``str`` keys (dicts, lists or tuples,
    ints, strs, floats, None), as every header writer builds it.  ``json``
    writes a tuple as the list a reader parses back, so the checksum a
    writer stores and the one a reader recomputes from the parsed header
    are taken over byte-identical text without a JSON round trip.
    """
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def checked_header(body: dict, payload_crc: int) -> bytes:
    """Serialize a current-version header with integrity fields for
    ``body`` (which, for v3 writers, includes the span table)."""
    header = dict(body)
    header["version"] = FORMAT_VERSION
    header["meta_crc32"] = meta_crc32(body)
    header["payload_crc32"] = payload_crc & 0xFFFFFFFF
    return json.dumps(header).encode("utf-8")


def header_body(header: dict) -> dict:
    """The checksummed body of a header: everything but the envelope."""
    return {k: v for k, v in header.items() if k not in ENVELOPE_FIELDS}


def verify_header(path: str, header: dict) -> None:
    """Validate a parsed header's version and (if present) its meta CRC.

    The body the CRC covers is derived from the header itself
    (:func:`header_body`), so every version — v2's bare body, v3's body
    with a span table — verifies through the same path.
    """
    version = header.get("version", 1)
    if not isinstance(version, int) or version < 1 or version > FORMAT_VERSION:
        raise FileFormatError(
            f"{path}: unsupported format version {version!r} "
            f"(this reader supports <= {FORMAT_VERSION})"
        )
    stored = header.get("meta_crc32")
    body = header_body(header)
    if stored is not None and stored != meta_crc32(body):
        raise FileFormatError(
            f"{path}: header checksum mismatch "
            f"(stored {stored}, computed {meta_crc32(body)}) — "
            f"the header is corrupt"
        )


def verify_payload_crc(path: str, fh, payload_start: int, nbytes: int,
                       stored) -> None:
    """Stream-verify the payload CRC when the header carries one."""
    if stored is None:
        return
    try:
        stored = int(stored)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(
            f"{path}: malformed payload_crc32 field {stored!r}"
        ) from exc
    fh.seek(payload_start)
    crc = 0
    remaining = nbytes
    while remaining > 0:
        chunk = fh.read(min(remaining, 1 << 22))
        if not chunk:
            raise FileFormatError(f"{path}: payload truncated during verify")
        crc = zlib.crc32(chunk, crc)
        remaining -= len(chunk)
    if crc != stored:
        raise FileFormatError(
            f"{path}: payload checksum mismatch "
            f"(stored {stored}, computed {crc}) — the payload is corrupt"
        )


def _numpy_dtype(code: str) -> np.dtype:
    """Map a schema dtype code to a numpy dtype of the same width."""
    if code == "f16":
        dt = np.dtype(np.longdouble)
        if dt.itemsize == 16:
            return dt
        # Platforms without 16-byte long double: store as 16 raw bytes.
        return np.dtype("V16")
    return np.dtype(code)


#: ``struct`` codes (standard sizes, native order) of the numpy scalar
#: types a KND element can have; 16-byte long doubles have none.
_STRUCT_CODES = {("u", 1): "B", ("i", 4): "i", ("i", 8): "q",
                 ("f", 4): "f", ("f", 8): "d"}


def _scalar_decoder(dt: np.dtype) -> Callable[[bytes], float]:
    """The cheapest ``raw element bytes -> float`` decoder for ``dt``."""
    if dt.kind == "V":
        # f16 fallback cells carry the float64 value in their first 8 bytes.
        head = struct.Struct("=d").unpack_from
        return lambda raw: head(raw)[0]
    code = _STRUCT_CODES.get((dt.kind, dt.itemsize))
    if code is None:
        return lambda raw: float(np.frombuffer(raw, dtype=dt)[0])
    unpack = struct.Struct("=" + code).unpack
    return lambda raw: float(unpack(raw)[0])


class ArrayFile:
    """A readable (and creatable) KND data file.

    Use :meth:`create` to write a file and :meth:`open` to read one.  All
    element reads go through the (optional) audit recorder, which is how
    Kondo's fine-grained lineage observes which byte ranges a run touches.
    """

    def __init__(self, path: str, schema: ArraySchema, header_size: int,
                 recorder: Optional[Recorder] = None,
                 span_table: Optional[SpanTable] = None):
        self.path = path
        self.schema = schema
        self.layout: Layout = make_layout(schema)
        #: Per-span CRC directory (v3 files); ``None`` for v1/v2.
        self.span_table = span_table
        self._payload_start = header_size
        self._recorder = as_recorder(recorder)
        # Per-read constants, resolved once: element dtype and decoder,
        # item size, and (row-major files) the byte stride of each axis.
        self._dtype = _numpy_dtype(schema.dtype)
        self._decode_scalar = _scalar_decoder(self._dtype)
        self._itemsize = schema.itemsize
        self._byte_strides = None if schema.chunks is not None else tuple(
            s * self._itemsize for s in row_major_strides(schema.dims))
        self._fh = open(path, "rb", buffering=0)
        self._closed = False

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        schema: ArraySchema,
        data: Optional[np.ndarray] = None,
        fill: float = 0.0,
    ) -> "ArrayFile":
        """Write a KND file and return it opened for reading.

        Args:
            path: destination file path.
            schema: array metadata; decides payload layout.
            data: optional array of shape ``schema.dims``; filled with
                ``fill`` when omitted.
            fill: value used for omitted data and chunk padding.
        """
        np_dtype = _numpy_dtype(schema.dtype)
        if data is None:
            arr = np.full(schema.dims, fill, dtype=np_dtype if np_dtype.kind != "V" else "f8")
            if np_dtype.kind == "V":
                arr = _pack_void(arr, np_dtype)
        else:
            data = np.asarray(data)
            if tuple(data.shape) != schema.dims:
                raise FileFormatError(
                    f"data shape {data.shape} != schema dims {schema.dims}"
                )
            if np_dtype.kind == "V":
                arr = _pack_void(data.astype("f8"), np_dtype)
            else:
                arr = np.ascontiguousarray(data, dtype=np_dtype)
        payload = cls._encode_payload(arr, schema, np_dtype, fill)
        spans = build_span_table(payload, span_size_for(schema, len(payload)))
        header = checked_header(
            {"schema": schema.to_dict(), "spans": spans.to_dict()},
            zlib.crc32(payload),
        )
        with atomic_write(path) as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            fh.write(payload)
        return cls.open(path)

    @staticmethod
    def _encode_payload(arr: np.ndarray, schema: ArraySchema,
                        np_dtype: np.dtype, fill: float) -> bytes:
        if schema.chunks is None:
            return arr.tobytes(order="C")
        # Chunk-padded encoding: iterate the chunk grid row-major, pad edges.
        from repro.arraymodel.chunked import ChunkedLayout

        layout = ChunkedLayout(schema)
        parts = []
        pad_scalar = (
            np.zeros((), dtype=np_dtype)
            if np_dtype.kind == "V"
            else np.asarray(fill, dtype=np_dtype)
        )
        for num in range(layout.n_chunks):
            coord = np.unravel_index(num, layout.grid)
            sl = tuple(
                slice(c * cs, min((c + 1) * cs, d))
                for c, cs, d in zip(coord, schema.chunks, schema.dims)
            )
            block = arr[sl]
            if block.shape != schema.chunks:
                padded = np.full(schema.chunks, pad_scalar, dtype=np_dtype)
                padded[tuple(slice(0, s) for s in block.shape)] = block
                block = padded
            parts.append(np.ascontiguousarray(block).tobytes(order="C"))
        return b"".join(parts)

    @classmethod
    def open(cls, path: str, recorder: Optional[Recorder] = None,
             verify_checksum: bool = True) -> "ArrayFile":
        """Open an existing KND file, optionally attaching an audit recorder.

        ``recorder`` may be a plain ``(path, op, offset, size)`` callback
        or an :class:`~repro.audit.session.AuditSession` — sessions are
        unwrapped to their block-recorder callback via
        :func:`as_recorder`.

        Version-2 files carry CRC32 checksums; ``verify_checksum=True``
        (the default) verifies the header unconditionally and streams the
        payload once to verify its CRC, so corruption surfaces here as
        :class:`FileFormatError` instead of garbage floats later.
        Version-1 files (no checksum fields) open as before.
        """
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise FileFormatError(f"{path}: bad magic {magic!r}")
            hlen_bytes = fh.read(4)
            if len(hlen_bytes) != 4:
                raise FileFormatError(f"{path}: truncated header length")
            hlen = int.from_bytes(hlen_bytes, "little")
            raw = fh.read(hlen)
            if len(raw) != hlen:
                raise FileFormatError(f"{path}: truncated header")
            try:
                header = json.loads(raw.decode("utf-8"))
                schema = ArraySchema.from_dict(header["schema"])
            except (ValueError, KeyError) as exc:
                raise FileFormatError(f"{path}: malformed header: {exc}") from exc
            verify_header(path, header)
            spans = parse_optional_spans(header)
        f = cls(path, schema, header_size=8 + hlen, recorder=recorder,
                span_table=spans)
        if spans is not None and spans.payload_nbytes != f.layout.payload_nbytes:
            f.close()
            raise FileFormatError(
                f"{path}: span table covers {spans.payload_nbytes} bytes "
                f"but the layout payload is {f.layout.payload_nbytes} bytes"
            )
        expected = f._payload_start + f.layout.payload_nbytes
        actual = os.path.getsize(path)
        if actual < expected:
            f.close()
            raise FileFormatError(
                f"{path}: payload truncated ({actual} < {expected} bytes)"
            )
        if verify_checksum and header.get("payload_crc32") is not None:
            # A separate plain handle: checksum verification is not an
            # audited access of the program under test.
            try:
                with open(path, "rb") as vfh:
                    verify_payload_crc(
                        path, vfh, f._payload_start,
                        f.layout.payload_nbytes,
                        header["payload_crc32"],
                    )
            except FileFormatError:
                f.close()
                raise
        return f

    # -- reading -----------------------------------------------------------

    def _read_payload(self, offset: int, size: int, op: str = "read") -> bytes:
        """Issue a real seek+read at a payload-relative offset, auditing it."""
        if self._closed:
            raise FileFormatError(f"{self.path}: file is closed")
        self._fh.seek(self._payload_start + offset)
        buf = self._fh.read(size)
        if self._recorder is not None:
            self._recorder(self.path, op, offset, len(buf))
        return buf

    def read_point(self, index: Sequence[int]):
        """Read the single element at a d-dimensional ``index``."""
        strides = self._byte_strides
        if strides is None:
            off = self.layout.offset_of(index)
        else:
            # Row-major offset inline, with flatten_index's checks.
            dims = self.schema.dims
            if len(index) != len(dims):
                raise LayoutError(
                    f"index rank {len(index)} != array rank {len(dims)}")
            off = 0
            for i, d, s in zip(index, dims, strides):
                if not 0 <= i < d:
                    raise LayoutError(f"index {tuple(index)} out of bounds "
                                      f"for dims {tuple(dims)}")
                off += i * s
        return self._decode_scalar(self._read_payload(off, self._itemsize))

    def read_extent(self, offset: int, size: int) -> bytes:
        """Read an arbitrary payload byte range (chunk reads, mmap-style)."""
        if offset < 0 or size < 0 or offset + size > self.layout.payload_nbytes:
            raise LayoutError(
                f"extent [{offset}, {offset + size}) outside payload of "
                f"{self.layout.payload_nbytes} bytes"
            )
        return self._read_payload(offset, size)

    def read_box(self, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
        """Read the hyper-rectangular block ``[lo, hi)`` (exclusive upper).

        Rows contiguous along the last axis are fetched with one read each,
        which mirrors how HDF5 hyperslab selections hit the file.
        """
        lo = tuple(int(x) for x in lo)
        hi = tuple(int(x) for x in hi)
        if len(lo) != self.schema.ndim or len(hi) != self.schema.ndim:
            raise LayoutError("box rank mismatch")
        if any(a < 0 or b > d or a >= b
               for a, b, d in zip(lo, hi, self.schema.dims)):
            raise LayoutError(f"box [{lo}, {hi}) out of bounds")
        shape = tuple(b - a for a, b in zip(lo, hi))
        out = np.empty(shape, dtype="f8")
        it = np.ndindex(*shape[:-1]) if len(shape) > 1 else iter([()])
        for prefix in it:
            index = tuple(a + p for a, p in zip(lo, prefix)) + (lo[-1],)
            run_start = self.layout.offset_of(index)
            # Only row-major flat rows are guaranteed contiguous; chunked
            # layouts fall back to element reads across chunk boundaries.
            if self.schema.chunks is None:
                raw = self._read_payload(
                    run_start, shape[-1] * self.schema.itemsize
                )
                out[prefix] = self._decode_vector(raw)
            else:
                for k in range(shape[-1]):
                    idx = index[:-1] + (lo[-1] + k,)
                    out[prefix + (k,)] = self.read_point(idx)
        return out

    def _decode_vector(self, raw: bytes) -> np.ndarray:
        dt = self._dtype
        if dt.kind == "V":
            return np.frombuffer(raw, dtype="V16").view("f8")[::2].astype("f8")
        return np.frombuffer(raw, dtype=dt).astype("f8")

    # -- integrity ----------------------------------------------------------

    def verify_spans(self) -> Optional[list]:
        """Classify every payload span (v3 files); ``None`` for v1/v2.

        Uses a separate plain handle: integrity verification is not an
        audited access of the program under test.
        """
        if self.span_table is None:
            return None
        with open(self.path, "rb") as vfh:
            return self.span_table.classify_stream(vfh, self._payload_start)

    # -- lifecycle ---------------------------------------------------------

    @property
    def file_nbytes(self) -> int:
        """Total on-disk size of the file."""
        return os.path.getsize(self.path)

    def close(self) -> None:
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "ArrayFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _pack_void(arr: np.ndarray, void_dt: np.dtype) -> np.ndarray:
    """Pack float64 data into 16-byte void cells (f16 fallback encoding)."""
    flat = np.ascontiguousarray(arr, dtype="f8")
    out = np.zeros(arr.shape, dtype=void_dt)
    raw = out.view("u1").reshape(arr.size, 16)
    raw[:, :8] = flat.view("u1").reshape(arr.size, 8)
    return out
