"""KND/KNDS integrity: CRC checksums catch corruption as FileFormatError.

Every corruption — truncation, bad magic, flipped header bytes, flipped
payload bytes — must surface as :class:`FileFormatError` at open time,
never as ``struct.error``/``IndexError``/``UnicodeDecodeError`` leaking
from the parser, and never as silently-garbage floats at read time.
Version-1 files (headers without checksum fields) must stay readable.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.arraymodel import ArrayFile, ArraySchema, DebloatedArrayFile
from repro.arraymodel.datafile import FORMAT_VERSION, meta_crc32
from repro.errors import FileFormatError
from tests.chaos.faults import corrupt_file

DIMS = (6, 6)


@pytest.fixture
def knd(tmp_path):
    data = np.arange(36, dtype="f8").reshape(DIMS)
    path = str(tmp_path / "f.knd")
    ArrayFile.create(path, ArraySchema(DIMS, "f8"), data).close()
    return path


@pytest.fixture
def knds(tmp_path, knd):
    path = str(tmp_path / "f.knds")
    with ArrayFile.open(knd) as source:
        DebloatedArrayFile.create(
            path, source, keep_flat_indices=np.arange(12, dtype=np.int64)
        ).close()
    return path


def _header(path):
    """Parse (header_dict, header_start, payload_start) of a KND/KNDS file."""
    with open(path, "rb") as fh:
        fh.seek(4)
        hlen = int.from_bytes(fh.read(4), "little")
        raw = fh.read(hlen)
    return json.loads(raw.decode("utf-8")), 8, 8 + hlen


def _rewrite_header(path, header):
    """Replace a file's JSON header in place, keeping the payload."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        hlen = int.from_bytes(fh.read(4), "little")
        fh.seek(8 + hlen)
        payload = fh.read()
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(raw)) + raw + payload)


class TestWrittenHeaders:
    def test_files_carry_version_and_checksums(self, knd, knds):
        for path in (knd, knds):
            header, _, _ = _header(path)
            assert header["version"] == FORMAT_VERSION
            assert isinstance(header["meta_crc32"], int)
            assert isinstance(header["payload_crc32"], int)

    def test_payload_crc_matches_payload_bytes(self, knd):
        header, _, payload_start = _header(knd)
        with open(knd, "rb") as fh:
            fh.seek(payload_start)
            payload = fh.read()
        assert header["payload_crc32"] == zlib.crc32(payload)


class TestCorruptKnd:
    def test_bad_magic(self, knd):
        corrupt_file(knd, mode="flip", offset=0)
        with pytest.raises(FileFormatError, match="magic"):
            ArrayFile.open(knd)

    def test_truncated_to_nothing(self, knd):
        corrupt_file(knd, mode="truncate", offset=2)
        with pytest.raises(FileFormatError):
            ArrayFile.open(knd)

    def test_truncated_inside_header(self, knd):
        corrupt_file(knd, mode="truncate", offset=20)
        with pytest.raises(FileFormatError):
            ArrayFile.open(knd)

    def test_truncated_inside_payload(self, knd):
        import os

        corrupt_file(knd, mode="truncate", offset=os.path.getsize(knd) - 9)
        with pytest.raises(FileFormatError):
            ArrayFile.open(knd)

    def test_flipped_header_byte(self, knd):
        # Flip one byte inside the JSON header (after magic + length).
        corrupt_file(knd, mode="flip", offset=12)
        with pytest.raises(FileFormatError):
            ArrayFile.open(knd)

    def test_flipped_payload_byte(self, knd):
        import os

        corrupt_file(knd, mode="flip", offset=os.path.getsize(knd) - 5)
        with pytest.raises(FileFormatError, match="payload checksum"):
            ArrayFile.open(knd)

    def test_flipped_payload_byte_skippable(self, knd):
        import os

        corrupt_file(knd, mode="flip", offset=os.path.getsize(knd) - 5)
        f = ArrayFile.open(knd, verify_checksum=False)
        f.close()

    def test_every_single_byte_corruption_is_controlled(self, tmp_path):
        """Exhaustive sweep: flipping ANY single byte either raises
        FileFormatError at open or is caught by the payload CRC — no
        uncontrolled exception type ever escapes."""
        data = np.arange(16, dtype="f8").reshape(4, 4)
        ref = str(tmp_path / "ref.knd")
        ArrayFile.create(ref, ArraySchema((4, 4), "f8"), data).close()
        with open(ref, "rb") as fh:
            blob = fh.read()
        victim = str(tmp_path / "victim.knd")
        for offset in range(len(blob)):
            with open(victim, "wb") as fh:
                fh.write(blob)
            corrupt_file(victim, mode="flip", offset=offset)
            with pytest.raises(FileFormatError):
                ArrayFile.open(victim)


class TestCorruptKnds:
    def test_flipped_payload_byte(self, knds):
        import os

        corrupt_file(knds, mode="flip", offset=os.path.getsize(knds) - 5)
        with pytest.raises(FileFormatError, match="payload checksum"):
            DebloatedArrayFile.open(knds)

    def test_flipped_header_byte(self, knds):
        corrupt_file(knds, mode="flip", offset=12)
        with pytest.raises(FileFormatError):
            DebloatedArrayFile.open(knds)

    def test_truncated(self, knds):
        import os

        corrupt_file(knds, mode="truncate",
                     offset=os.path.getsize(knds) - 4)
        with pytest.raises(FileFormatError):
            DebloatedArrayFile.open(knds)


class TestBackwardCompatibility:
    def test_version1_header_without_checksums_still_opens(self, knd):
        header, _, _ = _header(knd)
        v1 = {"schema": header["schema"]}  # no version/CRC fields at all
        _rewrite_header(knd, v1)
        with ArrayFile.open(knd) as f:
            assert f.read_point((2, 3)) == 15.0

    def test_explicit_version1_opens(self, knd):
        header, _, _ = _header(knd)
        _rewrite_header(knd, {"schema": header["schema"], "version": 1})
        ArrayFile.open(knd).close()

    def test_future_version_rejected(self, knd):
        header, _, _ = _header(knd)
        _rewrite_header(
            knd, {"schema": header["schema"], "version": FORMAT_VERSION + 1}
        )
        with pytest.raises(FileFormatError, match="version"):
            ArrayFile.open(knd)

    def test_malformed_crc_field_is_format_error(self, knd):
        header, _, _ = _header(knd)
        body = {"schema": header["schema"]}
        bad = dict(body)
        bad["version"] = FORMAT_VERSION
        bad["meta_crc32"] = meta_crc32(body)
        bad["payload_crc32"] = "not-a-number"
        _rewrite_header(knd, bad)
        with pytest.raises(FileFormatError, match="payload_crc32"):
            ArrayFile.open(knd)

    def test_tampered_meta_crc_detected(self, knd):
        header, _, _ = _header(knd)
        header["meta_crc32"] = (header["meta_crc32"] + 1) & 0xFFFFFFFF
        _rewrite_header(knd, header)
        with pytest.raises(FileFormatError, match="header checksum"):
            ArrayFile.open(knd)


def _round_trip_crc(body):
    """The meta CRC's former definition: a JSON round trip, then the
    canonical dump."""
    canonical = json.dumps(json.loads(json.dumps(body)), sort_keys=True,
                           separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


class TestMetaCrcCanonicalForm:
    """``meta_crc32`` dumps the body directly.  For every header kind
    (KND, KNDS, bundle, journal patch), on the body its writer checksums
    and on the body a reader parses back, that equals the round-trip
    form, so no stored checksum changes."""

    def test_every_header_kind(self, tmp_path, monkeypatch):
        from repro.arraymodel import datafile
        from repro.arraymodel.bundle import BundleFile
        from repro.resilience.durability import journal

        bodies = []

        def recording(body):
            bodies.append(body)
            return meta_crc32(body)

        monkeypatch.setattr(datafile, "meta_crc32", recording)
        monkeypatch.setattr(journal, "meta_crc32", recording)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 40))
        for name, chunks in (("row.knd", None), ("chunked.knd", (7, 9))):
            knd = str(tmp_path / name)
            ArrayFile.create(knd, ArraySchema((40, 40), "f8", chunks=chunks),
                             data).close()
            ArrayFile.open(knd).close()
            keep = np.flatnonzero(rng.random(1600) < 0.4).astype(np.int64)
            knds = str(tmp_path / (name + "s"))
            with ArrayFile.open(knd) as source:
                DebloatedArrayFile.create(knds, source,
                                          keep_flat_indices=keep).close()
            DebloatedArrayFile.open(knds).close()
        bundle = str(tmp_path / "b.knb")
        BundleFile.create(bundle, {
            "t": (ArraySchema((8, 8), "f8"), data[:8, :8]),
            "z": (ArraySchema((4, 4), "f4"), None),
        }).close()
        BundleFile.open(bundle).close()
        patch = str(tmp_path / "p.patch")
        journal.write_patch(patch, journal.PatchFile(
            extents=((0, 16), (64, 8)), payload=bytes(range(24))))
        journal.read_patch(patch)
        written = [b for b in bodies if "schema" in b]
        assert any("extents" not in b for b in written)  # KND
        assert any("extents" in b for b in written)  # KNDS
        assert any("members" in b for b in bodies)  # bundle
        assert any("payload_crc32" in b for b in bodies)  # journal patch
        for body in bodies:
            assert meta_crc32(body) == _round_trip_crc(body)
