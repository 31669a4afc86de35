"""Unit tests for the KND array file format."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel import ArrayFile, ArraySchema, datafile
from repro.errors import FileFormatError, LayoutError


class TestCreateOpen:
    def test_roundtrip_values(self, knd_file, small_data):
        for idx in [(0, 0), (3, 4), (9, 9), (5, 0)]:
            assert knd_file.read_point(idx) == small_data[idx]

    def test_default_fill(self, tmp_path):
        f = ArrayFile.create(
            str(tmp_path / "z.knd"), ArraySchema((4, 4), "f8"), fill=7.0
        )
        assert f.read_point((2, 2)) == 7.0
        f.close()

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(FileFormatError):
            ArrayFile.create(
                str(tmp_path / "x.knd"),
                ArraySchema((4, 4), "f8"),
                np.zeros((3, 3)),
            )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.knd"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FileFormatError):
            ArrayFile.open(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trunc.knd"
        path.write_bytes(b"KND1" + (1000).to_bytes(4, "little") + b"{}")
        with pytest.raises(FileFormatError):
            ArrayFile.open(str(path))

    def test_truncated_payload_rejected(self, tmp_path, small_data):
        path = str(tmp_path / "p.knd")
        ArrayFile.create(path, ArraySchema((10, 10), "f8"), small_data).close()
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[:-16])
        with pytest.raises(FileFormatError):
            ArrayFile.open(path)

    def test_malformed_header_json(self, tmp_path):
        body = b"not json"
        path = tmp_path / "j.knd"
        path.write_bytes(b"KND1" + len(body).to_bytes(4, "little") + body)
        with pytest.raises(FileFormatError):
            ArrayFile.open(str(path))

    def test_file_nbytes(self, knd_file):
        assert knd_file.file_nbytes > 100 * 8

    def test_context_manager_closes(self, tmp_path, small_data):
        path = str(tmp_path / "cm.knd")
        with ArrayFile.create(path, ArraySchema((10, 10), "f8"), small_data) as f:
            assert f.read_point((1, 1)) == 11.0
        with pytest.raises(FileFormatError):
            f.read_point((1, 1))


class TestReads:
    def test_read_box(self, knd_file, small_data):
        box = knd_file.read_box((2, 3), (5, 7))
        assert np.array_equal(box, small_data[2:5, 3:7])

    def test_read_box_full(self, knd_file, small_data):
        box = knd_file.read_box((0, 0), (10, 10))
        assert np.array_equal(box, small_data)

    def test_read_box_out_of_bounds(self, knd_file):
        with pytest.raises(LayoutError):
            knd_file.read_box((0, 0), (11, 10))
        with pytest.raises(LayoutError):
            knd_file.read_box((5, 5), (5, 6))  # empty first axis

    def test_read_extent_bounds(self, knd_file):
        data = knd_file.read_extent(0, 16)
        assert len(data) == 16
        with pytest.raises(LayoutError):
            knd_file.read_extent(0, 10_000)
        with pytest.raises(LayoutError):
            knd_file.read_extent(-8, 8)

    def test_chunked_values(self, chunked_knd_file, small_data):
        for idx in [(0, 0), (3, 3), (4, 4), (9, 9), (7, 2), (2, 7)]:
            assert chunked_knd_file.read_point(idx) == small_data[idx]

    def test_chunked_box(self, chunked_knd_file, small_data):
        box = chunked_knd_file.read_box((2, 2), (7, 8))
        assert np.array_equal(box, small_data[2:7, 2:8])


class TestDtypes:
    @pytest.mark.parametrize("dtype", ["f4", "f8", "f16", "i4", "i8"])
    def test_roundtrip_each_dtype(self, tmp_path, dtype):
        data = np.arange(12).reshape(3, 4)
        path = str(tmp_path / f"{dtype}.knd")
        with ArrayFile.create(path, ArraySchema((3, 4), dtype), data) as f:
            assert f.read_point((2, 3)) == 11.0
            assert f.read_point((0, 0)) == 0.0

    def test_audit_recorder_called(self, tmp_path, small_data):
        events = []
        path = str(tmp_path / "r.knd")
        ArrayFile.create(path, ArraySchema((10, 10), "f8"), small_data).close()
        with ArrayFile.open(
            path, recorder=lambda p, op, off, sz: events.append((p, op, off, sz))
        ) as f:
            f.read_point((1, 1))
        assert events == [(path, "read", 11 * 8, 8)]


#: Value ranges that survive a round trip through each element dtype.
_SOURCE_VALUES = {
    "u1": st.integers(0, 255),
    "i4": st.integers(-2**31, 2**31 - 1),
    "f8": st.floats(allow_nan=False, allow_infinity=False),
    "f16": st.floats(allow_nan=False, allow_infinity=False),
}


@st.composite
def point_files(draw):
    """A random small array, its dtype, an optional chunking, and whether
    ``f16`` uses the 16-byte void fallback encoding."""
    dtype = draw(st.sampled_from(sorted(_SOURCE_VALUES)))
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    values = draw(st.lists(_SOURCE_VALUES[dtype], min_size=int(np.prod(dims)),
                           max_size=int(np.prod(dims))))
    chunks = draw(st.none() | st.tuples(
        *(st.integers(1, d + 1) for d in dims)))
    void_f16 = dtype == "f16" and draw(st.booleans())
    return dtype, np.array(values).reshape(dims), chunks, void_f16


class TestReadPointProperty:
    @settings(max_examples=80, deadline=None)
    @given(spec=point_files(), data=st.data())
    def test_read_point_equals_source_and_rejects_out_of_range(self, spec,
                                                               data):
        dtype, source, chunks, void_f16 = spec
        dims = source.shape
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
                datafile, "_numpy_dtype",
                (lambda code: np.dtype("V16")) if void_f16
                else datafile._numpy_dtype):
            path = os.path.join(tmp, "p.knd")
            ArrayFile.create(path, ArraySchema(dims, dtype, chunks=chunks),
                             source).close()
            calls = []
            with ArrayFile.open(path, recorder=lambda *a: calls.append(a)
                                ) as f:
                for index in np.ndindex(*dims):
                    assert f.read_point(index) == float(source[index])
                assert len(calls) == source.size
                axis = data.draw(st.integers(0, len(dims) - 1))
                bad = list(data.draw(st.sampled_from(list(np.ndindex(*dims)))))
                bad[axis] = data.draw(st.sampled_from(
                    [-1, dims[axis], dims[axis] + 7]))
                with pytest.raises(LayoutError):
                    f.read_point(tuple(bad))
                with pytest.raises(LayoutError):
                    f.read_point(tuple(bad[:-1]) + (0, 0))
                assert len(calls) == source.size
            with pytest.raises(FileFormatError):
                f.read_point((0,) * len(dims))
