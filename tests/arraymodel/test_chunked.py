"""Unit + property tests for the chunked layout bijection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel import ArraySchema, ChunkedLayout, RowMajorLayout, make_layout
from repro.errors import LayoutError, SchemaError


def layout_10x10():
    return ChunkedLayout(ArraySchema((10, 10), "f8", chunks=(4, 4)))


class TestChunkedLayoutBasics:
    def test_requires_chunks(self):
        with pytest.raises(SchemaError):
            ChunkedLayout(ArraySchema((4, 4), "f8"))

    def test_make_layout_dispatch(self):
        assert isinstance(make_layout(ArraySchema((4, 4), "f8")), RowMajorLayout)
        assert isinstance(
            make_layout(ArraySchema((4, 4), "f8", chunks=(2, 2))), ChunkedLayout
        )

    def test_payload_includes_padding(self):
        lay = layout_10x10()
        # 3x3 chunk grid, each chunk 16 elements of 8 bytes.
        assert lay.n_chunks == 9
        assert lay.payload_nbytes == 9 * 16 * 8

    def test_chunk_of(self):
        lay = layout_10x10()
        assert lay.chunk_of((0, 0)) == (0, 0)
        assert lay.chunk_of((3, 3)) == (0, 0)
        assert lay.chunk_of((4, 0)) == (1, 0)
        assert lay.chunk_of((9, 9)) == (2, 2)

    def test_chunk_byte_range(self):
        lay = layout_10x10()
        start, size = lay.chunk_byte_range((0, 0))
        assert (start, size) == (0, 128)
        start, size = lay.chunk_byte_range((0, 1))
        assert (start, size) == (128, 128)

    def test_first_chunk_is_row_major_within(self):
        lay = layout_10x10()
        assert lay.offset_of((0, 0)) == 0
        assert lay.offset_of((0, 1)) == 8
        assert lay.offset_of((1, 0)) == 4 * 8

    def test_second_chunk_offset(self):
        lay = layout_10x10()
        # (0, 4) is the first element of chunk (0, 1).
        assert lay.offset_of((0, 4)) == 128

    def test_out_of_bounds_raises(self):
        lay = layout_10x10()
        with pytest.raises(LayoutError):
            lay.offset_of((10, 0))

    def test_padding_offset_raises(self):
        lay = layout_10x10()
        # Chunk (2, 2) covers indices 8..9 in each dim; its within-chunk
        # cell (2, 2) would be logical index (10, 10) -> padding.
        pad_offset = lay.chunk_byte_range((2, 2))[0] + (2 * 4 + 2) * 8
        with pytest.raises(LayoutError):
            lay.index_of(pad_offset)
        assert lay.is_padding(pad_offset)

    def test_unaligned_offset_raises(self):
        with pytest.raises(LayoutError):
            layout_10x10().index_of(3)


class TestChunkedBijection:
    @given(st.tuples(st.integers(0, 9), st.integers(0, 9)))
    @settings(max_examples=100)
    def test_roundtrip_every_index(self, idx):
        lay = layout_10x10()
        assert lay.index_of(lay.offset_of(idx)) == idx

    def test_offsets_are_unique(self):
        lay = layout_10x10()
        offsets = {
            lay.offset_of((i, j)) for i in range(10) for j in range(10)
        }
        assert len(offsets) == 100

    def test_vectorized_matches_scalar(self):
        lay = layout_10x10()
        idx = np.array([[i, j] for i in range(10) for j in range(10)])
        offs = lay.offsets_of(idx)
        for row, off in zip(idx, offs):
            assert lay.offset_of(tuple(row)) == off

    def test_vectorized_out_of_bounds(self):
        with pytest.raises(LayoutError):
            layout_10x10().offsets_of(np.array([[10, 0]]))

    def test_3d_roundtrip(self):
        lay = ChunkedLayout(ArraySchema((5, 6, 7), "f4", chunks=(2, 3, 4)))
        for idx in [(0, 0, 0), (4, 5, 6), (2, 3, 4), (1, 1, 1)]:
            assert lay.index_of(lay.offset_of(idx)) == idx


class TestChunkedIndicesInRange:
    def test_whole_chunk_maps_to_its_cells(self):
        lay = layout_10x10()
        start, size = lay.chunk_byte_range((0, 0))
        idx = {tuple(r) for r in lay.indices_in_range(start, size)}
        assert idx == {(i, j) for i in range(4) for j in range(4)}

    def test_padding_excluded(self):
        lay = layout_10x10()
        start, size = lay.chunk_byte_range((2, 2))
        idx = {tuple(r) for r in lay.indices_in_range(start, size)}
        # Only the 2x2 real corner of the edge chunk.
        assert idx == {(i, j) for i in (8, 9) for j in (8, 9)}

    def test_full_payload_covers_all_cells(self):
        lay = layout_10x10()
        idx = lay.indices_in_range(0, lay.payload_nbytes)
        assert idx.shape == (100, 2)


@st.composite
def chunked_ranges(draw):
    """A chunked layout (edge chunks padded when chunks do not divide the
    dims) and byte ranges that may be empty, unaligned, or run past the
    payload."""
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    chunks = tuple(draw(st.integers(1, d + 2)) for d in dims)
    dtype = draw(st.sampled_from(["u1", "i4", "f8"]))
    lay = ChunkedLayout(ArraySchema(dims, dtype, chunks=chunks))
    bound = lay.payload_nbytes + 24
    ranges = draw(st.lists(st.tuples(st.integers(-8, bound),
                                     st.integers(-4, 40)), max_size=12))
    return lay, ranges


class TestChunkedIndicesInRangesProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=chunked_ranges())
    def test_batched_equals_concatenated_singles(self, case):
        lay, ranges = case
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        sizes = np.array([z for _, z in ranges], dtype=np.int64)
        got = lay.indices_in_ranges(starts, sizes)
        want = [lay.indices_in_range(s, z) for s, z in ranges]
        want = (np.concatenate(want, axis=0) if want
                else np.empty((0, lay.schema.ndim), dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        # Each single range resolves to exactly the cells whose bytes
        # overlap it (padding has no cell, so it never shows).
        cells = list(np.ndindex(*lay.schema.dims))
        offsets = [lay.offset_of(c) for c in cells]
        item = lay.schema.itemsize
        for s, z in ranges:
            brute = {c for c, o in zip(cells, offsets)
                     if z > 0 and o < s + z and o + item > s}
            assert {tuple(r) for r in lay.indices_in_range(s, z)} == brute
