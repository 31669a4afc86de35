"""Unit + property tests for the row-major layout bijection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel import ArraySchema, RowMajorLayout
from repro.arraymodel.debloated import extents_from_flat_indices
from repro.arraymodel.layout import (
    flatten_index,
    flatten_many,
    row_major_strides,
    unflatten_index,
    unflatten_many,
)
from repro.errors import LayoutError

dims_strategy = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)


class TestFlatten:
    def test_2d_known_values(self):
        dims = (4, 5)
        assert flatten_index((0, 0), dims) == 0
        assert flatten_index((0, 4), dims) == 4
        assert flatten_index((1, 0), dims) == 5
        assert flatten_index((3, 4), dims) == 19

    def test_out_of_bounds_raises(self):
        with pytest.raises(LayoutError):
            flatten_index((4, 0), (4, 5))
        with pytest.raises(LayoutError):
            flatten_index((0, -1), (4, 5))

    def test_rank_mismatch_raises(self):
        with pytest.raises(LayoutError):
            flatten_index((1, 2, 3), (4, 5))

    def test_strides_row_major(self):
        assert row_major_strides((4, 5, 6)) == (30, 6, 1)
        assert row_major_strides((7,)) == (1,)

    @given(dims_strategy, st.data())
    @settings(max_examples=60)
    def test_roundtrip_property(self, dims, data):
        index = tuple(
            data.draw(st.integers(0, d - 1)) for d in dims
        )
        flat = flatten_index(index, dims)
        assert unflatten_index(flat, dims) == index

    @given(dims_strategy)
    @settings(max_examples=40)
    def test_flatten_is_bijection(self, dims):
        n = int(np.prod(dims))
        flats = flatten_many(
            unflatten_many(np.arange(n), dims), dims
        )
        assert np.array_equal(flats, np.arange(n))

    def test_vectorized_matches_scalar(self):
        dims = (3, 4, 5)
        idx = np.array([[0, 0, 0], [2, 3, 4], [1, 2, 3]])
        flats = flatten_many(idx, dims)
        for row, f in zip(idx, flats):
            assert flatten_index(tuple(row), dims) == f

    def test_unflatten_many_out_of_bounds(self):
        with pytest.raises(LayoutError):
            unflatten_many(np.array([100]), (4, 5))

    def test_flatten_many_out_of_bounds(self):
        with pytest.raises(LayoutError):
            flatten_many(np.array([[4, 0]]), (4, 5))


class TestRowMajorLayout:
    def test_offset_of_scaled_by_itemsize(self):
        lay = RowMajorLayout(ArraySchema((4, 5), "f8"))
        assert lay.offset_of((1, 2)) == 7 * 8
        assert lay.payload_nbytes == 20 * 8

    def test_index_of_inverse(self):
        lay = RowMajorLayout(ArraySchema((4, 5), "f8"))
        for idx in [(0, 0), (1, 2), (3, 4)]:
            assert lay.index_of(lay.offset_of(idx)) == idx

    def test_unaligned_offset_raises(self):
        lay = RowMajorLayout(ArraySchema((4, 5), "f8"))
        with pytest.raises(LayoutError):
            lay.index_of(7)

    def test_indices_in_range_exact_elements(self):
        lay = RowMajorLayout(ArraySchema((4, 5), "f8"))
        idx = lay.indices_in_range(8, 16)  # elements 1 and 2
        assert idx.tolist() == [[0, 1], [0, 2]]

    def test_indices_in_range_partial_elements(self):
        lay = RowMajorLayout(ArraySchema((4, 5), "f8"))
        # Bytes [4, 12) straddle elements 0 and 1.
        idx = lay.indices_in_range(4, 8)
        assert idx.tolist() == [[0, 0], [0, 1]]

    def test_indices_in_range_clipped_to_payload(self):
        lay = RowMajorLayout(ArraySchema((2, 2), "f8"))
        idx = lay.indices_in_range(0, 10_000)
        assert idx.shape == (4, 2)

    def test_indices_in_range_empty(self):
        lay = RowMajorLayout(ArraySchema((2, 2), "f8"))
        assert lay.indices_in_range(0, 0).shape == (0, 2)
        assert lay.indices_in_range(999, 8).shape == (0, 2)

    @given(st.integers(0, 31), st.integers(1, 64))
    @settings(max_examples=50)
    def test_indices_in_range_matches_bruteforce(self, start, size):
        lay = RowMajorLayout(ArraySchema((4, 8), "f8"))
        got = {tuple(r) for r in lay.indices_in_range(start, size)}
        expect = set()
        for flat in range(32):
            lo, hi = flat * 8, flat * 8 + 8
            if lo < start + size and hi > start:
                expect.add(tuple(unflatten_index(flat, (4, 8))))
        assert got == expect


class TestExtentsForIndices:
    """Index sets become byte extents through their row-major flat keys."""

    @staticmethod
    def _extents(lay, indices):
        flat = flatten_many(np.asarray(indices), lay.schema.dims)
        return extents_from_flat_indices(flat, lay.schema.itemsize)

    def test_contiguous_merge(self):
        lay = RowMajorLayout(ArraySchema((2, 4), "f8"))
        assert self._extents(lay, [(0, 0), (0, 1), (0, 2)]) == [(0, 24)]

    def test_gap_splits_runs(self):
        lay = RowMajorLayout(ArraySchema((2, 4), "f8"))
        assert self._extents(lay, [(0, 0), (0, 2)]) == [(0, 8), (16, 8)]

    def test_duplicates_ignored(self):
        lay = RowMajorLayout(ArraySchema((2, 4), "f8"))
        assert self._extents(lay, [(0, 1), (0, 1)]) == [(8, 8)]

    def test_row_wrap_is_contiguous(self):
        # (0,3) and (1,0) are adjacent in row-major flat order.
        lay = RowMajorLayout(ArraySchema((2, 4), "f8"))
        assert self._extents(lay, [(0, 3), (1, 0)]) == [(24, 16)]
