"""Unit tests for the SPLIT step of Algorithm 2 on sorted flat keys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many, sorted_unique
from repro.carving import split_into_cells
from repro.errors import GeometryError
from tests.oracles import carve_front


def _split(pts, dims, cell_size):
    flat = sorted_unique(flatten_many(np.asarray(pts), dims))
    return split_into_cells(flat, dims, cell_size)


class TestSplit:
    def test_basic_grouping(self):
        cells = _split([[0, 0], [1, 1], [17, 0], [0, 17]], (32, 32), 16.0)
        assert set(cells) == {(0, 0), (1, 0), (0, 1)}
        assert cells[(0, 0)].tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert list(cells) == [(0, 0), (0, 1), (1, 0)]

    def test_empty_cells_absent(self):
        cells = _split([[0, 0], [100, 100]], (128, 128), 10.0)
        assert len(cells) == 2

    def test_boundary_point_goes_to_upper_cell(self):
        cells = _split([[16, 0]], (32, 32), 16.0)
        assert set(cells) == {(1, 0)}

    def test_empty_input_rejected(self):
        with pytest.raises(GeometryError):
            split_into_cells(np.empty(0, dtype=np.int64), (16, 16), 16.0)

    def test_bad_cell_size(self):
        with pytest.raises(GeometryError):
            split_into_cells(np.zeros(1, dtype=np.int64), (16, 16), 0.0)

    def test_3d(self):
        cells = _split([[0, 0, 0], [9, 9, 9], [10, 0, 0]], (20, 20, 20), 10.0)
        assert set(cells) == {(0, 0, 0), (1, 0, 0)}
        assert cells[(0, 0, 0)].shape == (2, 3)

    @given(st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=200,
    ), st.sampled_from([1.0, 2.5, 7.0, 16.0, 33.3, 40.0]))
    @settings(max_examples=60)
    def test_partition_property(self, pts, cell_size):
        """Cells exactly partition the keys, in the float-row reference's
        cell order and point order."""
        dims = (100, 100)
        cells = _split(pts, dims, cell_size)
        arr = np.asarray(sorted(set(pts)), dtype=float)
        expect = carve_front.split_into_cells(arr, cell_size)
        assert list(cells) == list(expect)
        for key, members in cells.items():
            assert np.array_equal(members, expect[key])
            assert (np.floor(members / cell_size) == np.asarray(key)).all()
