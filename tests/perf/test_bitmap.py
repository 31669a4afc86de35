"""Bitmap set operations must be bit-identical to the np.unique paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import ragged_aranges
from repro.perf.bitmap import (
    union_flat,
    unique_flat,
    unique_lattice_points,
)


@st.composite
def lattice_cloud(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    dims = tuple(draw(st.integers(min_value=1, max_value=12))
                 for _ in range(d))
    n = draw(st.integers(min_value=0, max_value=60))
    rows = [
        tuple(
            draw(st.integers(min_value=0, max_value=dims[k] - 1))
            for k in range(d)
        )
        for _ in range(n)
    ]
    return dims, np.asarray(rows, dtype=np.int64).reshape(n, d)


class TestUniqueFlat:
    @given(
        flat=st.lists(st.integers(min_value=0, max_value=499), max_size=200),
        max_cells=st.sampled_from([1, 100, 1 << 20]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique(self, flat, max_cells):
        arr = np.asarray(flat, dtype=np.int64)
        got = unique_flat(arr, 500, max_cells=max_cells)
        assert np.array_equal(got, np.unique(arr))
        assert got.dtype == np.int64

    def test_empty(self):
        assert unique_flat(np.empty(0, dtype=np.int64), 10).size == 0


class TestUnionFlat:
    def test_matches_union1d(self):
        rng = np.random.default_rng(7)
        parts = [rng.integers(0, 300, size=rng.integers(0, 50))
                 for _ in range(5)]
        expect = np.unique(np.concatenate(parts))
        for max_cells in (1, 1 << 20):
            got = union_flat(parts, 300, max_cells=max_cells)
            assert np.array_equal(got, expect)

    def test_all_empty(self):
        assert union_flat([np.empty(0, dtype=np.int64)], 10).size == 0
        assert union_flat([], 10).size == 0


class TestUniqueLatticePoints:
    @given(cloud=lattice_cloud(), max_cells=st.sampled_from([1, 1 << 20]))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_np_unique_axis0(self, cloud, max_cells):
        dims, pts = cloud
        got = unique_lattice_points(pts, dims, max_cells=max_cells)
        if pts.shape[0] == 0:
            assert got.shape == pts.shape
            return
        expect = np.unique(pts, axis=0)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)

    def test_rejects_shape_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            unique_lattice_points(np.zeros((3, 2), dtype=np.int64), (4, 4, 4))


class TestRaggedAranges:
    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=-5, max_value=20),
                      st.integers(min_value=0, max_value=6)),
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_concatenated_aranges(self, pairs):
        starts = np.array([s for s, _ in pairs], dtype=np.int64)
        lengths = np.array([n for _, n in pairs], dtype=np.int64)
        got = ragged_aranges(starts, lengths)
        expect = np.concatenate(
            [np.arange(s, s + n) for s, n in pairs] or
            [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(got, expect)

    @given(
        spans=st.lists(
            st.tuples(st.integers(min_value=0, max_value=49),
                      st.integers(min_value=-3, max_value=49)),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_inclusive_spans_match_naive(self, spans):
        # The raster's span fill: every offset of [starts_i, ends_i].
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = np.array([min(s + e, 49) for s, e in spans], dtype=np.int64)
        got = union_flat([ragged_aranges(starts, ends - starts + 1)], 50)
        expect = sorted({
            z for s, e in zip(starts, ends) for z in range(s, e + 1)
        })
        assert np.array_equal(got, expect)
