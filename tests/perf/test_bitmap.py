"""Bitmap set operations must be bit-identical to the np.unique paths."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.bitmap import (
    FlatBitmap,
    make_accumulator,
    ragged_aranges,
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


class TestAccumulators:
    def test_both_flavors_agree(self):
        rng = np.random.default_rng(11)
        batches = [rng.integers(0, 1000, size=200) for _ in range(4)]
        dense = make_accumulator(1000, max_cells=1 << 20)
        keyed = make_accumulator(1000, max_cells=10)  # force key fallback
        for b in batches:
            dense.add(b)
            keyed.add(b)
        expect = np.unique(np.concatenate(batches))
        assert np.array_equal(dense.to_sorted(), expect)
        assert np.array_equal(keyed.to_sorted(), expect)

    def test_empty_accumulators(self):
        assert make_accumulator(10).to_sorted().size == 0
        assert make_accumulator(10, max_cells=1).to_sorted().size == 0

    def test_flat_bitmap(self):
        bm = FlatBitmap(20)
        bm.add(np.array([5, 3, 5]))
        bm.add(np.empty(0, dtype=np.int64))
        assert np.array_equal(bm.to_sorted(), [3, 5])

    @given(
        spans=st.lists(
            st.tuples(st.integers(min_value=0, max_value=49),
                      st.integers(min_value=-3, max_value=49)),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_spans_matches_naive(self, spans):
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = np.array([min(s + e, 49) for s, e in spans], dtype=np.int64)
        bm = FlatBitmap(50)
        bm.add_spans(starts, ends)
        expect = sorted({
            z for s, e in zip(starts, ends) for z in range(s, e + 1)
        })
        assert np.array_equal(bm.to_sorted(), expect)
        # Key accumulator must agree.
        key = make_accumulator(50, max_cells=1)
        key.add_spans(starts, ends)
        assert np.array_equal(key.to_sorted(), expect)


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
