"""The sorted-set kernel and the dedupes built on it equal ``np.unique``.

CI runs these on numpy 2.2 (whose 1-D ``np.unique`` sorts) and on
numpy >= 2.3 (whose ``np.unique`` hashes), so the kernel is checked
against both implementations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.debloated import extents_from_flat_indices
from repro.arraymodel.layout import sorted_unique
from repro.errors import LayoutError
from repro.perf.bitmap import DENSE_RATIO, unique_flat, unique_lattice_points

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _shaped(values, shape):
    arr = np.asarray(values, dtype=np.int64)
    if shape == "sorted":
        return np.sort(arr)
    if shape == "reversed":
        return np.sort(arr)[::-1]
    if shape == "strict":
        return np.unique(arr)
    return arr


class TestSortedUnique:
    @given(values=st.lists(INT64, max_size=80),
           shape=st.sampled_from(["raw", "sorted", "reversed", "strict"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_np_unique_int64(self, values, shape):
        arr = _shaped(values, shape)
        got = sorted_unique(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(arr))

    @given(values=st.lists(st.integers(min_value=-3, max_value=3),
                           max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_heavy_and_negative(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))

    @given(values=st.lists(st.integers(min_value=-(2**31),
                                       max_value=2**31 - 1), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_int32_input(self, values):
        arr = np.asarray(values, dtype=np.int32)
        got = sorted_unique(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(arr))

    def test_empty_and_single(self):
        assert sorted_unique(np.empty(0, dtype=np.int64)).size == 0
        assert sorted_unique([]).dtype == np.int64
        assert sorted_unique(np.array([-5])).tolist() == [-5]

    def test_union_of_parts(self):
        rng = np.random.default_rng(3)
        a = np.unique(rng.integers(0, 1000, size=300))
        b = np.unique(rng.integers(0, 1000, size=40))
        assert np.array_equal(sorted_unique(np.concatenate((a, b))),
                              np.union1d(a, b))

    def test_strictly_increasing_input_is_not_copied(self):
        arr = np.arange(0, 50, 3, dtype=np.int64)
        got = sorted_unique(arr)
        assert np.shares_memory(got, arr)
        assert np.array_equal(got, arr)


class TestUniqueFlatCutoff:
    @given(data=st.data(), size=st.integers(min_value=1, max_value=120))
    @settings(max_examples=80, deadline=None)
    def test_same_answer_both_sides_of_density_cutoff(self, data, size):
        cutoff = DENSE_RATIO * size
        arr = np.asarray(data.draw(st.lists(
            st.integers(min_value=0, max_value=cutoff - 1),
            min_size=size, max_size=size)), dtype=np.int64)
        dense = unique_flat(arr, cutoff)        # bitmap
        sparse = unique_flat(arr, cutoff + 1)   # sort
        assert np.array_equal(dense, np.unique(arr))
        assert np.array_equal(sparse, dense)
        assert dense.dtype == sparse.dtype == np.int64

    @pytest.mark.parametrize("n_flat", [16, 17, 1000])
    @pytest.mark.parametrize("bad", [-1, "n_flat"])
    def test_out_of_range_offset_rejected_on_both_paths(self, n_flat, bad):
        # Two offsets: n_flat 16 = 8 * 2 takes the bitmap, 17 and up sort.
        value = n_flat if bad == "n_flat" else bad
        with pytest.raises(LayoutError):
            unique_flat(np.array([value, 3], dtype=np.int64), n_flat)

    @pytest.mark.parametrize("max_cells", [1, 1 << 20])
    def test_out_of_range_lattice_point_rejected(self, max_cells):
        for pts in ([[0, -1], [1, 1]], [[1, -1]], [[4, 0]], [[0, 4]]):
            with pytest.raises(LayoutError):
                unique_lattice_points(np.array(pts), (4, 4),
                                      max_cells=max_cells)


class TestExtentsFromFlatIndices:
    @given(flat=st.lists(st.integers(min_value=0, max_value=300),
                         max_size=120),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_order_and_duplicates_do_not_matter(self, flat, seed):
        base = np.unique(np.asarray(flat, dtype=np.int64))
        rng = np.random.default_rng(seed)
        shuffled = rng.permutation(base)
        duplicated = rng.permutation(np.concatenate((base, base[::2])))
        expect = extents_from_flat_indices(base, 8)
        assert extents_from_flat_indices(shuffled, 8) == expect
        assert extents_from_flat_indices(duplicated, 8) == expect
        assert sum(z for _s, z in expect) == 8 * base.size
