"""The sorted-set kernel and the dedupes built on it equal ``np.unique``.

CI runs these on numpy 2.2 (whose 1-D ``np.unique`` sorts) and on
numpy >= 2.3 (whose ``np.unique`` hashes), so the kernel is checked
against both implementations.  The run primitives beside it (segmented
arange, run detection, range coalescing) and their callers are checked
here too, against the per-run Python forms they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.debloated import extents_from_flat_indices, merge_extents
from repro.arraymodel.layout import flat_runs, ragged_aranges, sorted_unique
from repro.errors import LayoutError
from repro.perf.bitmap import DENSE_RATIO, unique_flat, unique_lattice_points
from repro.service.shards import decode_runs, encode_runs

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


RUNS = st.lists(st.tuples(st.integers(min_value=-50, max_value=200),
                          st.integers(min_value=-5, max_value=12)),
                max_size=30)


def _merge_extents_loop(extents):
    """The sort-and-coalesce loop ``merge_extents`` replaced."""
    merged = []
    for start, size in sorted((int(s), int(z)) for s, z in extents):
        if size <= 0:
            continue
        if merged and start <= merged[-1][0] + merged[-1][1]:
            end = max(merged[-1][0] + merged[-1][1], start + size)
            merged[-1] = (merged[-1][0], end - merged[-1][0])
        else:
            merged.append((start, size))
    return merged


class TestRunPrimitives:
    @given(runs=RUNS)
    @settings(max_examples=100, deadline=None)
    def test_ragged_aranges_matches_per_run_arange(self, runs):
        starts = np.array([s for s, _ in runs], dtype=np.int64)
        lengths = np.array([n for _, n in runs], dtype=np.int64)
        expect = np.concatenate(
            [np.arange(s, s + n, dtype=np.int64) for s, n in runs]
            + [np.empty(0, dtype=np.int64)])
        got = ragged_aranges(starts, lengths)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    @given(values=st.lists(st.integers(min_value=-100, max_value=100),
                           max_size=120),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=100, deadline=None)
    def test_flat_runs_expand_to_the_sorted_set(self, values, seed):
        arr = np.random.default_rng(seed).permutation(
            np.asarray(values, dtype=np.int64))
        starts, lengths = flat_runs(arr)
        assert np.array_equal(ragged_aranges(starts, lengths),
                              sorted_unique(arr))
        # Maximal runs: every run is non-empty and a gap separates runs.
        assert (lengths > 0).all()
        assert (starts[1:] > starts[:-1] + lengths[:-1]).all()

    @given(extents=st.lists(
        st.tuples(st.integers(min_value=0, max_value=120),
                  st.integers(min_value=-4, max_value=40)),
        max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_merge_extents_matches_coalesce_loop(self, extents):
        got = merge_extents(extents)
        assert got == _merge_extents_loop(extents)
        assert all(type(v) is int for pair in got for v in pair)

    def test_merge_extents_touching_and_nested(self):
        extents = [(10, 5), (15, 5), (0, 40), (50, 0), (60, -3), (41, 2),
                   (45, 10), (47, 1)]
        assert merge_extents(extents) == _merge_extents_loop(extents)
        assert merge_extents(extents) == [(0, 40), (41, 2), (45, 10)]
        assert merge_extents([]) == []
        assert merge_extents(iter(extents)) == merge_extents(extents)

    @given(runs=RUNS)
    @settings(max_examples=100, deadline=None)
    def test_decode_runs_on_overlapping_unsorted_runs(self, runs):
        wire = [[s, n] for s, n in runs]
        expect = np.unique(np.concatenate(
            [np.arange(s, s + n, dtype=np.int64) for s, n in runs]
            + [np.empty(0, dtype=np.int64)]))
        got = decode_runs(wire)
        assert np.array_equal(got, expect)
        assert decode_runs(encode_runs(got)).tolist() == got.tolist()
