"""FlatIntervalStore: unit + property tests against the interval B-tree.

The flat store stands in for the paper's interval B-tree (kept as the
oracle in ``tests/oracles/interval_btree.py``) only because the two
agree query-for-query; the hypothesis properties here
pin ``merged()`` / ``overlapping()`` / ``covers()`` agreement on random
interval sets, in the spirit of the PR 1/PR 5 bit-identical guarantees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import FlatIntervalStore
from repro.arraymodel.layout import merge_ranges_arrays
from repro.errors import AuditError
from tests.oracles.interval_btree import IntervalBTree

intervals = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 60)),
    max_size=80,
)


def build_both(ivs):
    flat, btree = FlatIntervalStore(capacity=4), IntervalBTree()
    for start, size in ivs:
        flat.insert(start, start + size, "read")
        btree.insert(start, start + size, "read")
    return flat, btree


class TestUnit:
    def test_empty(self):
        fs = FlatIntervalStore()
        assert len(fs) == 0
        assert fs.merged() == []
        assert fs.overlapping(0, 100) == []
        assert not fs.covers(0)

    def test_insert_and_merge_touching(self):
        fs = FlatIntervalStore()
        fs.insert(0, 10)
        fs.insert(10, 20)
        fs.insert(30, 40)
        assert fs.merged() == [(0, 20), (30, 40)]

    def test_zero_length_dropped_from_merged(self):
        fs = FlatIntervalStore()
        fs.insert(5, 5)
        assert fs.merged() == []
        assert len(fs) == 1

    def test_invalid_interval_rejected(self):
        fs = FlatIntervalStore()
        with pytest.raises(AuditError):
            fs.insert(10, 5)
        with pytest.raises(AuditError):
            fs.overlapping(10, 5)

    def test_insert_batch(self):
        fs = FlatIntervalStore(capacity=2)
        starts = np.array([0, 50, 8], dtype=np.int64)
        ends = np.array([8, 60, 16], dtype=np.int64)
        fs.insert_batch(starts, ends, np.array(["read"] * 3, dtype=object))
        assert len(fs) == 3
        assert fs.merged() == [(0, 16), (50, 60)]
        assert fs.overlapping(4, 12) == [(0, 8, "read"), (8, 16, "read")]

    def test_insert_batch_rejects_bad_shapes(self):
        fs = FlatIntervalStore()
        with pytest.raises(AuditError):
            fs.insert_batch(np.array([0, 1]), np.array([1]))
        with pytest.raises(AuditError):
            fs.insert_batch(np.array([5]), np.array([0]))

    def test_growth_across_many_batches(self):
        fs = FlatIntervalStore(capacity=1)
        for k in range(100):
            fs.insert(k * 2, k * 2 + 1)
        assert len(fs) == 100
        assert len(fs.merged()) == 100
        fs.check_invariants()

    def test_payloads_preserved_in_order(self):
        fs = FlatIntervalStore()
        fs.insert(10, 20, "b")
        fs.insert(0, 5, "a")
        assert [p for _, _, p in fs.iter_intervals()] == ["a", "b"]

    def test_protocol_satisfied(self):
        # The flat store offers every operation of the B-tree oracle.
        for name in ("insert", "overlapping", "merged", "covers",
                     "iter_intervals", "check_invariants", "__len__"):
            assert callable(getattr(FlatIntervalStore(), name)), name
            assert callable(getattr(IntervalBTree(), name)), name


class TestMergeRangesArrays:
    def test_empty(self):
        s, e = merge_ranges_arrays(np.empty(0), np.empty(0))
        assert s.size == 0 and e.size == 0

    def test_matches_python_merge(self):
        starts = np.array([40, 0, 10, 5, 90])
        ends = np.array([60, 10, 30, 8, 90])
        ms, me = merge_ranges_arrays(starts, ends)
        assert list(zip(ms.tolist(), me.tolist())) == [(0, 30), (40, 60)]


class TestPropertyAgreement:
    @settings(max_examples=200, deadline=None)
    @given(ivs=intervals)
    def test_merged_agree(self, ivs):
        flat, btree = build_both(ivs)
        assert flat.merged() == btree.merged()

    @settings(max_examples=200, deadline=None)
    @given(ivs=intervals, qs=st.integers(0, 500), qlen=st.integers(0, 80))
    def test_overlapping_agree(self, ivs, qs, qlen):
        flat, btree = build_both(ivs)
        assert (sorted(flat.overlapping(qs, qs + qlen))
                == sorted(btree.overlapping(qs, qs + qlen)))

    @settings(max_examples=200, deadline=None)
    @given(ivs=intervals, point=st.integers(0, 500))
    def test_covers_agree(self, ivs, point):
        flat, btree = build_both(ivs)
        assert flat.covers(point) == btree.covers(point)

    @settings(max_examples=100, deadline=None)
    @given(ivs=intervals)
    def test_iter_intervals_agree(self, ivs):
        flat, btree = build_both(ivs)
        assert list(flat.iter_intervals()) == list(btree.iter_intervals())

    @settings(max_examples=100, deadline=None)
    @given(ivs=intervals)
    def test_batch_equals_singles(self, ivs):
        singles, _ = build_both(ivs)
        batched = FlatIntervalStore()
        if ivs:
            starts = np.array([s for s, _ in ivs], dtype=np.int64)
            ends = np.array([s + z for s, z in ivs], dtype=np.int64)
            batched.insert_batch(starts, ends,
                                 np.array(["read"] * len(ivs), dtype=object))
        assert list(batched.iter_intervals()) == list(singles.iter_intervals())
        batched.check_invariants()

    @settings(max_examples=100, deadline=None)
    @given(ivs=intervals, qs=st.integers(0, 500), qlen=st.integers(0, 80))
    def test_interleaved_insert_query_insert(self, ivs, qs, qlen):
        # Queries between inserts must not freeze the store's contents.
        flat, btree = FlatIntervalStore(), IntervalBTree()
        half = len(ivs) // 2
        for start, size in ivs[:half]:
            flat.insert(start, start + size)
            btree.insert(start, start + size)
        flat.merged(), flat.covers(qs)  # force a sort mid-stream
        for start, size in ivs[half:]:
            flat.insert(start, start + size)
            btree.insert(start, start + size)
        assert flat.merged() == btree.merged()
        assert (sorted(flat.overlapping(qs, qs + qlen))
                == sorted(btree.overlapping(qs, qs + qlen)))
