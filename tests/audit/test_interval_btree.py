"""Unit + property tests for the interval B-tree oracle (paper §IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AuditError
from tests.oracles.interval_btree import IntervalBTree

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 60)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=120,
)


def brute_force_overlaps(intervals, qs, qe):
    # Half-open semantics: an empty query [q, q) overlaps nothing (use
    # (p, p + 1) for stabbing queries) — matching the documented contract.
    if qe <= qs:
        return []
    return sorted(
        (s, e, None) for s, e in intervals if s < qe and e > qs
    )


class TestBasics:
    def test_empty(self):
        t = IntervalBTree()
        assert len(t) == 0
        assert t.overlapping(0, 100) == []
        assert t.merged() == []
        assert not t.covers(5)

    def test_small_degree_rejected(self):
        with pytest.raises(AuditError):
            IntervalBTree(t=1)

    def test_invalid_interval_rejected(self):
        t = IntervalBTree()
        with pytest.raises(AuditError):
            t.insert(10, 5)

    def test_invalid_query_rejected(self):
        t = IntervalBTree()
        with pytest.raises(AuditError):
            t.overlapping(10, 5)

    def test_single_insert_lookup(self):
        t = IntervalBTree()
        t.insert(10, 20, "a")
        assert t.overlapping(15, 16) == [(10, 20, "a")]
        assert t.overlapping(0, 10) == []   # half-open: ends before 10
        assert t.overlapping(20, 30) == []  # starts at the open end
        assert t.overlapping(19, 20) == [(10, 20, "a")]
        assert t.covers(10)
        assert t.covers(19)
        assert not t.covers(20)

    def test_payloads_preserved(self):
        t = IntervalBTree()
        for i in range(10):
            t.insert(i * 10, i * 10 + 5, f"p{i}")
        (s, e, payload), = t.overlapping(42, 43)
        assert payload == "p4"

    def test_duplicate_intervals_kept(self):
        t = IntervalBTree()
        t.insert(0, 10, "x")
        t.insert(0, 10, "y")
        assert len(t.overlapping(5, 6)) == 2

    def test_merged_example_from_paper(self):
        # Section IV-C worked example: reads (0,110), (70,30), (130,20),
        # (90,30) -> merged accessed offsets (0,120) and (130,150).
        t = IntervalBTree()
        for start, size in [(0, 110), (70, 30), (130, 20), (90, 30)]:
            t.insert(start, start + size)
        assert t.merged() == [(0, 120), (130, 150)]

    def test_height_grows_with_splits(self):
        t = IntervalBTree(t=2)
        for i in range(100):
            t.insert(i, i + 1)
        assert t.height() > 1
        t.check_invariants()

    def test_iter_sorted(self):
        t = IntervalBTree(t=2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = int(rng.integers(0, 1000))
            t.insert(s, s + int(rng.integers(0, 50)))
        starts = [k[:2] for k in t.iter_intervals()]
        assert starts == sorted(starts)
        assert len(starts) == 200


class TestPropertyBased:
    @given(intervals_strategy, st.integers(0, 600), st.integers(0, 80))
    @settings(max_examples=120)
    def test_overlap_query_matches_bruteforce(self, intervals, qs, width):
        t = IntervalBTree(t=3)
        for s, e in intervals:
            t.insert(s, e)
        qe = qs + width
        got = sorted((s, e, p) for s, e, p in t.overlapping(qs, qe))
        assert got == brute_force_overlaps(intervals, qs, qe)

    @given(intervals_strategy)
    @settings(max_examples=80)
    def test_invariants_after_inserts(self, intervals):
        t = IntervalBTree(t=2)
        for s, e in intervals:
            t.insert(s, e)
        t.check_invariants()
        assert len(t) == len(intervals)

    @given(intervals_strategy)
    @settings(max_examples=80)
    def test_merged_equals_point_union(self, intervals):
        t = IntervalBTree(t=3)
        covered = set()
        for s, e in intervals:
            t.insert(s, e)
            covered.update(range(s, e))
        merged_cover = set()
        prev_end = None
        for s, e in t.merged():
            assert e > s
            if prev_end is not None:
                assert s > prev_end  # disjoint, non-touching
            prev_end = e
            merged_cover.update(range(s, e))
        assert merged_cover == covered

    @given(intervals_strategy, st.integers(0, 550))
    @settings(max_examples=80)
    def test_covers_matches_membership(self, intervals, point):
        t = IntervalBTree(t=4)
        covered = set()
        for s, e in intervals:
            t.insert(s, e)
            covered.update(range(s, e))
        assert t.covers(point) == (point in covered)
