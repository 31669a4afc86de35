"""Block-capture equivalence: the audit session vs the per-event oracle.

The production session captures block descriptors and must be
*query-identical* to the per-event oracle session over the interval
B-tree (``tests/oracles/event_session.py``): same ``accessed_ranges``,
``accessed_indices``, ``accessed_nbytes``, and ``had_writes`` for any
interleaving of reads/seeks/mmaps across threads.  Hypothesis drives
random event soups through both sessions (and, for the threaded
property, through racing recorder threads) and compares every
observable.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel import (
    ArrayFile,
    ArraySchema,
    ChunkedLayout,
    RowMajorLayout,
)
from repro.audit import AuditSession, BlockRecorder
from repro.audit.blockcapture import _ThreadBuffer
from repro.errors import AuditError
from tests.oracles.event_session import EventSession

#: One simulated syscall: (path#, op, offset, size, pid).
events = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["read", "pread64", "mmap", "write", "open", "close"]),
        st.integers(0, 2000),
        st.integers(0, 128),
        st.integers(1, 3),
    ),
    max_size=120,
)


def replay(session, evs):
    for path_no, op, offset, size, pid in evs:
        session.record(f"file{path_no}", op, offset, size, pid=pid)


def assert_observables_equal(event_s, block_s, evs):
    paths = sorted({f"file{p}" for p, *_ in evs} | {"file0"})
    layouts = (RowMajorLayout(ArraySchema((64, 64), "f8")),
               # Padded edge chunks; chunk order is not row-major order.
               ChunkedLayout(ArraySchema((40, 24), "i4", chunks=(16, 16))))
    assert block_s.n_events == event_s.n_events
    assert block_s.had_writes == event_s.had_writes
    assert block_s.identities() == event_s.identities()
    for path in paths:
        assert (block_s.accessed_ranges(path)
                == event_s.accessed_ranges(path)), path
        assert block_s.accessed_nbytes(path) == event_s.accessed_nbytes(path)
        for layout in layouts:
            assert np.array_equal(block_s.accessed_indices(path, layout),
                                  event_s.accessed_indices(path, layout))
        for pid in (1, 2, 3):
            assert (block_s.accessed_ranges(path, pid=pid)
                    == event_s.accessed_ranges(path, pid=pid))
            assert (block_s.range_overlaps(path, 0, 3000, pid=pid)
                    == event_s.range_overlaps(path, 0, 3000, pid=pid))


class TestEquivalenceProperties:
    @settings(max_examples=120, deadline=None)
    @given(evs=events, buffer_size=st.sampled_from([1, 2, 7, 64, 4096]))
    def test_block_session_matches_event_session(self, evs, buffer_size):
        event_s = EventSession()
        block_s = AuditSession(block_buffer=buffer_size)
        replay(event_s, evs)
        replay(block_s, evs)
        assert_observables_equal(event_s, block_s, evs)
        # Event materialization: same multiset, same per-identity order.
        key = lambda e: (e.pid, e.path, e.l, e.sz, e.c.value)  # noqa: E731
        assert sorted(block_s.events, key=key) == sorted(event_s.events, key=key)

    @settings(max_examples=25, deadline=None)
    @given(evs=events, buffer_size=st.sampled_from([1, 8, 64]))
    def test_threaded_block_recording_matches_event_session(
            self, evs, buffer_size):
        # Each simulated pid records from its own racing thread; totals
        # and per-identity coverage must match a serial event session.
        event_s = EventSession()
        replay(event_s, evs)
        block_s = AuditSession(block_buffer=buffer_size)
        by_pid = {pid: [e for e in evs if e[4] == pid] for pid in (1, 2, 3)}
        threads = [
            threading.Thread(target=replay, args=(block_s, chunk))
            for chunk in by_pid.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert_observables_equal(event_s, block_s, evs)

    @settings(max_examples=60, deadline=None)
    @given(evs=events)
    def test_queries_between_records_flush_correctly(self, evs):
        # Interleave queries with records: every flush point must leave
        # the already-recorded prefix fully visible.
        event_s = EventSession()
        block_s = AuditSession(block_buffer=16)
        for i, (path_no, op, offset, size, pid) in enumerate(evs):
            event_s.record(f"file{path_no}", op, offset, size, pid=pid)
            block_s.record(f"file{path_no}", op, offset, size, pid=pid)
            if i % 7 == 0:
                path = f"file{path_no}"
                assert (block_s.accessed_ranges(path)
                        == event_s.accessed_ranges(path))
        assert_observables_equal(event_s, block_s, evs)


class TestBlockSessionBehavior:
    def test_events_materialize_in_thread_order(self):
        s = AuditSession()
        s.record("f", "read", 0, 8, pid=1)
        s.record("f", "pread", 8, 8, pid=1)
        s.record("f", "mmap", 16, 8, pid=1)
        evs = s.events
        assert [(e.l, e.c.value) for e in evs] == [
            (0, "read"), (8, "pread"), (16, "mmap")
        ]
        assert all(e.pid == 1 and e.path == "f" for e in evs)

    def test_buffer_full_flush_is_transparent(self):
        s = AuditSession(block_buffer=4)
        for k in range(11):  # 2 full flushes + 3 pending
            s.record("f", "read", k * 8, 8)
        assert s.n_events == 11
        assert s.accessed_ranges("f") == [(0, 88)]

    def test_write_only_visible_after_flush_on_query(self):
        s = AuditSession(block_buffer=1024)
        s.record("f", "write", 0, 8)
        # had_writes is a query: it must flush the pending buffer.
        assert s.had_writes
        assert s.accessed_ranges("f") == []

    def test_close_flushes_pending_buffer(self):
        s = AuditSession(block_buffer=1024)
        s.record("f", "read", 0, 32)
        s.close()
        assert s.n_events == 1
        assert s.accessed_ranges("f") == [(0, 32)]

    def test_record_and_reset_after_close_raise(self):
        s = AuditSession()
        s.record("f", "read", 0, 8)
        s.close()
        s.close()  # idempotent
        with pytest.raises(AuditError):
            s.record("f", "read", 8, 8)
        with pytest.raises(AuditError):
            s.record_event(s.events[0])
        with pytest.raises(AuditError):
            s.reset()

    def test_reset_clears_block_state(self):
        s = AuditSession(block_buffer=4)
        for k in range(9):
            s.record("f", "read", k * 8, 8)
        s.reset()
        assert s.n_events == 0
        assert s.accessed_ranges("f") == []
        s.record("f", "read", 0, 8)
        assert s.accessed_ranges("f") == [(0, 8)]

    def test_invalid_record_arguments(self):
        s = AuditSession()
        with pytest.raises(AuditError):
            s.record("f", "read", -1, 8)
        with pytest.raises(AuditError):
            s.record("f", "read", 0, -8)
        with pytest.raises(AuditError):
            s.record("f", "frobnicate", 0, 8)

    def test_record_event_routes_through_buffers(self):
        from repro.audit import Event, EventType

        s = AuditSession()
        s.record_event(Event(pid=9, path="f", c=EventType.READ, l=0, sz=16))
        assert s.accessed_ranges("f", pid=9) == [(0, 16)]

    def test_array_file_accepts_session_directly(self, tmp_path):
        path = str(tmp_path / "x.knd")
        ArrayFile.create(path, ArraySchema((4, 4), "f8"),
                         np.zeros((4, 4))).close()
        for session_type in (AuditSession, EventSession):
            s = session_type()
            with ArrayFile.open(path, recorder=s) as f:
                f.read_point((1, 2))
            assert s.accessed_nbytes(path) == 8, session_type


class TestBlockRecorderInternals:
    def test_recorder_requires_positive_buffer(self):
        with pytest.raises(AuditError):
            BlockRecorder(buffer_size=0)

    def test_thread_buffer_slots(self):
        buf = _ThreadBuffer(8)
        assert buf.n == 0 and buf.offsets.size == 8

    def test_standalone_recorder(self):
        r = BlockRecorder(buffer_size=2)
        r.record("f", "read", 0, 8)
        r.record("f", "read", 8, 8)   # triggers buffer-full flush
        r.record("f", "write", 0, 4)
        r.flush()
        assert r.n_events == 3
        assert r.had_writes
        assert len(r.events()) == 3
        (store,) = r.stores.values()
        assert store.merged() == [(0, 16)]
        r.close()
        with pytest.raises(AuditError):
            r.record("f", "read", 0, 8)
