"""Concurrency tests: the audit session under multi-threaded recording.

The paper's auditing system observes events from multiple processes; the
in-process substitute must tolerate concurrent recorders (simulated
processes on threads) without losing or corrupting events.
"""

import threading

import numpy as np

from repro.audit import AuditSession, Event, EventType
from tests.oracles.event_session import EventSession


class TestConcurrentRecording:
    def test_parallel_recorders_lose_nothing(self):
        session = AuditSession()
        n_threads, per_thread = 8, 500

        def worker(pid):
            for k in range(per_thread):
                session.record_event(
                    Event(pid=pid, path="f", c=EventType.READ,
                          l=k * 10, sz=10)
                )

        threads = [
            threading.Thread(target=worker, args=(pid,))
            for pid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert session.n_events == n_threads * per_thread
        # Each pid's coverage is one contiguous run of per_thread reads.
        for pid in range(n_threads):
            assert session.accessed_ranges("f", pid=pid) == [
                (0, per_thread * 10)
            ]

    def test_parallel_mixed_files(self):
        session = AuditSession()

        def worker(pid, path):
            for k in range(200):
                session.record(path, "read", k * 8, 8, pid=pid)

        threads = [
            threading.Thread(target=worker, args=(pid, f"file{pid % 3}"))
            for pid in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(3):
            assert session.accessed_ranges(f"file{i}") == [(0, 1600)]

    def test_btrees_valid_after_concurrent_inserts(self):
        # The same racing inserts go into the session's flat stores and
        # the oracle's interval B-trees.
        session, oracle = AuditSession(block_buffer=64), EventSession()

        def worker(pid):
            rng = np.random.default_rng(pid)
            for _ in range(300):
                start = int(rng.integers(0, 10_000))
                size = int(rng.integers(1, 64))
                session.record("f", "read", start, size, pid=pid)
                oracle.record("f", "read", start, size, pid=pid)

        threads = [
            threading.Thread(target=worker, args=(pid,)) for pid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every per-identity index still satisfies its invariants.
        assert session.identities() == oracle.identities()
        stores = session._recorder.stores
        for identity in session.identities():
            oracle._trees[identity].check_invariants()
            stores[identity].check_invariants()
            assert len(oracle._trees[identity]) == 300
            assert len(stores[identity]) == 300
            pid = identity[0]
            assert (session.accessed_ranges("f", pid=pid)
                    == oracle.accessed_ranges("f", pid=pid))
