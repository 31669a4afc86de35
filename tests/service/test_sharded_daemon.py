"""Daemon-level sharded campaigns: recovery, hedging, PARTIAL, streaming.

Like ``test_daemon.py`` these run ``supervised=False`` so shards execute
inline on worker threads; the forked/SIGKILL paths are exercised by the
service chaos drills.
"""

import queue
import sys
import threading
import time

import pytest

from repro.errors import (
    JobRejectedError,
    ServiceError,
    ServiceProtocolError,
    ServiceUnavailableError,
)
from repro.resilience.retry import RetryPolicy
from repro.service import (
    JobSpec,
    KondoService,
    ServiceClient,
    missing_theta_manifest,
    plan_shards,
    run_sharded_reference,
)

DIMS = (16, 16)

FAST_RETRY = RetryPolicy(retries=2, backoff_s=0.01, backoff_factor=2.0,
                         backoff_max_s=0.02, jitter="full")


def spec(seed=0, shards=4, **kw):
    return JobSpec(program="CS", dims=DIMS, seed=seed, max_iter=12,
                   shards=shards, **kw)


def make_service(tmp_path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("queue_limit", 4)
    kw.setdefault("retry_policy", FAST_RETRY)
    kw.setdefault("drain_timeout_s", 10.0)
    return KondoService(str(tmp_path), supervised=False, **kw)


def client_of(svc, timeout_s=5.0):
    return ServiceClient(svc.socket_path, timeout_s=timeout_s)


def landed_events(svc, job):
    """Per-shard count of landed completions (fenced-store evidence);
    ``None`` when the token audit itself fails."""
    audit = svc.store.token_audit(job)
    if not audit["ok"]:
        return None
    return [s["landed_events"] for s in audit["shards"]]


class TestShardedCampaign:
    def test_sharded_result_is_bit_identical_to_reference(self, tmp_path):
        reference = run_sharded_reference(spec(shards=1))
        svc = make_service(tmp_path).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=4))["job"]
            final = client.wait_for(job, timeout_s=60.0)
            assert final["state"] == "done"
            assert final["result"] == reference
            assert landed_events(svc, job) == [1, 1, 1, 1]
        finally:
            svc.abort()

    def test_many_loops_claim_each_shard_once(self, tmp_path):
        """More claim loops than cores, switching threads often: every
        shard is claimed under exactly one token and lands once."""
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc = make_service(tmp_path, workers=6).start()
        try:
            client = client_of(svc)
            jobs = [client.submit(spec(seed=s))["job"] for s in range(3)]
            for job in jobs:
                final = client.wait_for(job, timeout_s=120.0)
                assert final["state"] == "done"
                assert landed_events(svc, job) == [1, 1, 1, 1]
                assert [svc.store.granted_tokens(job, i)
                        for i in range(4)] == [[1]] * 4
        finally:
            sys.setswitchinterval(old_interval)
            svc.abort()

    def test_status_lists_per_shard_progress(self, tmp_path):
        svc = make_service(tmp_path).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=4))["job"]
            client.wait_for(job, timeout_s=60.0)
            status = client.status(job)
            shards = status["shards"]
            assert [s["shard"] for s in shards] == [0, 1, 2, 3]
            assert all(s["state"] == "done" for s in shards)
        finally:
            svc.abort()

    def test_expired_shard_lease_requeues_only_that_shard(self, tmp_path):
        # Shard 1's first attempt parks past the lease TTL; the sweeper
        # expires it and only shard 1 is retried.
        parked = threading.Event()
        release = threading.Event()
        seen = []
        lock = threading.Lock()

        def runner(spec_json, shard, progress=None):
            with lock:
                seen.append(shard)
                first = seen.count(shard) == 1
            if shard == 1 and first:
                parked.set()
                release.wait(timeout=30.0)
            from repro.service.shards import execute_shard
            return execute_shard(spec_json, shard)

        svc = make_service(tmp_path, shard_runner=runner,
                           lease_ttl_s=0.2).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=3))["job"]
            assert parked.wait(timeout=10.0)
            final = client.wait_for(job, timeout_s=60.0)
            release.set()
            assert final["state"] == "done"
            assert final["result"] == run_sharded_reference(spec(shards=1))
            view = svc.store.view(job)
            assert view.shards[1].verdicts == ["LEASE-EXPIRED"]
            assert "shard1:LEASE-EXPIRED" in view.verdicts
            assert view.shards[0].verdicts == []
            assert view.shards[2].verdicts == []
            assert landed_events(svc, job) == [1, 1, 1]
        finally:
            release.set()
            svc.abort()

    def test_straggler_hedge_first_completion_wins(self, tmp_path):
        # Shard 0's primary parks; the straggler sweeper launches a
        # hedge which finishes first, and the result is still
        # bit-identical (no double-counted shard).
        parked = threading.Event()
        release = threading.Event()
        first = threading.Lock()
        claimed = []

        def runner(spec_json, shard, progress=None):
            if shard == 0:
                with first:
                    mine = not claimed
                    claimed.append(1)
                if mine:
                    parked.set()
                    release.wait(timeout=30.0)
            from repro.service.shards import execute_shard
            return execute_shard(spec_json, shard)

        svc = make_service(tmp_path, shard_runner=runner,
                           hedge_after_s=0.2, lease_ttl_s=30.0).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=2))["job"]
            assert parked.wait(timeout=10.0)
            final = client.wait_for(job, timeout_s=60.0)
            assert final["state"] == "done"
            assert final["result"] == run_sharded_reference(spec(shards=1))
            hedged = [e for e in svc.store.fenced_events()
                      if e.get("op") == "hedge" and e.get("job") == job]
            assert [e["shard"] for e in hedged] == [0]
            assert landed_events(svc, job)[0] == 1
            # The revoked straggler burned no retry budget.
            assert svc.store.view(job).shards[0].verdicts == []
        finally:
            release.set()
            svc.abort()

    def test_dead_shard_yields_partial_with_manifest(self, tmp_path):
        def runner(spec_json, shard, progress=None):
            if shard == 2:
                raise ValueError("synthetic shard fault")
            from repro.service.shards import execute_shard
            return execute_shard(spec_json, shard)

        svc = make_service(tmp_path, shard_runner=runner).start()
        try:
            client = client_of(svc)
            s = spec(shards=4)
            job = client.submit(s)["job"]
            final = client.wait_for(job, timeout_s=60.0)
            assert final["state"] == "partial"
            result = final["result"]
            assert result["partial"] is True
            assert result["missing"] == missing_theta_manifest(
                plan_shards(s), [2])
            # PARTIAL is sealed as partial: a resubmission is never
            # served it as a done result.
            assert client.submit(s)["state"] == "partial"
        finally:
            svc.abort()

    def test_all_shards_dead_is_a_dead_job(self, tmp_path):
        def runner(spec_json, shard, progress=None):
            raise ValueError("synthetic shard fault")

        svc = make_service(tmp_path, shard_runner=runner).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=2))["job"]
            final = client.wait_for(job, timeout_s=60.0)
            assert final["state"] == "dead"
            assert "ALL-SHARDS-DEAD" in final["verdicts"]
        finally:
            svc.abort()

    def test_restart_requeues_only_lost_shards(self, tmp_path):
        # First daemon: shard 0 lands, then the daemon dies abruptly
        # with shard 1 leased.  The restarted daemon re-runs only the
        # lost shards and the merged result matches the reference.
        landed = threading.Event()
        hang = threading.Event()

        def crashy(spec_json, shard, progress=None):
            from repro.service.shards import execute_shard
            if shard == 0:
                out = execute_shard(spec_json, shard)
                landed.set()
                return out
            hang.wait(timeout=30.0)
            raise ValueError("daemon died first")

        svc = make_service(tmp_path, workers=1, shard_runner=crashy).start()
        job = client_of(svc).submit(spec(shards=3))["job"]
        assert landed.wait(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while (svc.store.read_done(job, 0) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        hang.set()
        svc.abort()

        runs = []

        def counting(spec_json, shard, progress=None):
            runs.append(shard)
            from repro.service.shards import execute_shard
            return execute_shard(spec_json, shard)

        svc2 = make_service(tmp_path, shard_runner=counting).start()
        try:
            final = client_of(svc2).wait_for(job, timeout_s=60.0)
            assert final["state"] == "done"
            assert final["result"] == run_sharded_reference(spec(shards=1))
            assert 0 not in runs  # the landed shard was never re-run
            assert sorted(set(runs)) == [1, 2]
        finally:
            svc2.abort()


class TestStreamingProgress:
    def test_follow_streams_shard_events_to_the_end(self, tmp_path):
        svc = make_service(tmp_path).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=2))["job"]
            kinds = []
            for ev in client.follow(job, timeout_s=60.0):
                if ev.get("kind") == "keepalive":
                    continue
                kinds.append(ev["kind"])
                if ev["kind"] == "end":
                    assert ev["state"] == "done"
            assert kinds[0] == "submitted"
            assert kinds.count("shard-done") == 2
            assert "done" in kinds
            assert kinds[-1] == "end"
            # Events arrive in sequence order, no duplicates.
            seqs = [e["seq"] for e in svc._events[job]]
            assert seqs == sorted(set(seqs))
        finally:
            svc.abort()

    def test_follow_ends_on_the_terminal_event(self, tmp_path):
        """The stream ends on the job's terminal event itself: the
        follower never idles a tick after it before sending ``end``."""

        class IdleCounting(queue.Queue):
            terminal_seen = False
            idle_after_terminal = 0

            def get(self, block=True, timeout=None):
                try:
                    event = super().get(block, timeout)
                except queue.Empty:
                    if self.terminal_seen:
                        self.idle_after_terminal += 1
                    raise
                if event["kind"] in ("done", "partial", "dead",
                                     "cancelled"):
                    self.terminal_seen = True
                return event

        def slow_runner(spec_json, shard, progress=None):
            time.sleep(0.3)  # the follower subscribes before the end
            from repro.service.shards import execute_shard
            return execute_shard(spec_json, shard)

        svc = make_service(tmp_path, shard_runner=slow_runner).start()
        followers = []

        def subscribe(job_id):
            follower = IdleCounting(maxsize=svc.event_buffer)
            with svc._event_lock:
                backlog = list(svc._events.get(job_id, ()))
                svc._followers.setdefault(job_id, []).append(follower)
            followers.append(follower)
            return follower, backlog

        svc._subscribe = subscribe
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=2))["job"]
            events = list(client.follow(job, timeout_s=60.0))
            assert events[-1] == {"kind": "end", "state": "done"}
            assert followers and followers[0].terminal_seen
            assert followers[0].idle_after_terminal == 0
        finally:
            svc.abort()

    def test_follow_unknown_job_is_rejected(self, tmp_path):
        svc = make_service(tmp_path).start()
        try:
            with pytest.raises(JobRejectedError) as exc:
                list(client_of(svc).follow("no-such-job", timeout_s=5.0))
            assert exc.value.code == "UNKNOWN-JOB"
        finally:
            svc.abort()

    def test_offer_drops_oldest_when_follower_is_full(self):
        follower = queue.Queue(maxsize=3)
        for i in range(8):
            KondoService._offer(follower, {"seq": i})
        drained = []
        while not follower.empty():
            drained.append(follower.get_nowait()["seq"])
        assert drained == [5, 6, 7]  # oldest dropped, newest kept

    def test_event_buffer_is_bounded_per_job(self, tmp_path):
        svc = make_service(tmp_path, workers=0, event_buffer=4)
        job = "j-bounded"
        for i in range(10):
            svc._publish(job, "tick", i=i)
        buffered = list(svc._events[job])
        assert len(buffered) == 4
        assert [e["i"] for e in buffered] == [6, 7, 8, 9]
        # Seq numbers keep counting even through drops.
        assert buffered[-1]["seq"] == 10


class TestClientResilience:
    def test_unreachable_daemon_is_a_typed_error(self, tmp_path):
        client = ServiceClient(str(tmp_path / "absent.sock"),
                               timeout_s=0.5)
        with pytest.raises(ServiceUnavailableError):
            client.ping()
        # The typed error still satisfies pre-existing handlers.
        assert issubclass(ServiceUnavailableError, ServiceProtocolError)

    def test_wait_for_uses_full_jitter_with_a_hard_deadline(self, tmp_path):
        svc = make_service(tmp_path, workers=0).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=0))["job"]
            naps = []

            def fake_sleep(s):
                naps.append(s)

            with pytest.raises(ServiceError, match="still"):
                client.wait_for(job, timeout_s=1.0, poll_s=0.05,
                                sleep=fake_sleep)
            assert naps, "wait_for never backed off"
            # Full jitter: delays vary below the doubling cap.
            caps = [min(0.05 * 2 ** min(i, 16), 2.0)
                    for i in range(len(naps))]
            assert all(0.0 <= n <= c + 1e-9
                       for n, c in zip(naps, caps))
            assert len(set(naps)) > 1
            # Every delay is clamped to the remaining deadline budget.
            assert all(n <= 1.0 + 1e-9 for n in naps)
        finally:
            svc.abort()

    def test_wait_for_is_deterministic_per_job(self, tmp_path):
        svc = make_service(tmp_path, workers=0).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(shards=0))["job"]
            runs = []
            for _ in range(2):
                naps = []
                with pytest.raises(ServiceError, match="still"):
                    client.wait_for(job, timeout_s=0.5, poll_s=0.05,
                                    sleep=naps.append)
                runs.append(naps)
            # The jitter stream is seeded by the job id; the deadline
            # clamp depends on real elapsed time, so compare only the
            # early, unclamped draws.
            assert runs[0][:3] == runs[1][:3]
        finally:
            svc.abort()
