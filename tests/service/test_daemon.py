"""Socket-level daemon tests with an injected (inline) shard runner.

``supervised=False`` runs units inline on worker threads — no forking —
so these tests exercise the daemon's own machinery (admission control,
lease expiry, retry scheduling, drain, the wire protocol) fast; the
forked path is covered by the service chaos drills.  The jobs here are
unsharded, so each is one unit whose injected result is merged (one
carve of a one-point cloud) into the sealed digest; the fake runners
tag each attempt through the ``iterations`` the digest carries.
"""

import socket
import time

import pytest

from repro import FuzzConfig, Kondo, get_program
from repro.errors import JobRejectedError, ServiceError, ServiceProtocolError
from repro.resilience.retry import RetryPolicy
from repro.service import JobSpec, KondoService, ServiceClient, result_digest

DIMS = (16, 16)

#: Fast retry shape so retry/dead-letter tests finish in milliseconds.
FAST_RETRY = RetryPolicy(retries=2, backoff_s=0.01, backoff_factor=2.0,
                         backoff_max_s=0.02, jitter="full")


def spec(seed=0, **kw):
    return JobSpec(program="CS", dims=DIMS, seed=seed, max_iter=10, **kw)


def unit(iterations):
    """A shard-shaped runner result tagged by its ``iterations``."""
    return {"cloud": [[0, 1]], "iterations": iterations, "n_useful": 0}


def echo_seed(sj, shard, progress=None):
    return unit(sj["seed"])


def nothing(sj, shard, progress=None):
    return unit(0)


def make_service(tmp_path, runner, **kw):
    kw.setdefault("workers", 1)
    kw.setdefault("queue_limit", 4)
    kw.setdefault("retry_policy", FAST_RETRY)
    kw.setdefault("drain_timeout_s", 10.0)
    return KondoService(str(tmp_path), supervised=False,
                        shard_runner=runner, **kw)


@pytest.fixture
def service(tmp_path):
    """A started daemon whose runner echoes the spec seed as the unit's
    iteration count; drained on teardown."""
    svc = make_service(tmp_path, echo_seed).start()
    yield svc
    svc.abort()


def client_of(svc, timeout_s=5.0):
    return ServiceClient(svc.socket_path, timeout_s=timeout_s)


def landed_once(svc, job):
    """The job's unit completed exactly once (fenced-store evidence)."""
    audit = svc.store.token_audit(job)
    return audit["ok"] and [s["landed_events"] for s in audit["shards"]] \
        == [1] * len(audit["shards"])


class TestSubmitToCompletion:
    def test_submit_runs_to_done(self, service):
        client = client_of(service)
        job = client.submit(spec(seed=5))["job"]
        final = client.wait_for(job, timeout_s=10.0)
        assert final["state"] == "done"
        assert final["result"]["iterations"] == 5

    def test_repeat_submission_serves_cache(self, service):
        client = client_of(service)
        job = client.submit(spec())["job"]
        client.wait_for(job, timeout_s=10.0)
        again = client.submit(spec())
        assert again["deduped"]
        assert again["state"] == "done"
        assert again["result"]["iterations"] == 0

    def test_status_of_unknown_job(self, service):
        with pytest.raises(JobRejectedError) as exc:
            client_of(service).status("no-such-job")
        assert exc.value.code == "UNKNOWN-JOB"

    def test_ping_reports_capacity(self, service):
        pong = client_of(service).ping()
        assert pong["workers"] == 1
        assert pong["queue_limit"] == 4
        assert not pong["draining"]


class TestAdmissionControl:
    def test_overload_degrades_to_rejected_busy(self, tmp_path):
        svc = make_service(tmp_path, nothing, workers=0,
                           queue_limit=2).start()
        try:
            client = client_of(svc)
            client.submit(spec(seed=1))
            client.submit(spec(seed=2))
            with pytest.raises(JobRejectedError) as exc:
                client.submit(spec(seed=3))
            assert exc.value.code == "REJECTED-BUSY"
            # A rejected job was never accepted: no record landed.
            assert client.ping()["outstanding"] == 2
            assert len(svc.store.jobs()) == 2
        finally:
            svc.abort()

    def test_rejection_is_not_sticky(self, tmp_path):
        """Capacity freed by a completion re-opens admission."""
        svc = make_service(tmp_path, nothing, workers=1,
                           queue_limit=1).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(seed=1))["job"]
            client.wait_for(job, timeout_s=10.0)  # done -> not active
            client.submit(spec(seed=2))  # admitted again
        finally:
            svc.abort()

    def test_draining_daemon_rejects_submissions(self, tmp_path):
        svc = make_service(tmp_path, nothing, workers=0).start()
        try:
            client = client_of(svc)
            client.drain()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    client.submit(spec())
                except JobRejectedError as exc:
                    assert exc.code == "DRAINING"
                    break
                time.sleep(0.02)  # drain flag not visible yet; retry
            else:
                pytest.fail("drain never started rejecting submissions")
        finally:
            svc.abort()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        svc = make_service(tmp_path, nothing, workers=0).start()
        try:
            client = client_of(svc)
            job = client.submit(spec())["job"]
            client.cancel(job)
            assert client.status(job)["state"] == "cancelled"
        finally:
            svc.abort()

    def test_done_job_is_not_cancellable(self, service):
        client = client_of(service)
        job = client.submit(spec())["job"]
        client.wait_for(job, timeout_s=10.0)
        with pytest.raises(JobRejectedError) as exc:
            client.cancel(job)
        assert exc.value.code == "NOT-CANCELLABLE"


class TestRetryAndDeadLetter:
    def test_transient_failure_retries_to_success(self, tmp_path):
        attempts = []

        def flaky(sj, shard, progress=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient worker death")
            return unit(len(attempts))

        svc = make_service(tmp_path, flaky).start()
        try:
            client = client_of(svc)
            job = client.submit(spec())["job"]
            final = client.wait_for(job, timeout_s=10.0)
            assert final["state"] == "done"
            assert final["attempts"] == 1
            assert final["verdicts"] == ["EXCEPTION"]
            assert final["result"]["iterations"] == 2
            assert landed_once(svc, job)
        finally:
            svc.abort()

    def test_budget_exhaustion_dead_letters(self, tmp_path):
        def always_dies(sj, shard, progress=None):
            raise RuntimeError("deterministic failure")

        svc = make_service(tmp_path, always_dies).start()
        try:
            client = client_of(svc)
            job = client.submit(spec())["job"]
            final = client.wait_for(job, timeout_s=10.0)
            assert final["state"] == "dead"
            # retries=2 -> three attempts, then the typed dead letter.
            assert final["attempts"] == 3
            assert final["verdicts"] == ["EXCEPTION"] * 3
        finally:
            svc.abort()


class TestLeaseExpiry:
    def test_expired_lease_requeues_and_never_double_completes(
            self, tmp_path):
        """A worker that outlives its lease gets its result dropped; the
        retried attempt owns the only complete record."""
        finished = []

        def slow_then_fast(sj, shard, progress=None):
            if not finished:
                finished.append(1)
                time.sleep(1.0)  # far past the 0.15s lease ttl
                return unit(1)  # the stale attempt
            return unit(2)  # the retry

        svc = make_service(tmp_path, slow_then_fast,
                           lease_ttl_s=0.15).start()
        try:
            client = client_of(svc)
            job = client.submit(spec())["job"]
            final = client.wait_for(job, timeout_s=20.0)
            assert final["state"] == "done"
            assert final["verdicts"] == ["LEASE-EXPIRED"]
            assert final["result"]["iterations"] == 2
            assert landed_once(svc, job)
        finally:
            svc.abort()


class TestDrain:
    def test_drain_finishes_admitted_work(self, tmp_path):
        svc = make_service(tmp_path, nothing).start()
        client = client_of(svc)
        job = client.submit(spec())["job"]
        client.drain()
        assert svc.wait(timeout_s=10.0)
        assert svc.store.view(job).state == "done"

    def test_recovery_requeues_accepted_jobs(self, tmp_path):
        svc = make_service(tmp_path, nothing, workers=0).start()
        client = client_of(svc)
        jobs = [client.submit(spec(seed=i))["job"] for i in range(3)]
        svc.abort()  # crash
        restarted = make_service(
            tmp_path, lambda sj, shard, progress=None: unit(7)).start()
        try:
            client = client_of(restarted)
            for job in jobs:
                final = client.wait_for(job, timeout_s=10.0)
                assert final["state"] == "done"
                assert final["result"]["iterations"] == 7
                assert landed_once(restarted, job)
        finally:
            restarted.abort()


class TestWireProtocol:
    def test_malformed_request_gets_bad_request(self, service):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5.0)
        try:
            sock.connect(service.socket_path)
            sock.sendall(b"this is not json\n")
            response = sock.recv(4096)
        finally:
            sock.close()
        assert b'"BAD-REQUEST"' in response

    def test_unknown_op_rejected(self, service):
        with pytest.raises(JobRejectedError) as exc:
            client_of(service).request("frobnicate")
        assert exc.value.code == "BAD-REQUEST"

    def test_client_reports_unreachable_daemon(self, tmp_path):
        client = ServiceClient(str(tmp_path / "nobody.sock"),
                               timeout_s=1.0)
        with pytest.raises(ServiceProtocolError, match="cannot reach"):
            client.ping()

    def test_deadline_propagates_into_spec(self, service):
        client = client_of(service)
        job = client.submit(spec(seed=11, deadline_s=45.0))["job"]
        view = service.store.view(job)
        assert view.spec.deadline_s == 45.0


class TestOneExecutionPath:
    def test_unsharded_digest_equals_plain_analyze(self, tmp_path):
        """An unsharded job is a one-slice plan: its sealed result is
        the digest a plain ``Kondo.analyze`` of the same Θ gives."""
        job_spec = spec(seed=3)
        svc = KondoService(str(tmp_path), supervised=False, workers=1,
                           retry_policy=FAST_RETRY).start()
        try:
            client = client_of(svc)
            job = client.submit(job_spec)["job"]
            final = client.wait_for(job, timeout_s=60.0)
            assert final["state"] == "done"
            direct = result_digest(Kondo(
                get_program("CS"), DIMS,
                fuzz_config=FuzzConfig(rng_seed=3, max_iter=10)).analyze())
            assert final["result"] == dict(direct, n_slices=1)
            assert landed_once(svc, job)
        finally:
            svc.abort()

    def test_unsharded_follow_streams_unit_progress(self, tmp_path):
        """Unsupervised, an unsharded job streams the same unit events
        and per-iteration progress a shard does."""
        svc = KondoService(str(tmp_path), supervised=False, workers=1,
                           retry_policy=FAST_RETRY).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(seed=4))["job"]
            events = [ev for ev in client.follow(job, timeout_s=60.0)
                      if ev["kind"] != "keepalive"]
            kinds = [ev["kind"] for ev in events]
            order = [kinds.index(k) for k in (
                "shard-leased", "iteration", "slice-done", "shard-done")]
            assert order == sorted(order)
            assert "submitted" in kinds
            assert kinds[-2:] == ["done", "end"]
            assert all(ev["shard"] == 0 for ev in events
                       if ev["kind"].startswith("shard-")
                       or ev["kind"] in ("iteration", "slice-done"))
        finally:
            svc.abort()

    def test_cancelled_job_stays_cancelled(self, tmp_path):
        """A cancel record never changes: resubmitting the key serves
        the cancelled state instead of reopening the job."""
        svc = make_service(tmp_path, nothing, workers=0).start()
        try:
            client = client_of(svc)
            job = client.submit(spec())["job"]
            client.cancel(job)
            again = client.submit(spec())
            assert again["deduped"] and again["state"] == "cancelled"
        finally:
            svc.abort()

    def test_state_dir_with_an_old_journal_is_refused(self, tmp_path):
        (tmp_path / "jobs.log").write_bytes(b"")
        svc = make_service(tmp_path, nothing)
        with pytest.raises(ServiceError, match="jobs.log"):
            svc.start()

    def test_dedupe_survives_restart(self, tmp_path):
        """The outcome record is the dedupe record: after a restart an
        identical submission is served the result without re-running."""
        ran = []

        def runner(sj, shard, progress=None):
            ran.append(sj["seed"])
            return unit(sj["seed"])

        svc = make_service(tmp_path, runner).start()
        try:
            client = client_of(svc)
            job = client.submit(spec(seed=5))["job"]
            assert client.wait_for(job, timeout_s=30.0)["state"] == "done"
        finally:
            svc.drain()
        again = make_service(tmp_path, runner).start()
        try:
            served = client_of(again).submit(spec(seed=5))
            assert served["deduped"]
            assert served["result"]["iterations"] == 5
            assert ran == [5]  # the campaign ran exactly once
        finally:
            again.abort()
