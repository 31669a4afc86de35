"""Multi-daemon fleet campaigns over one shared store.

These run real :class:`KondoService` daemons (threads + unix sockets)
pointed at one shared store (``shared_dir``, the ``--fleet`` option), with short lease/registry TTLs so failover is
fast.  The two headline scenarios from the PR's acceptance criteria —
a daemon killed mid-campaign and a daemon partitioned from the store —
both must end with a merged digest bit-identical to the single-host
reference and a clean token audit (zero double-executed shards).
"""

import time

import pytest

from repro import cli
from repro.errors import FleetError, FleetPartitionedError
from repro.resilience.faults import PartitionGate
from repro.resilience.retry import RetryPolicy
from repro.service import (
    JobSpec,
    KondoService,
    ServiceClient,
    run_sharded_reference,
)
from repro.service.shards import execute_shard

DIMS = (16, 16)


def spec(seed=0, shards=2, **kw):
    return JobSpec(program="CS", dims=DIMS, seed=seed, max_iter=12,
                   shards=shards, **kw)


#: Fast retry and partition-rejoin backoff.
FAST_RETRY = RetryPolicy(retries=2, backoff_s=0.02, backoff_factor=2.0,
                         backoff_max_s=0.2, jitter="full")


def make_daemon(tmp_path, name, **kw):
    kw.setdefault("lease_ttl_s", 1.0)
    kw.setdefault("registry_ttl_s", 1.0)
    kw.setdefault("heartbeat_interval_s", 0.1)
    kw.setdefault("retry_policy", FAST_RETRY)
    kw.setdefault("supervised", False)
    return KondoService(str(tmp_path / name),
                        shared_dir=str(tmp_path / "shared"), worker=name,
                        **kw)


def client_of(svc, timeout_s=5.0):
    return ServiceClient(svc.socket_path, timeout_s=timeout_s)


def wait_until(predicate, timeout_s=10.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


class TestFleetCampaign:
    def test_two_daemons_complete_bit_identical_to_reference(self,
                                                             tmp_path):
        reference = run_sharded_reference(spec(shards=4))
        alpha = make_daemon(tmp_path, "alpha").start()
        beta = make_daemon(tmp_path, "beta").start()
        try:
            client = client_of(alpha)
            ping = client.ping()
            assert ping["fleet"] and ping["members"] == {"alpha": True,
                                                         "beta": True}
            job = client.submit(spec(shards=4))["job"]
            final = client.wait_for(job, timeout_s=120.0)
            assert final["state"] == "done"
            assert final["result"]["carved_sha256"] \
                == reference["carved_sha256"]
            audit = client.request("audit", job=job)
            assert audit["ok"] is True
            assert all(s["landed_events"] == 1 for s in audit["shards"])
            # Either daemon serves the same finished result.
            assert client_of(beta).status(job)["result"]["carved_sha256"] \
                == reference["carved_sha256"]
        finally:
            alpha.drain()
            beta.drain()

    def test_resubmission_on_any_daemon_is_a_dedupe(self, tmp_path):
        alpha = make_daemon(tmp_path, "alpha").start()
        beta = make_daemon(tmp_path, "beta").start()
        try:
            first = client_of(alpha).submit(spec())
            second = client_of(beta).submit(spec())
            assert first["job"] == second["job"]
            assert not first["deduped"] and second["deduped"]
        finally:
            alpha.drain()
            beta.drain()

    def test_fleet_serves_cancel_follow_and_unsharded_jobs(self, tmp_path):
        """The single-host features work across a fleet: a job cancelled
        on one daemon is never run by another, an unsharded job runs as
        one unit on whichever daemon claims it, and a follower on the
        other daemon sees the stream end once the store shows it done."""
        unsharded = JobSpec(program="CS", dims=DIMS, seed=0, max_iter=12)
        beta = make_daemon(tmp_path, "beta", workers=0).start()
        alpha = make_daemon(tmp_path, "alpha")
        try:
            doomed = client_of(beta).submit(spec(seed=9))["job"]
            assert client_of(beta).cancel(doomed)["state"] == "cancelled"
            alpha.start()
            job = client_of(beta).submit(unsharded)["job"]
            events = list(client_of(beta).follow(job, timeout_s=60.0))
            assert events[-1] == {"kind": "end", "state": "done"}
            final = client_of(alpha).status(job)
            assert final["result"] == run_sharded_reference(unsharded)
            audit = client_of(alpha).request("audit", job=job)
            assert audit["ok"] is True
            assert [s["landed_events"] for s in audit["shards"]] == [1]
            assert client_of(alpha).status(doomed)["state"] == "cancelled"
            assert alpha.store.granted_tokens(doomed, 0) == []
        finally:
            alpha.drain()
            beta.drain()


class TestDaemonKilledMidCampaign:
    def test_survivor_completes_with_reference_digest(self, tmp_path):
        """Kill beta while it holds a lease: its store connection is
        severed (every op fails, like a yanked mount) and the process
        "dies" (abort = heartbeats stop).  Alpha must reclaim beta's
        shard under a higher token and finish bit-identically, with
        the token audit proving no shard executed twice."""
        reference = run_sharded_reference(spec(shards=2))
        gate = PartitionGate()
        claimed = []

        def slow_runner(spec_json, shard, progress=None):
            claimed.append(shard)
            time.sleep(0.4)  # hold the lease long enough to die with it
            return execute_shard(spec_json, shard)

        alpha = make_daemon(tmp_path, "alpha").start()
        beta = make_daemon(tmp_path, "beta", shard_runner=slow_runner,
                           fault_gate=gate).start()
        try:
            # Submitted through beta, whose claim loop wakes on its own
            # submissions, so beta holds a lease when it dies.
            job = client_of(beta).submit(spec(shards=2))["job"]
            assert wait_until(lambda: claimed), \
                "beta never claimed a shard"
            gate.begin()  # sever beta's store...
            beta.abort()  # ...and kill the daemon
            final = client_of(alpha).wait_for(job, timeout_s=120.0)
            assert final["state"] == "done"
            assert final["result"]["carved_sha256"] \
                == reference["carved_sha256"]
            audit = client_of(alpha).request("audit", job=job)
            assert audit["ok"] is True, audit
            assert all(s["landed_events"] == 1 for s in audit["shards"])
        finally:
            alpha.drain()
            gate.heal()
            beta.abort()


class TestPartitionedDaemon:
    def test_degrades_to_readonly_heals_and_rejoins(self, tmp_path,
                                                    capsys):
        reference = run_sharded_reference(spec(shards=2))
        gate = PartitionGate()
        alpha = make_daemon(tmp_path, "alpha").start()
        beta = make_daemon(tmp_path, "beta", fault_gate=gate).start()
        try:
            first_epoch = beta.store.epoch
            gate.begin()
            assert wait_until(lambda: beta.partitioned), \
                "beta never noticed the partition"
            # Typed error out of the client, degraded state in status.
            with pytest.raises(FleetPartitionedError):
                client_of(beta).submit(spec(shards=2))
            status = client_of(beta).status()
            assert status["partitioned"] is True
            # ... and the CLI renders the degradation loudly.
            rc = cli.main(["status", "--socket", beta.socket_path])
            assert rc == 0
            assert "PARTITIONED" in capsys.readouterr().err
            # The rest of the fleet is not impaired.
            job = client_of(alpha).submit(spec(shards=2))["job"]
            final = client_of(alpha).wait_for(job, timeout_s=120.0)
            assert final["result"]["carved_sha256"] \
                == reference["carved_sha256"]
            # Heal: beta rejoins under a bumped epoch and serves the
            # finished campaign — without having run anything twice.
            gate.heal()
            assert wait_until(lambda: not beta.partitioned), \
                "beta never rejoined after the heal"
            assert beta.store.epoch > first_epoch
            healed = client_of(beta).status(job)
            assert healed["partitioned"] is False
            assert healed["state"] == "done"
            audit = client_of(alpha).request("audit", job=job)
            assert audit["ok"] is True, audit
        finally:
            alpha.drain()
            gate.heal()
            beta.drain()


class TestCrossHostHedging:
    def test_hedge_completes_a_stalled_primary_shard(self, tmp_path):
        """Alpha grabs the only shard and stalls; beta, hedging after
        0.2s, executes speculatively and wins the completion under the
        next token.  First token-valid completion wins; the audit still
        shows exactly one landed completion."""
        reference = run_sharded_reference(spec(shards=1))

        def stalled_runner(spec_json, shard, progress=None):
            time.sleep(4.0)
            return execute_shard(spec_json, shard)

        alpha = make_daemon(tmp_path, "alpha", shard_runner=stalled_runner,
                            lease_ttl_s=30.0, registry_ttl_s=30.0).start()
        beta = make_daemon(tmp_path, "beta", hedge_after_s=0.2,
                           lease_ttl_s=30.0, registry_ttl_s=30.0)
        try:
            job = client_of(alpha).submit(spec(shards=1))["job"]
            # Let the doomed primary win the claim before the hedger
            # even joins, so the hedge path is what completes the shard.
            assert wait_until(
                lambda: alpha.store.read_lease(job, 0) is not None)
            beta.start()
            final = client_of(beta).wait_for(job, timeout_s=120.0)
            assert final["state"] == "done"
            assert final["result"]["carved_sha256"] \
                == reference["carved_sha256"]
            assert beta.store.read_done(job, 0)["worker"] == "beta"
            hedges = [e for e in beta.store.fenced_events()
                      if e.get("op") == "hedge"]
            assert hedges and hedges[0]["worker"] == "beta"
            audit = client_of(beta).request("audit", job=job)
            assert audit["ok"] is True, audit
        finally:
            alpha.abort()
            beta.drain()


class TestClaimLoopResilience:
    def test_claim_loop_survives_typed_errors(self, tmp_path):
        """A typed KondoError escaping a store call must not silently
        kill the claim loop — the daemon would keep heartbeating as
        healthy while never claiming again, stalling the campaign
        forever.  Three injected failures, then the campaign must
        still complete."""
        reference = run_sharded_reference(spec(shards=2))
        alpha = make_daemon(tmp_path, "alpha")
        real_claim = alpha.store.claim_shard
        injected = {"left": 3}

        def flaky_claim(job):
            if injected["left"] > 0:
                injected["left"] -= 1
                raise FleetError("transient typed failure")
            return real_claim(job)

        alpha.store.claim_shard = flaky_claim
        alpha.start()
        try:
            job = client_of(alpha).submit(spec(shards=2))["job"]
            final = client_of(alpha).wait_for(job, timeout_s=120.0)
            assert final["state"] == "done"
            assert final["result"]["carved_sha256"] \
                == reference["carved_sha256"]
        finally:
            alpha.drain()
        assert injected["left"] == 0


class TestFleetServiceValidation:
    def test_rejects_bad_configuration(self, tmp_path):
        for kw in ({"workers": -1}, {"heartbeat_interval_s": 0.0},
                   {"hedge_after_s": -1.0}):
            with pytest.raises(FleetError):
                make_daemon(tmp_path, "bad", **kw)

    def test_double_start_is_an_error(self, tmp_path):
        svc = make_daemon(tmp_path, "alpha").start()
        try:
            with pytest.raises(FleetError):
                svc.start()
        finally:
            svc.drain()
