"""The fenced fleet store: tokens, leases, epochs, clocks, crash points.

Everything here runs on :class:`FakeClock` — expiry is a function call,
not a sleep — and the hypothesis property drives *interleavings* of two
workers racing one shard, asserting the two invariants the protocol
exists for: exactly one token-valid completion per shard, and a merged
digest bit-identical to the no-fault reference.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FleetError,
    InjectedFault,
    JobRejectedError,
    StaleTokenError,
)
from repro.resilience.faults import GateCrashPoint, PartitionGate
from repro.resilience.retry import RetryPolicy
from repro.service import (
    JobSpec,
    missing_theta_manifest,
    plan_shards,
    run_sharded_reference,
)
from repro.service.fleet import (
    ClockSource,
    FakeClock,
    FleetStore,
    SkewedClock,
    WorkerRegistry,
    create_sealed_exclusive,
    publish_sealed,
    read_sealed,
    stamp,
)
from repro.service.shards import execute_shard, merge_shard_results

DIMS = (16, 16)


def spec(seed=0, shards=2, **kw):
    return JobSpec(program="CS", dims=DIMS, seed=seed, max_iter=12,
                   shards=shards, **kw)


#: Retry budget of one retry, no backoff: failure tests stay exact.
NO_BACKOFF = RetryPolicy(retries=1, backoff_s=0.0)


def make_store(shared, worker, clock, ttl=5.0, gate=None, retry=None):
    return FleetStore(str(shared), worker, clock,
                      registry=WorkerRegistry(str(shared), clock, ttl_s=ttl),
                      lease_ttl_s=ttl, fault_gate=gate, retry_policy=retry)


_RESULT_CACHE = {}


def _shard_result(job_spec, shard=0):
    """Memoized shard payload: the protocol tests race *bookkeeping*,
    and shard execution is deterministic (PR 9), so one solve per
    (spec, shard) serves every interleaving and crash point."""
    key = (job_spec.key, shard)
    if key not in _RESULT_CACHE:
        _RESULT_CACHE[key] = execute_shard(job_spec.to_json(), shard)
    return _RESULT_CACHE[key]


def run_campaign(store, job_spec):
    """Drive one store through a whole campaign, single-mindedly."""
    job = job_spec.key
    store.submit(job_spec)
    while store.read_result(job) is None:
        claim = store.claim_shard(job)
        if claim is not None:
            store.publish_done(claim, _shard_result(job_spec, claim.shard))
            continue
        done = store.shards_done(job)
        if len(done) == job_spec.shards:
            merged = merge_shard_results(job_spec, done)
            store.publish_result(
                job, merged, max(d["token"] for d in done.values()))
    return store.read_result(job)


def run_failing_campaign(store, job_spec, cancelled_spec):
    """Drive a campaign whose shard 1 always fails: it dead-letters and
    the job seals PARTIAL.  A second job is cancelled before it runs."""
    store.submit(cancelled_spec)
    store.cancel(cancelled_spec.key)
    job = job_spec.key
    store.submit(job_spec)
    while store.read_outcome(job) is None:
        claim = store.claim_shard(job)
        if claim is not None:
            if claim.shard == 1:
                store.record_failure(claim, "EXCEPTION", "injected")
            else:
                store.publish_done(claim,
                                   _shard_result(job_spec, claim.shard))
            continue
        units = store.view(job).shards
        if all(sv.state in ("done", "dead") for sv in units.values()):
            done = {i: sv.result for i, sv in units.items()
                    if sv.state == "done"}
            dead = sorted(set(units) - set(done))
            merged = merge_shard_results(
                job_spec, done,
                missing=missing_theta_manifest(plan_shards(job_spec), dead))
            store.publish_result(job, merged, 1, state="partial")
    return store.view(job)


class TestClocks:
    def test_wall_expired_honours_skew_allowance(self):
        clock = FakeClock(start=1000.0)
        # A deadline 1s in the past is NOT expired under a 2s skew
        # allowance — another host's clock may legitimately sit there.
        assert not clock.wall_expired(clock.wall() - 1.0)
        assert clock.wall_expired(clock.wall() - 2.5)

    def test_fake_clock_advances_both_faces(self):
        clock = FakeClock(start=50.0)
        m0, w0 = clock.monotonic(), clock.wall()
        clock.advance(7.0)
        assert clock.monotonic() - m0 == pytest.approx(7.0)
        assert clock.wall() - w0 == pytest.approx(7.0)

    def test_skewed_clock_biases_wall_only(self):
        base = FakeClock(start=100.0)
        skewed = SkewedClock(base, bias_s=30.0)
        assert skewed.wall() - base.wall() == pytest.approx(30.0)
        assert skewed.monotonic() == pytest.approx(base.monotonic())

    def test_cross_host_skew_within_allowance_is_not_expiry(self):
        base = FakeClock(start=100.0)
        fast_host = SkewedClock(base, bias_s=1.5)  # < allowance (2s)
        deadline = base.wall() + 0.5
        assert not fast_host.wall_expired(deadline)
        far_host = SkewedClock(base, bias_s=10.0)
        assert far_host.wall_expired(deadline)

    def test_real_clock_source_validates_allowance(self):
        with pytest.raises(FleetError):
            ClockSource(skew_allowance_s=-1.0)


class TestFencingHelpers:
    def test_stamp_rejects_tokenless_records(self):
        with pytest.raises(FleetError):
            stamp({}, job="a" * 8, shard=0, token=0, worker="w", epoch=1)

    def test_stamp_adds_identity_without_mutating_input(self):
        rec = {"x": 1}
        out = stamp(rec, job="a" * 8, shard=3, token=2, worker="w", epoch=1)
        assert out["token"] == 2 and out["shard"] == 3
        assert rec == {"x": 1}

    def test_exclusive_create_is_first_writer_wins(self, tmp_path):
        path = str(tmp_path / "done.rec")
        assert create_sealed_exclusive(path, {"winner": "a"})
        assert not create_sealed_exclusive(path, {"winner": "b"})
        assert read_sealed(path)["winner"] == "a"

    def test_writer_dying_mid_create_leaves_the_name_free(
            self, tmp_path, monkeypatch):
        """A writer killed between creating and sealing a record must
        not leave a torn record holding the name: that would wedge a
        done, outcome or spec record forever."""
        path = str(tmp_path / "done.rec")

        def killed(fd):
            raise OSError("killed mid-write")

        monkeypatch.setattr(os, "fsync", killed)
        with pytest.raises(OSError):
            create_sealed_exclusive(path, {"winner": "a"})
        monkeypatch.undo()
        assert not os.path.exists(path)
        assert create_sealed_exclusive(path, {"winner": "b"})
        assert read_sealed(path)["winner"] == "b"

    def test_read_sealed_degrades_corruption_to_absent(self, tmp_path):
        path = str(tmp_path / "lease.rec")
        assert read_sealed(path) is None  # missing
        publish_sealed(path, {"token": 1})
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:  # torn mid-write
            fh.write(raw[: len(raw) // 2])
        assert read_sealed(path) is None
        with open(path, "wb") as fh:  # flipped bytes, right length
            fh.write(b"\xff" * len(raw))
        assert read_sealed(path) is None


class TestWorkerRegistry:
    def test_reregistration_bumps_epoch(self, tmp_path):
        clock = FakeClock()
        reg = WorkerRegistry(str(tmp_path), clock, ttl_s=5.0)
        first = reg.register("alpha")
        second = reg.register("alpha")
        assert second.epoch == first.epoch + 1
        assert reg.current_epoch("alpha") == second.epoch

    def test_liveness_expires_without_heartbeats(self, tmp_path):
        clock = FakeClock()
        reg = WorkerRegistry(str(tmp_path), clock, ttl_s=5.0)
        rec = reg.register("alpha")
        assert reg.is_live("alpha")
        clock.advance(4.0)
        reg.heartbeat("alpha", rec.epoch)
        clock.advance(4.0)
        assert reg.is_live("alpha")  # heartbeat pushed the horizon
        clock.advance(10.0)
        assert not reg.is_live("alpha")

    def test_members_and_live_map(self, tmp_path):
        clock = FakeClock()
        reg = WorkerRegistry(str(tmp_path), clock, ttl_s=5.0)
        reg.register("alpha")
        reg.register("beta")
        clock.advance(10.0)
        reg.heartbeat("beta", reg.current_epoch("beta"))
        live = reg.live_map()
        assert live == {"alpha": False, "beta": True}
        assert sorted(m.worker for m in reg.members()) == ["alpha", "beta"]

    def test_rejects_hostile_worker_names(self, tmp_path):
        clock = FakeClock()
        reg = WorkerRegistry(str(tmp_path), clock, ttl_s=5.0)
        with pytest.raises(FleetError):
            reg.register("../escape")


class TestFleetStoreProtocol:
    def test_submit_is_first_writer_wins(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        a.enlist(), b.enlist()
        assert a.submit(spec())
        assert not b.submit(spec())  # dedupe, not a fork

    def test_claims_hand_out_shards_in_index_order_once(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        store.submit(spec(shards=2))
        job = spec(shards=2).key
        first, second = store.claim_shard(job), store.claim_shard(job)
        assert (first.shard, second.shard) == (0, 1)
        assert first.token == 1 and second.token == 1
        assert store.claim_shard(job) is None  # all leased

    def test_expired_lease_reclaims_under_higher_token(self, tmp_path):
        clock = FakeClock()
        stale = make_store(tmp_path, "stale", clock, ttl=2.0)
        peer = make_store(tmp_path, "peer", clock, ttl=2.0)
        stale.enlist(), peer.enlist()
        stale.submit(spec(shards=1))
        job = spec(shards=1).key
        old = stale.claim_shard(job)
        clock.advance(60.0)
        peer.heartbeat()
        new = peer.claim_shard(job)
        assert new.shard == old.shard and new.token > old.token
        result = _shard_result(spec(shards=1))
        assert peer.publish_done(new, result)
        with pytest.raises(StaleTokenError):
            stale.publish_done(old, result)

    def test_same_token_replay_is_a_dedupe_not_a_conflict(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        claim = store.claim_shard(job)
        result = _shard_result(spec(shards=1))
        assert store.publish_done(claim, result)
        # A rejoining worker replaying its own landed completion.
        assert not store.publish_done(claim, result)

    def test_orphaned_claim_is_immediately_reclaimable(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock, ttl=100.0)
        b = make_store(tmp_path, "b", clock, ttl=100.0)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        # "a" dies between winning the token marker and writing the
        # lease: simulate by claiming the marker directly.
        assert a._claim_token(job, 0, 0) == 1
        claim = b.claim_shard(job)  # no TTL wait — marker > lease token
        assert claim is not None and claim.token == 2

    def test_claim_on_a_stale_scan_loses(self, tmp_path):
        """Two loops deciding on the same scan cannot both claim: the
        late one asks for the token after the one it saw, which the
        first already took, so it loses instead of fencing the first."""
        store = make_store(tmp_path, "a", FakeClock())
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        first = store.claim_shard(job)
        assert store._claim(job, 0, 0) is None
        assert store.granted_tokens(job, 0) == [first.token]

    def test_dead_owner_epoch_bump_fences_old_completion(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock, ttl=100.0)
        b = make_store(tmp_path, "b", clock, ttl=100.0)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        old = a.claim_shard(job)
        # "a" restarts: re-enlisting bumps the registry epoch, which
        # makes its pre-restart lease reclaimable without any TTL.
        a.enlist()
        claim = b.claim_shard(job)
        assert claim is not None and claim.token > old.token

    def test_renew_pushes_deadline_and_rejects_stale(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock, ttl=5.0)
        peer = make_store(tmp_path, "b", clock, ttl=5.0)
        store.enlist(), peer.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        claim = store.claim_shard(job)
        clock.advance(3.0)
        renewed = store.renew(claim)
        assert renewed.deadline_wall > claim.deadline_wall
        clock.advance(60.0)
        peer.heartbeat()
        peer.claim_shard(job)
        with pytest.raises(StaleTokenError):
            store.renew(renewed)

    def test_stale_renew_cannot_clobber_newer_lease(self, tmp_path):
        """A renewer that loses the token race after its staleness
        check passed writes only to its own token's lease path — the
        newer owner's lease survives and no third worker sees a
        spuriously orphaned shard."""
        clock = FakeClock()
        stale = make_store(tmp_path, "stale", clock, ttl=2.0)
        owner = make_store(tmp_path, "owner", clock, ttl=2.0)
        peer = make_store(tmp_path, "peer", clock, ttl=2.0)
        for s in (stale, owner, peer):
            s.enlist()
        stale.submit(spec(shards=1))
        job = spec(shards=1).key
        old = stale.claim_shard(job)
        clock.advance(60.0)
        owner.heartbeat(), peer.heartbeat()
        new = owner.claim_shard(job)
        assert new.token > old.token
        # Simulate the lost interleaving: the stale renewer's write
        # lands *after* the new owner's lease.  Per-token paths mean it
        # cannot touch the newer record.
        stale._publish_lease(old)
        lease = peer.read_lease(job, 0)
        assert lease["token"] == new.token and lease["worker"] == "owner"
        assert peer.claim_shard(job) is None  # owner not spuriously fenced

    def test_unknown_job_reads_as_token_zero(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        assert store.current_token("deadbeef", 0) == 0
        assert store.granted_tokens("deadbeef", 0) == []

    def test_partial_store_failure_propagates_from_token_reads(
            self, tmp_path, monkeypatch):
        """Reads failing while writes still land must NOT read as
        'token zero' — that would skip the staleness check and let a
        fenced-out worker renew or publish as if no newer token
        existed.  The OSError propagates and the daemon partitions."""
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        claim = store.claim_shard(job)
        real_listdir = os.listdir

        def failing(path):
            if "tokens" in str(path):
                raise OSError("injected I/O error")
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", failing)
        with pytest.raises(OSError):
            store.renew(claim)
        with pytest.raises(OSError):
            store.publish_done(claim, _shard_result(spec(shards=1)))

    def test_hedge_publish_loses_to_landed_completion(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        claim = a.claim_shard(job)
        result = _shard_result(spec(shards=1))
        a.publish_done(claim, result)
        assert b.hedge_publish(job, 0, result) is None

    def test_hedge_publish_wins_over_a_stalled_primary(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        a.claim_shard(job)  # primary stalls, never publishes
        result = _shard_result(spec(shards=1))
        hedged = b.hedge_publish(job, 0, result)
        assert hedged is not None and hedged.worker == "b"
        assert b.read_done(job, 0)["worker"] == "b"

    def test_mid_hedge_shard_is_not_an_orphaned_claim(self, tmp_path,
                                                      monkeypatch):
        """Between the hedge's token claim and its done create, peers
        must see an ordinary live lease — not an orphaned marker they
        would instantly reclaim (fencing the hedge for nothing)."""
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        c = make_store(tmp_path, "c", clock)
        for s in (a, b, c):
            s.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        a.claim_shard(job)  # healthy primary, mid-run
        result = _shard_result(spec(shards=1))
        observed = {}
        real_publish_done = b.publish_done

        def peer_scans_mid_hedge(claim, res):
            observed["peer_claim"] = c.claim_shard(job)
            return real_publish_done(claim, res)

        monkeypatch.setattr(b, "publish_done", peer_scans_mid_hedge)
        hedged = b.hedge_publish(job, 0, result)
        assert observed["peer_claim"] is None
        assert hedged is not None and hedged.worker == "b"

    def test_hedge_losing_the_token_race_is_a_loss_not_an_error(
            self, tmp_path, monkeypatch):
        """A reclaim squeezed into the hedge's marker-to-done window
        fences the hedge; that is a normal 'hedge lost' outcome and
        must not escape as StaleTokenError (it would kill the caller's
        claim loop)."""
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        a.claim_shard(job)
        result = _shard_result(spec(shards=1))

        def fenced(claim, res):
            raise StaleTokenError("fenced mid-hedge", token=claim.token,
                                  current=claim.token + 1)

        monkeypatch.setattr(b, "publish_done", fenced)
        assert b.hedge_publish(job, 0, result) is None

    def test_result_is_first_merger_wins(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", clock)
        b = make_store(tmp_path, "b", clock)
        a.enlist(), b.enlist()
        a.submit(spec(shards=1))
        job = spec(shards=1).key
        assert a.publish_result(job, {"carved_sha256": "x"}, token=1)
        assert not b.publish_result(job, {"carved_sha256": "y"}, token=1)
        assert a.read_result(job)["carved_sha256"] == "x"

    def test_campaign_matches_reference_and_audits_clean(self, tmp_path):
        job_spec = spec(shards=2)
        reference = run_sharded_reference(job_spec)
        clock = FakeClock()
        store = make_store(tmp_path, "solo", clock)
        store.enlist()
        merged = run_campaign(store, job_spec)
        assert merged["carved_sha256"] == reference["carved_sha256"]
        audit = store.token_audit(job_spec.key)
        assert audit["ok"], audit
        assert all(s["landed_events"] == 1 for s in audit["shards"])

    def test_audit_forgives_crash_between_done_record_and_event(
            self, tmp_path, monkeypatch):
        """A worker dying between landing the done record and appending
        its 'done' event leaves zero 'done' events forever; its rejoin
        replay logs 'done-dedup' under the same (token, worker), which
        the audit accepts as the exactly-one-done attestation."""
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        claim = store.claim_shard(job)
        result = _shard_result(spec(shards=1))
        real_event = store._event

        def crashed_before_event(op, jb, shard, token):
            if op == "done":
                return  # died between the create and the append
            real_event(op, jb, shard, token)

        monkeypatch.setattr(store, "_event", crashed_before_event)
        assert store.publish_done(claim, result)
        monkeypatch.undo()
        assert not store.publish_done(claim, result)  # the rejoin replay
        audit = store.token_audit(job)
        assert audit["ok"], audit
        assert audit["shards"][0]["landed_events"] == 0
        assert audit["shards"][0]["dedup_attested"] is True

    def test_bad_job_keys_rejected_and_unsharded_jobs_are_one_unit(
            self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        with pytest.raises(FleetError):
            store.claim_shard("../../etc")
        unsharded = JobSpec(program="CS", dims=DIMS, seed=0, max_iter=12)
        assert store.submit(unsharded)
        claim = store.claim_shard(unsharded.key)
        assert (claim.shard, claim.token) == (0, 1)
        assert store.claim_shard(unsharded.key) is None  # one unit only
        assert store.view(unsharded.key).state == "leased"

    def test_restarted_fleet_of_one_reclaims_its_own_lease_at_once(
            self, tmp_path):
        """A daemon restarting under its own worker id re-enlists under
        a bumped epoch, which fences its dead incarnation's lease at
        once — no waiting out the 100 s lease TTL."""
        clock = FakeClock()
        first = make_store(tmp_path, "local", clock, ttl=100.0)
        first.enlist()
        first.submit(spec(shards=1))
        job = spec(shards=1).key
        old = first.claim_shard(job)
        restarted = make_store(tmp_path, "local", clock, ttl=100.0)
        restarted.enlist()
        claim = restarted.claim_shard(job)
        assert claim is not None and claim.token == old.token + 1
        with pytest.raises(StaleTokenError):
            first.publish_done(old, _shard_result(spec(shards=1)))

    def test_different_theta_is_a_different_job(self, tmp_path):
        store = make_store(tmp_path, "a", FakeClock())
        store.enlist()
        assert store.submit(spec(seed=0))
        assert store.submit(spec(seed=1))
        assert len(store.jobs()) == 2

    def test_workers_not_part_of_identity(self):
        # Pooled and serial campaigns are seed-for-seed identical, so
        # they must share one job.
        assert spec(workers=0).key == spec(workers=4).key

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(JobRejectedError, match="unknown job spec"):
            JobSpec.from_json({"program": "CS", "dims": [4], "bogus": 1})

    def test_state_survives_a_fresh_handle(self, tmp_path):
        """State lives in the records alone: a new handle (a restarted
        daemon) derives the same done and cancelled states."""
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock)
        store.enlist()
        job_spec = spec(shards=1)
        run_campaign(store, job_spec)
        store.submit(spec(seed=5))
        assert store.cancel(spec(seed=5).key)
        again = make_store(tmp_path, "a", clock)
        assert again.view(job_spec.key).state == "done"
        assert again.view(job_spec.key).result == store.read_result(
            job_spec.key)
        assert again.view(spec(seed=5).key).state == "cancelled"

    def test_torn_spec_record_is_no_job(self, tmp_path):
        store = make_store(tmp_path, "a", FakeClock())
        store.enlist()
        store.submit(spec())
        path = os.path.join(str(tmp_path), "jobs", spec().key, "spec.json")
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        assert store.view(spec().key) is None
        assert store.claim_shard(spec().key) is None


class TestFailureRecords:
    def test_failures_count_attempts_then_dead_letter(self, tmp_path):
        store = make_store(tmp_path, "a", FakeClock(), retry=NO_BACKOFF)
        store.enlist()
        job_spec = JobSpec(program="CS", dims=DIMS, seed=0, max_iter=12)
        store.submit(job_spec)
        job = job_spec.key
        first = store.claim_shard(job)
        assert store.record_failure(first, "OOM") == "queued"
        assert store.view(job).attempts == 1
        second = store.claim_shard(job)
        assert second.token == first.token + 1
        assert store.record_failure(second, "TIMEOUT") == "dead"
        view = store.view(job)
        assert view.shards[0].state == "dead"
        assert view.verdicts == ["OOM", "TIMEOUT"]
        assert store.claim_shard(job) is None  # dead stays dead

    def test_backoff_gates_the_retry_on_the_injected_clock(self, tmp_path):
        clock = FakeClock()
        slow = RetryPolicy(retries=2, backoff_s=5.0, jitter="none")
        store = make_store(tmp_path, "a", clock, ttl=100.0, retry=slow)
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        store.record_failure(store.claim_shard(job), "SIGNALED")
        assert store.claim_shard(job) is None  # 5 s backoff not over
        clock.advance(5.0)
        assert store.claim_shard(job).token == 2

    def test_fenced_attempt_burns_no_retry_budget(self, tmp_path):
        clock = FakeClock()
        stale = make_store(tmp_path, "stale", clock, ttl=2.0)
        peer = make_store(tmp_path, "peer", clock, ttl=2.0)
        stale.enlist(), peer.enlist()
        stale.submit(spec(shards=1))
        job = spec(shards=1).key
        old = stale.claim_shard(job)
        clock.advance(60.0)
        peer.heartbeat()
        peer.claim_shard(job)
        assert stale.record_failure(old, "SIGNALED") is None
        assert store_attempts(peer, job) == 0

    def test_expired_own_lease_fails_lease_expired(self, tmp_path):
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock, ttl=2.0, retry=NO_BACKOFF)
        store.enlist()
        store.submit(spec(shards=1))
        job = spec(shards=1).key
        old = store.claim_shard(job)
        clock.advance(2.5)  # own lease: no cross-host skew allowance
        assert store.claim_shard(job) is None  # fails the attempt first
        assert store.view(job).shards[0].verdicts == ["LEASE-EXPIRED"]
        assert store.claim_shard(job).token == old.token + 1
        with pytest.raises(StaleTokenError):
            store.publish_done(old, _shard_result(spec(shards=1)))

    def test_cancel_only_before_any_claim(self, tmp_path):
        store = make_store(tmp_path, "a", FakeClock())
        store.enlist()
        store.submit(spec(seed=1))
        assert store.cancel(spec(seed=1).key)
        assert store.claim_shard(spec(seed=1).key) is None
        assert store.view(spec(seed=1).key).state == "cancelled"
        store.submit(spec(seed=2))
        store.claim_shard(spec(seed=2).key)
        assert not store.cancel(spec(seed=2).key)
        assert store.view(spec(seed=2).key).state == "running"


def store_attempts(store, job):
    return sum(sv.attempts for sv in store.view(job).shards.values())


#: The interleaving alphabet: which worker acts, and how.  "expire"
#: advances the fake clock past every lease + heartbeat horizon, so
#: both workers look dead and all leases look stale — the harshest
#: reordering the protocol must absorb.
ACTIONS = st.lists(
    st.sampled_from(["a:claim", "b:claim", "a:publish", "b:publish",
                     "a:beat", "b:beat", "expire"]),
    min_size=1, max_size=14,
)


class TestInterleavedFencedWrites:
    @given(actions=ACTIONS)
    @settings(max_examples=30, deadline=None)
    def test_exactly_one_token_valid_completion(self, tmp_path_factory,
                                                actions):
        tmp_path = tmp_path_factory.mktemp("fleet-interleave")
        job_spec = spec(shards=1)
        job = job_spec.key
        # The shard payload is deterministic (PR 9), so compute it once:
        # the property is about the *protocol*, not the solver.
        result = _shard_result(job_spec)
        clock = FakeClock()
        stores = {"a": make_store(tmp_path, "a", clock, ttl=2.0),
                  "b": make_store(tmp_path, "b", clock, ttl=2.0)}
        held = {"a": None, "b": None}
        for store in stores.values():
            store.enlist()
        stores["a"].submit(job_spec)
        for action in actions:
            if action == "expire":
                clock.advance(60.0)
                continue
            who, what = action.split(":")
            store = stores[who]
            if what == "beat":
                store.heartbeat()
            elif what == "claim" and held[who] is None:
                held[who] = store.claim_shard(job)
            elif what == "publish" and held[who] is not None:
                try:
                    store.publish_done(held[who], result)
                except StaleTokenError:
                    pass  # fenced out whole — exactly the contract
                held[who] = None
        # Whatever the interleaving left behind, a live worker finishes.
        finisher = stores["a"]
        finisher.heartbeat()
        while finisher.read_done(job, 0) is None:
            claim = finisher.claim_shard(job)
            if claim is None:
                clock.advance(60.0)
                finisher.heartbeat()
                continue
            try:
                finisher.publish_done(claim, result)
            except StaleTokenError:
                pass
        done = finisher.shards_done(job)
        merged = merge_shard_results(job_spec, done)
        reference = run_sharded_reference(job_spec)
        assert merged["carved_sha256"] == reference["carved_sha256"]
        audit = finisher.token_audit(job)
        assert audit["ok"], audit
        assert audit["shards"][0]["landed_events"] == 1


class TestCrashPointReplay:
    def _count_ops(self, tmp_path):
        """A no-fault campaign, counting every shared-store operation."""
        counter = GateCrashPoint(crash_on_op=10_000)  # never fires
        clock = FakeClock()
        store = make_store(tmp_path / "probe", "probe", clock, gate=counter)
        store.enlist()
        run_campaign(store, spec(shards=2))
        return counter.calls

    def test_survivor_completes_from_every_crash_point(self, tmp_path):
        """Crash worker "a" at the n-th store operation, for every n a
        campaign performs; worker "b" must always finish bit-identical
        to the reference with a clean token audit."""
        job_spec = spec(shards=2)
        reference = run_sharded_reference(job_spec)
        total_ops = self._count_ops(tmp_path)
        assert total_ops >= 8  # enlist, submit, claims, publishes, merge
        for crash_on in range(1, total_ops + 1):
            shared = tmp_path / f"crash-{crash_on:02d}"
            clock = FakeClock()
            doomed = make_store(shared, "doomed", clock, ttl=2.0,
                                gate=GateCrashPoint(crash_on))
            with pytest.raises(InjectedFault):
                doomed.enlist()
                run_campaign(doomed, job_spec)
            survivor = make_store(shared, "survivor", clock, ttl=2.0)
            clock.advance(60.0)  # the dead worker's leases all expire
            survivor.enlist()
            merged = run_campaign(survivor, job_spec)
            assert merged["carved_sha256"] == reference["carved_sha256"], \
                f"diverged after crash at op {crash_on}"
            audit = survivor.token_audit(job_spec.key)
            assert audit["ok"], (crash_on, audit)

    def test_failure_dead_and_cancel_records_survive_every_crash_point(
            self, tmp_path):
        """The same replay over failure, dead-letter, cancel and PARTIAL
        outcome records: wherever worker "a" dies, the survivor ends
        with the failing shard dead after exactly ``retries + 1``
        failure records, the PARTIAL result the reference shards give,
        and the cancelled job never claimed."""
        job_spec, cancelled = spec(shards=2), spec(seed=7, shards=2)
        expected = merge_shard_results(
            job_spec, {0: _shard_result(job_spec, 0)},
            missing=missing_theta_manifest(plan_shards(job_spec), [1]))
        counter = GateCrashPoint(crash_on_op=10_000)
        probe = make_store(tmp_path / "probe", "probe", FakeClock(),
                           gate=counter, retry=NO_BACKOFF)
        probe.enlist()
        run_failing_campaign(probe, job_spec, cancelled)
        assert counter.calls >= 20
        for crash_on in range(1, counter.calls + 1):
            shared = tmp_path / f"fail-crash-{crash_on:02d}"
            clock = FakeClock()
            doomed = make_store(shared, "doomed", clock, ttl=2.0,
                                gate=GateCrashPoint(crash_on),
                                retry=NO_BACKOFF)
            with pytest.raises(InjectedFault):
                doomed.enlist()
                run_failing_campaign(doomed, job_spec, cancelled)
            survivor = make_store(shared, "survivor", clock, ttl=2.0,
                                  retry=NO_BACKOFF)
            clock.advance(60.0)
            survivor.enlist()
            view = run_failing_campaign(survivor, job_spec, cancelled)
            assert view.state == "partial", crash_on
            assert view.result == expected, crash_on
            assert view.shards[1].state == "dead"
            assert view.shards[1].verdicts == ["EXCEPTION"] * 2, crash_on
            audit = survivor.token_audit(job_spec.key)["shards"]
            assert audit[0]["ok"] and audit[0]["landed_events"] == 1
            assert survivor.view(cancelled.key).state == "cancelled"
            assert [survivor.granted_tokens(cancelled.key, i)
                    for i in range(2)] == [[], []], crash_on


class TestPartitionGate:
    def test_partitioned_store_raises_oserror_everywhere(self, tmp_path):
        gate = PartitionGate()
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock, gate=gate)
        store.enlist()
        store.submit(spec(shards=1))
        gate.begin()
        for op in (store.enlist, lambda: store.claim_shard(spec().key),
                   store.heartbeat, store.jobs):
            with pytest.raises(OSError):
                op()
        gate.heal()
        assert store.jobs() == [spec(shards=1).key]

    def test_heal_after_auto_heals(self, tmp_path):
        gate = PartitionGate(heal_after=3)
        gate.begin()
        clock = FakeClock()
        store = make_store(tmp_path, "a", clock, gate=gate)
        failures = 0
        for _ in range(10):
            try:
                store.jobs()
                break
            except OSError:
                failures += 1
        assert failures == 2  # third blocked call heals the gate
        assert not gate.partitioned
