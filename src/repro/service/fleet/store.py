"""The campaign store: fenced unit leases over a plain filesystem.

Every ``kondo serve`` daemon keeps its state here — a fleet of one in
its own state directory, or any number of ``--fleet <dir>`` daemons in
one shared directory with **no server in the middle**.  Every mutation
is either an atomic rename (rewritable records) or an exclusive create
(first-writer-wins records), both via :mod:`repro.service.fleet.fencing`.

A job is a set of **units**: shard ``i`` of a sharded job, or the one
unit ``0`` of an unsharded job.  Layout, per job ``<key>`` under
``<store>/jobs/<key>/``::

    spec.json            the submitted JobSpec (exclusive create = dedupe)
    tokens/s<i>.t<N>     fencing-token claim markers (exclusive create)
    leases/s<i>.t<N>.rec lease record for token N (atomic rename)
    failed/s<i>.t<N>.rec the attempt under token N failed (exclusive)
    dead/s<i>.rec        the unit exhausted its retries (exclusive)
    done/s<i>.rec        unit completion (exclusive create — at most one)
    cancel.rec           the job was cancelled before any unit ran
    result.rec           the job's outcome: done, partial or dead

plus ``<store>/workers/`` (the registry) and
``<store>/events/<worker>.events`` — each daemon's token-stamped,
append-only trail of fenced operations, which is what the token audit
and the double-execution check read back.

**State is derived from records, never folded from a journal.**  A
unit is done with a ``done`` record, dead with a ``dead`` record,
leased while its current token has a lease and no failure record, and
queued otherwise; its attempt count is the number of its failure
records.  A job is sealed by ``result.rec`` or ``cancel.rec``; neither
ever changes once written, so a reader may cache a sealed job forever.

Lease records are **per token**: a renewal rewrites only its own
token's path, so a worker whose renew lost a race to a newer claimant
can never clobber the newer owner's lease.

**The fencing-token protocol.**  The current token of a unit is the
highest ``N`` among its claim markers; claiming the unit means winning
the exclusive create of marker ``N+1`` and then renaming a lease record
carrying that token into place.  Three consequences do all the work:

* two daemons racing a reclaim cannot both win — the marker create is
  the compare-and-swap;
* a daemon that dies between claiming the marker and writing the lease
  leaves an *orphaned claim* (marker > lease token), which every daemon
  treats as immediately reclaimable — no TTL wait;
* a completion is only accepted while its token is still the current
  one (:class:`repro.errors.StaleTokenError` otherwise), and lands via
  exclusive create — so a paused or partitioned worker coming back
  from the dead can never clobber a newer owner's result.  There is a
  benign check-then-create window (a newer token can be claimed between
  the staleness check and the create); the exclusive create still
  admits exactly one completion, and unit execution is deterministic,
  so whichever completion lands is bit-identical to the one it beat.

Partition injection for tests and chaos drills goes through
``fault_gate``: a callable invoked at the top of every store operation
which raises :class:`OSError` while the "network" is down — the daemon
reacts exactly as it would to a real unreachable mount.  The tests'
gates (``PartitionGate``, ``GateCrashPoint``) live in
``tests/chaos/faults.py``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.errors import FleetError, StaleTokenError
from repro.resilience.durability.records import parse_log
from repro.resilience.retry import RetryPolicy
from repro.service.fleet.clock import ClockSource
from repro.service.fleet.fencing import (
    append_sealed,
    create_sealed_exclusive,
    publish_sealed,
    read_sealed,
    stamp,
)
from repro.service.fleet.registry import WorkerRegistry
from repro.service.jobs import (
    CANCELLED,
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    RUNNING,
    JobSpec,
    JobView,
    ShardView,
    backoff_delay_s,
)
from repro.service.shards import plan_shards

JOBS_DIR = "jobs"
EVENTS_DIR = "events"

#: Per-unit record directories of one job.
_UNIT_DIRS = ("tokens", "leases", "failed", "dead", "done")

#: Token claim markers ``s<unit>.t<token>``; failure records add ``.rec``.
_TOKEN_RE = re.compile(r"^s(?P<shard>\d{3})\.t(?P<token>\d{6})(\.rec)?$")

#: Job keys are hex prefixes of SHA-256 (see JobSpec.key).
_JOB_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: The fencing identity :func:`stamp` adds to every record.
STAMP_FIELDS = ("job", "shard", "token", "worker", "epoch")

#: Verdict of an attempt whose lease ran out before it completed.
LEASE_EXPIRED = "LEASE-EXPIRED"


def unstamp(record: dict) -> dict:
    """A record without the fencing identity :func:`stamp` added."""
    return {k: v for k, v in record.items() if k not in STAMP_FIELDS}


@dataclass(frozen=True)
class ShardClaim:
    """A granted unit lease: who may run it, under which token."""

    job: str
    shard: int
    token: int
    worker: str
    epoch: int
    deadline_wall: float
    granted_wall: float = 0.0


class FleetStore:
    """One daemon's handle on a campaign store directory.

    Args:
        shared_dir: the store root (a daemon's state directory, or the
            fleet's shared directory).
        worker: this daemon's worker id (stamps every write).
        clock: injected time source; all expiry math flows through it.
        registry: the worker registry (dead-owner reclaim consults it).
        lease_ttl_s: unit lease lifetime; renewals push the deadline.
        fault_gate: optional callable raising :class:`OSError` to
            simulate the store becoming unreachable.
        retry_policy: per-unit retry budget and backoff shape; a unit
            dead-letters after ``retries + 1`` failed attempts.
    """

    def __init__(self, shared_dir: str, worker: str, clock: ClockSource,
                 registry: Optional[WorkerRegistry] = None,
                 lease_ttl_s: float = 10.0,
                 fault_gate: Optional[Callable[[], None]] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        if lease_ttl_s <= 0:
            raise FleetError(f"lease_ttl_s must be > 0, got {lease_ttl_s}")
        self.shared_dir = shared_dir
        self.worker = worker
        self.clock = clock
        self.registry = registry
        self.lease_ttl_s = lease_ttl_s
        self.retry_policy = retry_policy or RetryPolicy(retries=2)
        self._fault_gate = fault_gate
        self.epoch = 0

    # -- plumbing ------------------------------------------------------------

    def _gate(self) -> None:
        if self._fault_gate is not None:
            self._fault_gate()

    def _job_dir(self, job: str) -> str:
        if not _JOB_RE.match(job):
            raise FleetError(f"bad job key {job!r}")
        return os.path.join(self.shared_dir, JOBS_DIR, job)

    def _unit_path(self, job: str, kind: str, shard: int,
                   token: Optional[int] = None, ext: str = ".rec") -> str:
        name = f"s{shard:03d}" if token is None else \
            f"s{shard:03d}.t{token:06d}"
        return os.path.join(self._job_dir(job), kind, name + ext)

    def _lease_path(self, job: str, shard: int, token: int) -> str:
        return self._unit_path(job, "leases", shard, token)

    def _done_path(self, job: str, shard: int) -> str:
        return self._unit_path(job, "done", shard)

    def _events_path(self) -> str:
        return os.path.join(self.shared_dir, EVENTS_DIR,
                            f"{self.worker}.events")

    def _event(self, op: str, job: str, shard: Optional[int],
               token: int) -> None:
        """One token-stamped line in this daemon's fenced-event trail."""
        append_sealed(self._events_path(), stamp(
            {"op": op, "wall": self.clock.wall()},
            job=job, shard=shard, token=token,
            worker=self.worker, epoch=self.epoch,
        ))

    def _stamp(self, record: dict, job: str, shard: Optional[int],
               token: int) -> dict:
        return stamp(record, job=job, shard=shard, token=max(1, token),
                     worker=self.worker, epoch=self.epoch)

    # -- membership ----------------------------------------------------------

    def enlist(self) -> int:
        """Register (or re-register) with the fleet; returns the epoch.

        Re-joining after a partition or a restart bumps the epoch,
        which fences out every lease the previous incarnation still
        holds (the claim path compares lease epochs against the
        registry's current one, this daemon's own included).
        """
        self._gate()
        if self.registry is None:
            raise FleetError("store has no registry to enlist with")
        os.makedirs(os.path.join(self.shared_dir, EVENTS_DIR), exist_ok=True)
        self.epoch = self.registry.register(self.worker).epoch
        return self.epoch

    def heartbeat(self) -> None:
        self._gate()
        if self.registry is not None:
            self.registry.heartbeat(self.worker, self.epoch)

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> bool:
        """Admit a job; ``False`` when it was already submitted.

        The spec record is first-writer-wins on the content-addressed
        key, so every daemon a client might reach admits the same job
        exactly once — resubmission anywhere is a dedupe, not a fork.
        """
        self._gate()
        job = spec.key
        jdir = self._job_dir(job)
        for sub in _UNIT_DIRS:
            os.makedirs(os.path.join(jdir, sub), exist_ok=True)
        created = create_sealed_exclusive(
            os.path.join(jdir, "spec.json"), {"spec": spec.to_json()})
        if created:
            self._event("submit", job, None, 1)
        return created

    def load_spec(self, job: str) -> Optional[JobSpec]:
        self._gate()
        rec = read_sealed(os.path.join(self._job_dir(job), "spec.json"))
        if rec is None:
            return None
        return JobSpec.from_json(rec["spec"])

    def jobs(self) -> List[str]:
        """Every admitted job key, sorted."""
        self._gate()
        try:
            names = os.listdir(os.path.join(self.shared_dir, JOBS_DIR))
        except OSError:
            return []
        return sorted(n for n in names if _JOB_RE.match(n))

    # -- fencing tokens ------------------------------------------------------

    def _scan(self, job: str, kind: str) -> Dict[int, List[int]]:
        """``{unit: [tokens ascending]}`` from one per-token directory.

        Only a verifiably absent directory reads as empty; any other
        :class:`OSError` propagates — under a partial store failure
        (reads fail, writes still land) a silent empty read here would
        make ``renew``/``publish_done`` skip the staleness check and
        let a fenced-out worker write as if no newer token existed.
        """
        self._gate()
        try:
            names = os.listdir(os.path.join(self._job_dir(job), kind))
        except FileNotFoundError:
            return {}
        out: Dict[int, List[int]] = {}
        for m in map(_TOKEN_RE.match, names):
            if m is not None:
                out.setdefault(int(m.group("shard")), []).append(
                    int(m.group("token")))
        return {s: sorted(t) for s, t in out.items()}

    def current_token(self, job: str, shard: int) -> int:
        """The highest token ever granted for the unit (0 = none)."""
        return max(self._scan(job, "tokens").get(shard, [0]))

    def granted_tokens(self, job: str, shard: int) -> List[int]:
        """Every token ever granted for the unit, ascending."""
        return self._scan(job, "tokens").get(shard, [])

    def _claim_token(self, job: str, shard: int,
                     after: int) -> Optional[int]:
        """Win token ``after + 1``, or ``None`` if a racer took it.

        ``after`` is the token the claim decision was made on: were the
        next token taken since, the decision is stale and the claim
        must lose rather than stack a second claim on top.
        """
        token = after + 1
        marker = self._unit_path(job, "tokens", shard, token, ext="")
        won = create_sealed_exclusive(marker, self._stamp(
            {"op": "token"}, job, shard, token))
        return token if won else None

    def check_current(self, claim: ShardClaim) -> None:
        """Raise :class:`StaleTokenError` once the claim is superseded.

        A claim is superseded by a newer token, and also by a failure
        record under its own token (its lease expired and a scan failed
        the attempt): a failed attempt can neither renew nor complete.
        """
        current = self.current_token(claim.job, claim.shard)
        if claim.token < current or self.read_failure(
                claim.job, claim.shard, claim.token) is not None:
            raise StaleTokenError(
                f"{claim.job} unit {claim.shard} holds token "
                f"{claim.token}, current is {current}",
                token=claim.token, current=max(current, claim.token + 1),
            )

    # -- unit leases ---------------------------------------------------------

    def _reclaim_reason(self, job: str, shard: int, token: int,
                        failed: bool) -> Optional[str]:
        """Why the unit under ``token`` may be (re)claimed, or ``None``.

        Claimable when never claimed, when its current attempt failed,
        when the last claim is orphaned (marker without a matching lease
        record — the claimant died mid-claim), when the owner's lease
        ran out, when the owner's heartbeat has expired, or when the
        owner re-registered under a newer epoch (its old incarnation is
        fenced out by definition — this daemon's own included, so a
        restarted daemon reclaims its dead incarnation's units at once).
        An owner's own lease expires on its own clock; a peer's only
        once the deadline is past by more than the skew allowance.
        """
        if token == 0:
            return "fresh"
        if failed:
            return "failed"
        lease = read_sealed(self._lease_path(job, shard, token))
        if lease is None or int(lease.get("token", 0)) != token:
            marker = read_sealed(
                self._unit_path(job, "tokens", shard, token, ext="")) or {}
            if (marker.get("worker"), marker.get("epoch")) \
                    == (self.worker, self.epoch):
                return None  # our own claim, mid-publication
            return "orphaned"
        owner = str(lease.get("worker", ""))
        epoch = int(lease.get("epoch", 0))
        deadline = float(lease.get("deadline_wall", 0.0))
        if owner == self.worker:
            if epoch < self.epoch:
                return "old-epoch"
            return "expired" if self.clock.wall() > deadline else None
        if self.registry is not None:
            if not self.registry.is_live(owner):
                return "dead-owner"
            if epoch < self.registry.current_epoch(owner):
                return "old-epoch"
        return "expired" if self.clock.wall_expired(deadline) else None

    def claim_shard(self, job: str) -> Optional[ShardClaim]:
        """Claim one runnable unit of the job, or ``None`` if none.

        Scans units in index order.  A unit that is done or dead is
        skipped; one whose failure count exhausted the retry budget is
        dead-lettered (the failing worker normally does that itself);
        one whose last failure is younger than its seeded backoff waits.
        A live owner's expired lease is failed with ``LEASE-EXPIRED``
        first, so it too waits out its backoff.  Otherwise the claimer
        races for the next fencing token and, on winning, publishes the
        lease record carrying it.  A cancelled job claims nothing.
        """
        self._gate()
        spec = self.load_spec(job)
        if spec is None or self.read_cancel(job) is not None:
            return None
        tokens = self._scan(job, "tokens")
        failures = self._scan(job, "failed")
        for shard in range(plan_shards(spec).n_shards):
            if read_sealed(self._done_path(job, shard)) is not None:
                continue
            if read_sealed(self._unit_path(job, "dead", shard)) is not None:
                continue
            failed = failures.get(shard, [])
            token = tokens.get(shard, [0])[-1]
            if len(failed) > self.retry_policy.retries:
                last = self.read_failure(job, shard, failed[-1]) or {}
                self._dead_letter(job, shard, failed[-1],
                                  str(last.get("verdict", "FAILED")))
                continue
            reason = self._reclaim_reason(job, shard, token,
                                          token in failed)
            if reason is None:
                continue
            if reason == "expired":
                self._record_failure(
                    job, shard, token, LEASE_EXPIRED,
                    f"lease under token {token} expired without a renewal")
                continue  # the failure's backoff gates the reclaim
            if reason == "failed" and self._backing_off(job, shard, failed):
                continue
            claim = self._claim(job, shard, token)
            if claim is not None:
                return claim
        return None

    def _backing_off(self, job: str, shard: int, failed: List[int]) -> bool:
        last = self.read_failure(job, shard, failed[-1])
        if last is None:
            return False
        delay = backoff_delay_s(self.retry_policy, f"{job}/s{shard}",
                                len(failed))
        return self.clock.wall() - float(last.get("wall", 0.0)) < delay

    def _claim(self, job: str, shard: int, after: int,
               op: str = "claim") -> Optional[ShardClaim]:
        token = self._claim_token(job, shard, after)
        if token is None:
            return None  # a racer won this unit
        now = self.clock.wall()
        claim = ShardClaim(job=job, shard=shard, token=token,
                           worker=self.worker, epoch=self.epoch,
                           deadline_wall=now + self.lease_ttl_s,
                           granted_wall=now)
        self._publish_lease(claim)
        self._event(op, job, shard, token)
        return claim

    def _publish_lease(self, claim: ShardClaim) -> None:
        """Land the claim's lease at its own token's path.

        Per-token paths make lease publication race-free across tokens:
        a renewer that lost the unit writes only to its superseded
        token's file, so it can never clobber the newer owner's lease.
        """
        publish_sealed(
            self._lease_path(claim.job, claim.shard, claim.token), stamp(
                {"deadline_wall": claim.deadline_wall,
                 "granted_wall": claim.granted_wall},
                job=claim.job, shard=claim.shard, token=claim.token,
                worker=claim.worker, epoch=claim.epoch,
            ))

    def read_lease(self, job: str, shard: int) -> Optional[dict]:
        """The lease record under the unit's current token (hedging
        scans read this); ``None`` when unclaimed or orphaned."""
        self._gate()
        token = self.current_token(job, shard)
        if token == 0:
            return None
        return read_sealed(self._lease_path(job, shard, token))

    def renew(self, claim: ShardClaim) -> ShardClaim:
        """Push the lease deadline out; stale tokens are rejected whole."""
        self._gate()
        self.check_current(claim)
        renewed = replace(claim,
                          deadline_wall=self.clock.wall() + self.lease_ttl_s)
        self._publish_lease(renewed)
        return renewed

    # -- failures, dead letters, cancel --------------------------------------

    def read_failure(self, job: str, shard: int,
                     token: int) -> Optional[dict]:
        return read_sealed(self._unit_path(job, "failed", shard, token))

    def record_failure(self, claim: ShardClaim, verdict: str,
                       detail: str = "") -> Optional[str]:
        """Record the claim's attempt as failed; returns the unit state.

        ``None`` when nothing was recorded: the unit completed anyway
        (a hedge won), or the claim was fenced by a newer token — a
        fenced attempt burns no retry budget.  Otherwise ``"queued"``
        (the unit waits out its backoff) or ``"dead"`` (the failure
        exhausted the retry budget and the unit dead-lettered).
        """
        self._gate()
        if read_sealed(self._done_path(claim.job, claim.shard)) is not None:
            return None
        try:
            self.check_current(claim)
        except StaleTokenError:
            return None
        return self._record_failure(claim.job, claim.shard, claim.token,
                                    verdict, detail)

    def _record_failure(self, job: str, shard: int, token: int,
                        verdict: str, detail: str) -> Optional[str]:
        created = create_sealed_exclusive(
            self._unit_path(job, "failed", shard, token), self._stamp(
                {"verdict": verdict, "detail": detail,
                 "wall": self.clock.wall()}, job, shard, token))
        if not created:
            return None  # a peer already failed this attempt
        self._event("fail", job, shard, token)
        failed = self._scan(job, "failed").get(shard, [])
        if len(failed) <= self.retry_policy.retries:
            return QUEUED
        self._dead_letter(job, shard, token, verdict)
        return DEAD

    def _dead_letter(self, job: str, shard: int, token: int,
                     verdict: str) -> None:
        if create_sealed_exclusive(
                self._unit_path(job, "dead", shard),
                self._stamp({"verdict": verdict}, job, shard, token)):
            self._event("dead", job, shard, token)

    def read_cancel(self, job: str) -> Optional[dict]:
        return read_sealed(os.path.join(self._job_dir(job), "cancel.rec"))

    def cancel(self, job: str) -> bool:
        """Cancel a job no unit of which holds a token; ``True`` when
        this call created the cancel record.

        A unit "holds" its current token until that attempt completes
        or fails.  The claim path re-reads the cancel record before it
        claims, so a claim racing the cancel either sees it or ran
        first — and a cancelled job's state is ``cancelled`` whatever a
        racing attempt later lands.
        """
        self._gate()
        view = self.view(job)
        if view is None or view.state != QUEUED:
            return False
        created = create_sealed_exclusive(
            os.path.join(self._job_dir(job), "cancel.rec"),
            self._stamp({"wall": self.clock.wall()}, job, None, 1))
        if created:
            self._event("cancel", job, None, 1)
        return created

    # -- completions ---------------------------------------------------------

    def publish_done(self, claim: ShardClaim, result: dict) -> bool:
        """Land a unit completion under the claim's fencing token.

        Returns ``True`` when this call's record is the one that landed,
        ``False`` when a completion already exists (the (job, unit,
        token) dedupe: a rejoining worker re-publishing after a
        partition is a no-op, not a duplicate).  A superseded token is
        rejected whole with :class:`StaleTokenError` — old-or-new,
        never hybrid.
        """
        self._gate()
        done_path = self._done_path(claim.job, claim.shard)
        existing = read_sealed(done_path)
        if existing is not None and existing.get("token") == claim.token:
            # Same (job, unit, token) already landed: a replay of our
            # own completion (e.g. after a partition heal), not a
            # conflict.  A completion under a *different* token is not
            # a dedupe; fall through to the fencing check.
            self._event("done-dedup", claim.job, claim.shard, claim.token)
            return False
        try:
            self.check_current(claim)
        except StaleTokenError:
            self._event("done-fenced", claim.job, claim.shard, claim.token)
            raise
        landed = create_sealed_exclusive(done_path, stamp(
            dict(result), job=claim.job, shard=claim.shard,
            token=claim.token, worker=claim.worker, epoch=claim.epoch,
        ))
        self._event("done" if landed else "done-lost",
                    claim.job, claim.shard, claim.token)
        return landed

    def hedge_publish(self, job: str, shard: int,
                      result: dict) -> Optional[ShardClaim]:
        """Publish a speculatively-executed (hedged) unit result.

        Hedging claims **on completion**, not on start — a hedge that
        claimed its token up front would fence out a healthy primary
        mid-run.  The hedger executes without any claim, then races for
        the next token only when it has a result in hand; if a
        completion landed meanwhile, the hedge simply loses.

        On winning the token the hedge immediately publishes a lease
        under it, so peers scanning between the token claim and the
        done create see an ordinary live lease — not an orphaned
        marker they would instantly reclaim.  Losing the token race
        anyway is a normal hedge outcome: the :class:`StaleTokenError`
        is absorbed and the hedge returns ``None``.
        """
        self._gate()
        if read_sealed(self._done_path(job, shard)) is not None:
            return None
        claim = self._claim(job, shard, self.current_token(job, shard),
                            op="hedge")
        if claim is None:
            return None
        try:
            return claim if self.publish_done(claim, result) else None
        except StaleTokenError:
            return None  # a reclaimer outpaced the hedge: hedge lost

    def read_done(self, job: str, shard: int) -> Optional[dict]:
        self._gate()
        return read_sealed(self._done_path(job, shard))

    def shards_done(self, job: str) -> Dict[int, dict]:
        """All landed completions, keyed by unit index."""
        self._gate()
        spec = self.load_spec(job)
        if spec is None:
            return {}
        out: Dict[int, dict] = {}
        for shard in range(plan_shards(spec).n_shards):
            rec = read_sealed(self._done_path(job, shard))
            if rec is not None:
                out[shard] = rec
        return out

    # -- the job outcome -----------------------------------------------------

    def publish_result(self, job: str, merged: Optional[dict], token: int,
                       state: str = DONE,
                       verdict: Optional[str] = None) -> bool:
        """Seal the job with its outcome (first writer wins)."""
        self._gate()
        landed = create_sealed_exclusive(
            os.path.join(self._job_dir(job), "result.rec"), self._stamp(
                {"result": merged, "state": state, "verdict": verdict},
                job, None, token))
        self._event("result" if landed else "result-lost", job, None,
                    max(1, token))
        return landed

    def read_outcome(self, job: str) -> Optional[dict]:
        """The sealed outcome record, or ``None`` while the job runs."""
        self._gate()
        return read_sealed(os.path.join(self._job_dir(job), "result.rec"))

    def read_result(self, job: str) -> Optional[dict]:
        rec = self.read_outcome(job)
        return None if rec is None else rec["result"]

    # -- derived views -------------------------------------------------------

    def view(self, job: str) -> Optional[JobView]:
        """The job's state, derived from its records alone."""
        spec = self.load_spec(job)
        if spec is None:
            return None
        outcome = self.read_outcome(job)
        tokens = self._scan(job, "tokens")
        failures = self._scan(job, "failed")
        view = JobView(spec=spec)
        timeline = []
        for shard in range(plan_shards(spec).n_shards):
            sv = view.shards[shard] = ShardView(index=shard)
            for token in failures.get(shard, []):
                rec = self.read_failure(job, shard, token) or {}
                verdict = str(rec.get("verdict", "FAILED"))
                sv.verdicts.append(verdict)
                timeline.append((float(rec.get("wall", 0.0)), shard,
                                 token, verdict))
            sv.attempts = len(sv.verdicts)
            token = tokens.get(shard, [0])[-1]
            done = read_sealed(self._done_path(job, shard))
            if done is not None:
                sv.state, sv.result = DONE, unstamp(done)
                sv.token, sv.worker = done.get("token"), done.get("worker")
            elif read_sealed(self._unit_path(job, "dead", shard)):
                sv.state = DEAD
            elif token and token not in failures.get(shard, []):
                lease = read_sealed(self._lease_path(job, shard, token))
                if lease is not None:
                    sv.state, sv.token = LEASED, token
                    sv.worker = lease.get("worker")
        if spec.shards:
            view.verdicts = [f"shard{s}:{v}"
                             for _, s, _, v in sorted(timeline)]
            view.state = RUNNING if tokens else QUEUED
        else:
            unit = view.shards[0]
            view.attempts, view.verdicts = unit.attempts, list(unit.verdicts)
            view.state = LEASED if unit.state == LEASED else QUEUED
        if outcome is not None:
            view.state, view.result = outcome["state"], outcome["result"]
            verdict = outcome.get("verdict")
            if verdict and verdict not in view.verdicts[-1:]:
                view.verdicts.append(verdict)
        elif self.read_cancel(job) is not None:
            view.state = CANCELLED
        return view

    # -- audit ---------------------------------------------------------------

    def fenced_events(self) -> List[dict]:
        """Every daemon's fenced-event trail, merged (audit input)."""
        self._gate()
        events_dir = os.path.join(self.shared_dir, EVENTS_DIR)
        try:
            names = sorted(os.listdir(events_dir))
        except OSError:
            return []
        out: List[dict] = []
        for name in names:
            if not name.endswith(".events"):
                continue
            try:
                with open(os.path.join(events_dir, name), "rb") as fh:
                    raw = fh.read()
            except OSError:
                continue
            records, _, _ = parse_log(raw)
            out.extend(records)
        return out

    def token_audit(self, job: str) -> dict:
        """Prove the fencing invariant held for one finished job.

        Per unit: exactly one completion record landed, its token is
        among the granted tokens, and — across every daemon's event
        trail — exactly one ``done`` event landed (zero double-executed
        units).  One crash window is forgiven: a worker that died
        between landing the done record and appending its ``done``
        event leaves zero ``done`` events forever, but its post-rejoin
        replay logs ``done-dedup`` under the same ``(token, worker)``
        as the landed record — that attestation satisfies the
        exactly-one-done invariant (only the token's holder can ever
        take the dedupe path, so it is just as exclusive).  Returns
        ``{"ok": bool, "shards": [...]}``; each entry carries the
        evidence so a failed audit is debuggable.
        """
        self._gate()
        spec = self.load_spec(job)
        if spec is None:
            return {"ok": False, "shards": [], "error": "unknown job"}
        landed: Dict[int, int] = {}
        dedups: Dict[int, set] = {}
        for ev in self.fenced_events():
            if ev.get("job") != job or ev.get("shard") is None:
                continue
            shard = int(ev["shard"])
            if ev.get("op") == "done":
                landed[shard] = landed.get(shard, 0) + 1
            elif ev.get("op") == "done-dedup":
                dedups.setdefault(shard, set()).add(
                    (int(ev.get("token", 0)), str(ev.get("worker", ""))))
        shards = []
        ok = True
        for shard in range(plan_shards(spec).n_shards):
            granted = self.granted_tokens(job, shard)
            done = read_sealed(self._done_path(job, shard))
            done_token = None if done is None else int(done.get("token", 0))
            events = landed.get(shard, 0)
            attested = (
                events == 0
                and done is not None
                and (done_token, str(done.get("worker", "")))
                in dedups.get(shard, set())
            )
            entry_ok = (
                done is not None
                and done_token in granted
                and (events == 1 or attested)
            )
            ok = ok and entry_ok
            shards.append({
                "shard": shard, "ok": entry_ok, "granted": granted,
                "done_token": done_token,
                "done_worker": None if done is None else done.get("worker"),
                "landed_events": events,
                "dedup_attested": attested,
            })
        return {"ok": ok, "shards": shards}
