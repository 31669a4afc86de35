"""``kondo serve``: the campaign service daemon.

There is one daemon.  ``kondo serve STATE_DIR`` is a **fleet of one**
whose store is ``STATE_DIR``; ``--fleet SHARED_DIR`` points the same
daemon at a store other daemons share.  Every piece of coordination
state lives in that store (:mod:`repro.service.fleet.store`): jobs,
fencing-token leases, failure and dead-letter records, cancels and
outcomes are all records, and every state is derived from them.  What
the daemon keeps in memory is only what dies with it anyway: the
attempts it is running, the progress bus, and a cache of the
``SEALED_JOBS_KEPT`` most recently sealed jobs.

One :class:`KondoService` runs:

* a **socket front door** answering ``ping``/``submit``/``status``/
  ``cancel``/``follow``/``audit``/``drain`` (bounded JSON lines) with
  admission control — a submission beyond ``queue_limit`` unsealed jobs
  is answered ``REJECTED-BUSY`` instead of growing without bound;
* ``workers`` **claim loops**.  Each scans the store's unsealed jobs,
  claims a runnable unit under a fencing token, runs it — one shard of
  the job's :func:`~repro.service.shards.plan_shards` plan (an
  unsharded job's plan is one shard) through
  :func:`~repro.service.shards.execute_shard` — in a supervised forked
  child whose heartbeats renew the lease, and publishes a token-stamped
  completion.  A failed attempt becomes a failure record carrying its
  verdict (TIMEOUT / OOM / SIGNALED / LOST-HEARTBEAT / EXCEPTION /
  LEASE-EXPIRED); within the retry budget the unit is retried after a
  seeded backoff, beyond it the unit dead-letters.  When every unit is
  done or dead the loop seals the job: the merged (unioned, carved)
  result of its units, an explicitly-marked PARTIAL result carrying the
  missing-Θ manifest, or a typed dead letter.  With nothing to claim a
  loop hedges a straggling unit (claim-on-completion: the hedge runs
  first and claims a token only to publish, so it never fences out a
  healthy primary; the fenced primary's child is killed);
* a **heartbeat loop** keeping this worker's registry record live and
  doubling as the **partition detector**: the first failed store
  operation flips the daemon into read-only mode, and the loop probes
  for the store's return with seeded full-jitter backoff, re-enlisting
  (epoch bump) and replaying parked completions on success;
* a **progress bus**: every transition (and every heartbeat of a
  unit's child, as ``shard-alive``) publishes an event into a bounded
  per-job ring; ``follow`` streams them through bounded per-follower
  queues with drop-oldest backpressure and ends on the job's terminal
  event.

A restart re-enlists under a bumped epoch, which makes every lease the
dead incarnation held reclaimable at once.  ``drain`` (or SIGTERM)
stops admission and lets the admitted work finish; ``abort`` is the
crash path the chaos drills in ``tests/chaos/`` take — the daemon writes
nothing more.  Either way, once the daemon stops no unit child of it is
left running.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import threading
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    FleetError,
    InjectedFault,
    JobRejectedError,
    KondoError,
    ServiceError,
    ServiceProtocolError,
    StaleTokenError,
    SupervisedRunError,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervision.runner import Supervisor
from repro.service import protocol
from repro.service.fleet.clock import ClockSource
from repro.service.fleet.registry import WorkerRegistry
from repro.service.fleet.store import LEASE_EXPIRED, FleetStore, ShardClaim
from repro.service.jobs import (
    CANCELLED,
    DEAD,
    DONE,
    PARTIAL,
    QUEUED,
    TERMINAL_STATES,
    JobSpec,
    JobView,
    backoff_delay_s,
)
from repro.service.shards import (
    execute_shard,
    merge_shard_results,
    missing_theta_manifest,
    plan_shards,
)

SOCKET_NAME = "kondo.sock"

#: How long loops block per iteration — the daemon's reaction latency
#: to stop/drain flags when nothing wakes it sooner.
TICK_S = 0.1

#: Default per-attempt wall budget when neither the job nor the daemon
#: overrides it: generous for a campaign, but never unbounded.
DEFAULT_DEADLINE_S = 600.0

#: Concurrent connection handlers (each ``follow`` holds one for the
#: life of its stream); beyond this, connections get REJECTED-BUSY.
MAX_CONNECTIONS = 32

#: Sealed jobs whose view and event ring stay in memory.  Past it the
#: job sealed longest ago that has no follower is evicted; its status and
#: ``follow`` re-read the store, exactly like a job sealed by a peer.
SEALED_JOBS_KEPT = 64

#: A ``follow`` stream with nothing to say sends a keepalive this often
#: so the client's read timeout distinguishes "slow job" from "dead
#: daemon".
KEEPALIVE_S = 1.0

#: Default retry budget and backoff (full jitter, seeded per unit); the
#: same shape paces the partition-rejoin probe.
DEFAULT_RETRY_POLICY = RetryPolicy(
    retries=2, backoff_s=0.25, backoff_factor=2.0, backoff_max_s=5.0,
    jitter="full",
)

#: The journal older daemons kept; a state directory holding one is
#: refused rather than silently ignored.
LEGACY_JOURNAL = "jobs.log"


@dataclass
class _Attempt:
    """One unit attempt this daemon is running (a hedge has no claim
    until it publishes)."""

    job: str
    shard: int
    claim: Optional[ShardClaim] = None
    child_pid: Optional[int] = None
    renewed_at: float = 0.0

    @property
    def hedge(self) -> bool:
        return self.claim is None


class KondoService:
    """The campaign service daemon: a fleet member, possibly of one.

    Args:
        state_dir: this daemon's directory (default socket); also the
            store when ``shared_dir`` is not given.
        socket_path: unix socket path (default ``state_dir/kondo.sock``).
        workers: claim loops executing units (``0`` = accept-only,
            useful for staging submissions before workers attach).
        queue_limit: admission bound on unsealed jobs in the store;
            beyond it submissions get ``REJECTED-BUSY``.
        retry_policy: per-unit retry budget and backoff shape (also the
            partition-rejoin probe's backoff shape).
        lease_ttl_s: unit lease lifetime; the unit child's heartbeats
            renew it, and an attempt that outlives it fails
            LEASE-EXPIRED.
        default_deadline_s: per-attempt wall budget for jobs that do not
            carry their own ``deadline_s``.
        heartbeat_interval_s: supervised-child heartbeat period and
            registry heartbeat period.
        shard_runner: override unit execution (the chaos drills and
            service tests inject faulty runners); defaults to
            :func:`repro.service.shards.execute_shard`.  It is called as
            ``(spec_json, shard) -> dict`` in the unit's forked child, so
            nothing it does reaches the daemon except its pickled
            return value or exception.
        hedge_after_s: straggler threshold — a unit leased this long
            gets a speculative hedge (first completion wins).  ``None``
            disables hedging.
        event_buffer: bound on both the per-job event ring and each
            follower's stream queue; overflow drops oldest events.
        drain_timeout_s: bound on waiting for admitted work during drain.
        clock: injected time source; all lease, backoff and hedge math
            reads it, so tests drive expiry with ``FakeClock``.
        shared_dir: a store shared with other daemons (``--fleet``).
        worker: worker id, unique across the fleet (default ``local``
            for a fleet of one — stable, so a restart re-enlists the
            same id — and a generated id with ``shared_dir``).
        registry_ttl_s: heartbeat TTL before peers treat this daemon as
            dead and reclaim its units.
        fault_gate: store-level partition injector (see FleetStore).
    """

    def __init__(
        self,
        state_dir: str,
        socket_path: Optional[str] = None,
        workers: int = 1,
        queue_limit: int = 16,
        retry_policy: Optional[RetryPolicy] = None,
        lease_ttl_s: float = 30.0,
        default_deadline_s: float = DEFAULT_DEADLINE_S,
        heartbeat_interval_s: float = 1.0,
        shard_runner: Optional[Callable[..., dict]] = None,
        hedge_after_s: Optional[float] = None,
        event_buffer: int = 256,
        drain_timeout_s: float = 60.0,
        clock: Optional[ClockSource] = None,
        shared_dir: Optional[str] = None,
        worker: Optional[str] = None,
        registry_ttl_s: float = 10.0,
        fault_gate: Optional[Callable[[], None]] = None,
    ):
        for name, value, low in (
                ("workers", workers, 0), ("queue_limit", queue_limit, 1),
                ("event_buffer", event_buffer, 1)):
            if value < low:
                raise FleetError(f"{name} must be >= {low}, got {value}")
        for name, value in (
                ("default_deadline_s", default_deadline_s),
                ("drain_timeout_s", drain_timeout_s),
                ("heartbeat_interval_s", heartbeat_interval_s),
                ("hedge_after_s", hedge_after_s)):
            if value is not None and value <= 0:
                raise FleetError(f"{name} must be > 0, got {value}")
        self.state_dir = state_dir
        self.socket_path = socket_path or os.path.join(state_dir, SOCKET_NAME)
        self.fleet = shared_dir is not None
        self.store_dir = shared_dir if self.fleet else state_dir
        self.worker = worker or (f"w-{uuid.uuid4().hex[:8]}" if self.fleet
                                 else "local")
        self.workers = workers
        self.queue_limit = queue_limit
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.lease_ttl_s = lease_ttl_s
        self.default_deadline_s = default_deadline_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.shard_runner = shard_runner or execute_shard
        self.hedge_after_s = hedge_after_s
        self.event_buffer = event_buffer
        self.drain_timeout_s = drain_timeout_s
        self.clock = clock or ClockSource()
        self.registry = WorkerRegistry(self.store_dir, self.clock,
                                       ttl_s=registry_ttl_s)
        self.store = FleetStore(self.store_dir, self.worker, self.clock,
                                registry=self.registry,
                                lease_ttl_s=lease_ttl_s,
                                fault_gate=fault_gate,
                                retry_policy=self.retry_policy)

        #: Last view of every job seen; a sealed job's view is final.
        self._views: Dict[str, JobView] = {}
        #: Running attempts per (job, unit), and how many claim loops
        #: are mid-scan (a claim not yet running), both lock-guarded.
        self._attempts: Dict[Tuple[str, int], List[_Attempt]] = {}
        self._scanning = 0
        #: Seals of this daemon between landing the outcome record and
        #: publishing the terminal event, per job (lock-guarded too).
        self._sealing: Dict[str, int] = {}
        self._attempts_lock = threading.Lock()
        #: Completions that hit a partition mid-publish, replayed on
        #: rejoin: [(claim, result)], lock-guarded.
        self._parked: List[Tuple[ShardClaim, dict]] = []
        self._parked_lock = threading.Lock()
        #: (job, unit, token) leases already hedged (debounce).
        self._hedged: set = set()
        self._hedged_lock = threading.Lock()
        #: Progress bus: per-job event ring + seq, plus each live
        #: follower's bounded queue — all under one lock, and every
        #: operation under it is non-blocking (drop-oldest on overflow).
        self._events: Dict[str, Deque[dict]] = {}
        self._event_seq: Dict[str, int] = {}
        self._followers: Dict[str, List[queue.Queue]] = {}
        self._event_lock = threading.Lock()
        #: Sealed jobs still held in ``_views``/``_events``, sealed
        #: longest ago first, and the ids of those evicted (about 100
        #: bytes each: scans skip them without a store read); both under
        #: ``_event_lock``.
        self._kept: Dict[str, None] = {}
        self._evicted: set = set()
        self._conn_slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._threads: List[threading.Thread] = []
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._partitioned = threading.Event()
        #: Set by a local submit or completion so idle claim loops scan
        #: at once instead of at their next tick.
        self._wake = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "KondoService":
        """Enlist in the store, bind the socket, spawn the loops."""
        if self._sock is not None:
            raise FleetError("service already started")
        journal = os.path.join(self.state_dir, LEGACY_JOURNAL)
        if os.path.exists(journal):
            raise ServiceError(
                f"{journal} is a job journal from an older kondo serve; "
                f"this daemon keeps its state as store records and cannot "
                f"read it — drain the old daemon and start in a fresh "
                f"state directory")
        os.makedirs(self.state_dir, exist_ok=True)
        os.makedirs(self.store_dir, exist_ok=True)
        self.store.enlist()
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)
        os.makedirs(os.path.dirname(self.socket_path) or ".", exist_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.socket_path)
        self._sock.listen(16)
        self._spawn(self._serve_loop, "kondo-serve-accept")
        self._spawn(self._heartbeat_loop, "kondo-serve-heartbeat")
        for i in range(self.workers):
            self._spawn(self._claim_loop, f"kondo-serve-worker-{i}")
        return self

    def _spawn(self, target, name: str) -> None:
        t = threading.Thread(target=target, name=name, daemon=True)
        t.start()
        self._threads.append(t)

    def drain(self) -> None:
        """Graceful shutdown: stop admitting, let admitted work finish.

        Returns once no attempt runs here and nothing this daemon could
        claim or seal is left — or the drain timeout expired, in which
        case whatever is left is reclaimed on the next start (or by a
        peer), exactly like after a crash.
        """
        self._draining.set()
        deadline = self.clock.monotonic() + self.drain_timeout_s
        # Every check follows a tick, so requests already on their way
        # are still answered (DRAINING) before the socket closes.
        while not self._stop.wait(timeout=TICK_S):
            if self._quiet() or self.clock.monotonic() >= deadline:
                break
        self._shutdown()

    def abort(self) -> None:
        """Crash-style stop (chaos path): from here on the daemon writes
        nothing to the store, as if its process had died."""
        self._draining.set()
        self._shutdown()

    def _shutdown(self) -> None:
        self._stop.set()
        # A stopped daemon leaves no unit running: kill every child now
        # (its claim thread's supervisor reaps it, so the joins below
        # return at once); a child forked after this point is killed by
        # its own spawn hook.
        with self._attempts_lock:
            running = [a for live in self._attempts.values() for a in live]
        for attempt in running:
            self._kill(attempt)
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        if os.path.exists(self.socket_path):
            try:
                os.remove(self.socket_path)
            except OSError:
                pass

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the daemon stops; True when it did."""
        return self._stop.wait(timeout=timeout_s)

    @property
    def partitioned(self) -> bool:
        return self._partitioned.is_set()

    def _quiet(self) -> bool:
        """Whether a drain has nothing left to wait for here."""
        if self.workers == 0 or self.partitioned:
            return True
        with self._attempts_lock:
            if self._attempts or self._scanning:
                return False
        try:
            for job in self.store.jobs():
                if self._sealed(job):
                    continue
                view = self._view(job)
                states = [sv.state for sv in view.shards.values()] \
                    if view is not None else []
                if QUEUED in states or (states and all(
                        s in (DONE, DEAD) for s in states)):
                    return False
        except OSError:
            return True
        return True

    # -- store views ----------------------------------------------------------

    def _view(self, job: str) -> Optional[JobView]:
        """The job's current view; sealed jobs are served from memory
        until evicted, and a partitioned daemon serves its last good
        view."""
        view = self._views.get(job)
        if view is not None and view.state in TERMINAL_STATES:
            return view
        if self.partitioned:
            return view
        try:
            fresh = self.store.view(job)
        except FleetError:
            return None  # not a job key at all
        except OSError:
            self._enter_partition()
            return view
        if fresh is not None:
            with self._event_lock:
                if job not in self._evicted:
                    self._views[job] = fresh
                    if fresh.state in TERMINAL_STATES:
                        self._keep_sealed(job)
        return fresh

    def _known_view(self, job: Optional[str]) -> JobView:
        """The job's view, or the typed rejection a request about it
        gets: PARTITIONED for an evicted job the unreachable store
        holds, UNKNOWN-JOB otherwise."""
        view = self._view(job) if job else None
        if view is not None:
            return view
        if self.partitioned and job in self._evicted:
            raise JobRejectedError(
                f"job {job} is sealed and no longer held in memory; the "
                f"campaign store is unreachable",
                code=protocol.PARTITIONED,
            )
        raise JobRejectedError(f"unknown job {job}",
                               code=protocol.UNKNOWN_JOB)

    def _keep_sealed(self, job: str) -> None:
        """Hold a newly sealed job; evict past ``SEALED_JOBS_KEPT``,
        sealed longest ago first, skipping jobs with a follower.  Called
        under ``_event_lock``."""
        self._kept[job] = None
        excess = len(self._kept) - SEALED_JOBS_KEPT
        if excess <= 0:
            return
        gone = [j for j in self._kept if j not in self._followers][:excess]
        for old in gone:
            del self._kept[old]
            self._evicted.add(old)
            self._views.pop(old, None)
            self._events.pop(old, None)
            self._event_seq.pop(old, None)
        with self._hedged_lock:
            self._hedged = {k for k in self._hedged if k[0] not in gone}

    def _sealed(self, job: str) -> bool:
        """Whether the job has its outcome or cancel record (cheaply)."""
        view = self._views.get(job)
        if view is not None and view.state in TERMINAL_STATES:
            return True
        if job in self._evicted:
            return True
        if self.store.read_outcome(job) is None \
                and self.store.read_cancel(job) is None:
            return False
        self._view(job)
        return True

    # -- partition handling -------------------------------------------------

    def _enter_partition(self) -> None:
        self._partitioned.set()

    def _try_rejoin(self) -> bool:
        """One rejoin probe: re-enlist (epoch bump) and replay parked
        completions through the store's dedupe/fencing checks."""
        try:
            self.store.enlist()
        except OSError:
            return False
        self._partitioned.clear()
        with self._parked_lock:
            parked, self._parked = self._parked, []
        for claim, result in parked:
            try:
                self.store.publish_done(claim, result)
            except StaleTokenError:
                pass  # a newer owner took over while we were away
            except OSError:
                with self._parked_lock:
                    self._parked.append((claim, result))
                self._enter_partition()
                return False
        self._wake.set()
        return True

    def _heartbeat_loop(self) -> None:
        attempt = 0
        while not self._stop.is_set():
            if self._partitioned.is_set():
                attempt += 1
                delay = backoff_delay_s(self.retry_policy,
                                        f"{self.worker}:rejoin", attempt)
                if self._stop.wait(timeout=max(delay, 0.01)):
                    return
                if self._try_rejoin():
                    attempt = 0
                continue
            try:
                self.store.heartbeat()
            except OSError:
                self._enter_partition()
                continue
            self._stop.wait(timeout=self.heartbeat_interval_s)

    # -- the progress bus ----------------------------------------------------

    def _publish(self, job_id: str, kind: str, **fields) -> None:
        """Emit one progress event; never blocks the publisher.

        The event lands in the job's bounded ring (for ``follow``
        backlogs) and is offered to every live follower queue with
        drop-oldest semantics — a stalled client loses old events, the
        worker thread loses nothing.
        """
        with self._event_lock:
            if job_id in self._evicted:
                return  # a follower of it ends on the store's state
            seq = self._event_seq.get(job_id, 0) + 1
            self._event_seq[job_id] = seq
            event = dict(fields, kind=kind, job=job_id, seq=seq)
            ring = self._events.get(job_id)
            if ring is None:
                ring = self._events[job_id] = deque(maxlen=self.event_buffer)
            ring.append(event)
            for follower in self._followers.get(job_id, []):
                self._offer(follower, event)

    @staticmethod
    def _offer(follower: "queue.Queue", event: dict) -> None:
        """Non-blocking enqueue: on overflow, drop the oldest event."""
        try:
            follower.put_nowait(event)
        except queue.Full:
            try:
                follower.get_nowait()
            except queue.Empty:
                pass
            try:
                follower.put_nowait(event)
            except queue.Full:
                pass

    def _subscribe(self, job_id: str) -> Tuple["queue.Queue", List[dict]]:
        """Register a follower; returns (its queue, the event backlog)."""
        follower: queue.Queue = queue.Queue(maxsize=self.event_buffer)
        with self._event_lock:
            backlog = list(self._events.get(job_id, ()))
            self._followers.setdefault(job_id, []).append(follower)
        return follower, backlog

    def _unsubscribe(self, job_id: str, follower: "queue.Queue") -> None:
        with self._event_lock:
            followers = self._followers.get(job_id)
            if followers is not None:
                try:
                    followers.remove(follower)
                except ValueError:
                    pass
                if not followers:
                    self._followers.pop(job_id, None)

    # -- the socket front door ----------------------------------------------

    def _serve_loop(self) -> None:
        sock = self._sock
        sock.settimeout(TICK_S)
        while not self._stop.is_set():
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed by shutdown
            if not self._conn_slots.acquire(timeout=TICK_S):
                self._respond(conn, protocol.error(
                    protocol.REJECTED_BUSY,
                    f"daemon at its {MAX_CONNECTIONS}-connection bound",
                ))
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            # Handlers run on their own threads so one long-lived
            # ``follow`` stream never blocks the accept loop.
            threading.Thread(target=self._handle_conn, args=(conn,),
                             name="kondo-serve-conn", daemon=True).start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            self._handle(conn)
        finally:
            try:
                conn.close()
            except OSError:
                pass
            self._conn_slots.release()

    def _handle(self, conn: socket.socket) -> None:
        try:
            request = protocol.recv_message(conn, timeout_s=TICK_S * 50)
        except ServiceProtocolError as exc:
            self._respond(conn, protocol.error(protocol.BAD_REQUEST,
                                               str(exc)))
            return
        if request.get("op") == "follow":
            self._op_follow(conn, request)
            return
        try:
            response = self._dispatch(request)
        except JobRejectedError as exc:
            response = protocol.error(exc.code, str(exc))
        except OSError:
            self._enter_partition()
            response = protocol.error(
                protocol.PARTITIONED,
                "campaign store unreachable; serving read-only",
            )
        except KondoError as exc:
            response = protocol.error(protocol.BAD_REQUEST, str(exc))
        self._respond(conn, response)

    @staticmethod
    def _respond(conn: socket.socket, response: dict) -> None:
        try:
            protocol.send_message(conn, response)
        except ServiceProtocolError:
            pass  # peer went away; its request already took effect

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            partitioned = self.partitioned
            return protocol.ok(
                **self._identity(),
                outstanding=None if partitioned else self._outstanding(),
                workers=self.workers,
                queue_limit=self.queue_limit,
                members=None if partitioned else self.registry.live_map(),
            )
        if op == "submit":
            return self._op_submit(request)
        if op == "status":
            return self._op_status(request)
        if op == "cancel":
            return self._op_cancel(request)
        if op == "audit":
            return self._op_audit(request)
        if op == "drain":
            # Ack first; the drain itself runs on a dedicated thread so
            # the requester is not held for the whole quiesce.
            threading.Thread(target=self.drain, name="kondo-serve-drain",
                             daemon=True).start()
            return protocol.ok(draining=True)
        raise JobRejectedError(f"unknown op {op!r}", code=protocol.BAD_REQUEST)

    def _identity(self) -> dict:
        return {"fleet": self.fleet, "worker": self.worker,
                "epoch": self.store.epoch, "partitioned": self.partitioned,
                "draining": self._draining.is_set()}

    # -- operations ---------------------------------------------------------

    def _outstanding(self) -> int:
        return sum(1 for job in self.store.jobs() if not self._sealed(job))

    def _op_submit(self, request: dict) -> dict:
        if self._draining.is_set():
            raise JobRejectedError(
                "daemon is draining; not admitting new jobs",
                code=protocol.DRAINING,
            )
        if self.partitioned:
            raise JobRejectedError(
                "campaign store unreachable; daemon is read-only until it "
                "rejoins",
                code=protocol.PARTITIONED,
            )
        spec = JobSpec.from_json(request.get("spec"))
        existing = self._view(spec.key)
        if existing is not None:
            # Dedupe: same (program, Θ, D) triple — serve what we have.
            return protocol.ok(job=spec.key, state=existing.state,
                               deduped=True, result=existing.result)
        # Admission control before the spec record lands: a rejected
        # job was never accepted.
        if self._outstanding() >= self.queue_limit:
            raise JobRejectedError(
                f"queue is full ({self.queue_limit} outstanding jobs)",
                code=protocol.REJECTED_BUSY,
            )
        fresh = self.store.submit(spec)
        if fresh:
            self._publish(spec.key, "submitted", shards=spec.shards or None)
            self._wake.set()
        view = self._view(spec.key)
        if view is None:
            raise ServiceError(f"job {spec.key}'s spec record is unreadable")
        return protocol.ok(job=spec.key, state=view.state, deduped=not fresh,
                           result=view.result)

    def _op_status(self, request: dict) -> dict:
        job = request.get("job")
        if job is None:
            try:
                jobs = self.store.jobs() if not self.partitioned else []
            except OSError:
                self._enter_partition()
                jobs = []
            views = [self._view(j) for j in sorted(set(jobs) | set(
                self._views))]
            return protocol.ok(**self._identity(), jobs=[
                self._status_entry(v) for v in views if v is not None])
        view = self._known_view(job)
        return protocol.ok(**self._identity(), **self._status_entry(view))

    def _status_entry(self, view: JobView) -> dict:
        """The job's view plus the children this daemon runs for it."""
        out = view.to_json()
        with self._attempts_lock:
            running = {shard: list(attempts) for (job, shard), attempts
                       in self._attempts.items() if job == view.job_id}

        def pid(shard: int, hedge: bool) -> Optional[int]:
            return next((a.child_pid for a in running.get(shard, [])
                         if a.hedge == hedge and a.child_pid), None)

        primaries = [pid(s, False) for s in sorted(running)]
        out["child_pid"] = next((p for p in primaries if p), None)
        for entry in out.get("shards", []):
            entry["child_pid"] = pid(entry["shard"], False)
            entry["hedge_child_pid"] = pid(entry["shard"], True)
        return out

    def _op_cancel(self, request: dict) -> dict:
        job = request.get("job")
        view = self._known_view(job)
        if view.state != QUEUED or not self.store.cancel(job):
            raise JobRejectedError(
                f"job {job} is {self._view(job).state}; only queued jobs "
                f"can be cancelled",
                code=protocol.NOT_CANCELLABLE,
            )
        self._publish(job, CANCELLED)
        return protocol.ok(job=job, state=self._view(job).state)

    def _op_audit(self, request: dict) -> dict:
        job = request.get("job")
        if not job:
            raise JobRejectedError("audit needs a job key",
                                   code=protocol.BAD_REQUEST)
        if self.partitioned:
            raise JobRejectedError(
                "campaign store unreachable; audit needs the store",
                code=protocol.PARTITIONED,
            )
        return protocol.ok(job=job, **self.store.token_audit(job))

    def _op_follow(self, conn: socket.socket, request: dict) -> None:
        """Stream a job's progress events; end on its terminal event.

        The stream reads only from this follower's bounded queue —
        workers publish through :meth:`_offer`, which drops oldest
        instead of blocking, so however slow this socket drains, no
        worker ever waits on it.  The terminal event (``done``,
        ``partial``, ``dead``, ``cancelled``) ends the stream at once;
        a job sealed by a peer daemon publishes no local event, so an
        idle stream also ends once the store shows the job sealed.
        """
        job_id = request.get("job")
        try:
            view = self._known_view(job_id)
        except JobRejectedError as exc:
            self._respond(conn, protocol.error(exc.code, str(exc)))
            return
        follower, backlog = self._subscribe(job_id)
        try:
            self._respond(conn, protocol.ok(job=job_id, state=view.state))
            last_seq = 0
            for event in backlog:
                self._send_line(conn, {"event": event})
                last_seq = event["seq"]
                if event["kind"] in TERMINAL_STATES:
                    self._send_line(conn, {"end": event["kind"]})
                    return
            if self._sealed_without_event(job_id, view.state, follower):
                self._send_line(conn, {"end": view.state})
                return
            last_io = self.clock.monotonic()
            while not self._stop.is_set():
                try:
                    event = follower.get(timeout=TICK_S)
                except queue.Empty:
                    event = None
                if event is not None:
                    # The backlog snapshot and the live queue can both
                    # hold the same event; seq ordering dedupes.
                    if event["seq"] > last_seq:
                        self._send_line(conn, {"event": event})
                        last_seq = event["seq"]
                        last_io = self.clock.monotonic()
                        if event["kind"] in TERMINAL_STATES:
                            self._send_line(conn, {"end": event["kind"]})
                            return
                    continue
                state = getattr(self._view(job_id), "state", None)
                if self._sealed_without_event(job_id, state, follower):
                    self._send_line(conn, {"end": state})
                    return
                if self.clock.monotonic() - last_io >= KEEPALIVE_S:
                    self._send_line(
                        conn, {"event": {"kind": "keepalive",
                                         "job": job_id, "seq": last_seq}})
                    last_io = self.clock.monotonic()
            state = getattr(self._view(job_id), "state", None)
            self._send_line(conn, {"end": state})
        except (OSError, ServiceProtocolError):
            return  # follower went away; nothing owed
        finally:
            self._unsubscribe(job_id, follower)

    def _sealed_without_event(self, job_id: str, state: Optional[str],
                              follower: "queue.Queue") -> bool:
        """Whether a stream may end on the store's terminal ``state``.

        Only when no terminal event is still coming: none waits in the
        follower's queue, and no seal of this daemon's has landed its
        outcome record without yet publishing the event.  The sealer
        publishes before it clears its mark, so the mark is read first.
        """
        if state not in TERMINAL_STATES:
            return False
        with self._attempts_lock:
            if job_id in self._sealing:
                return False
        return follower.empty()

    @staticmethod
    def _send_line(conn: socket.socket, obj: dict) -> None:
        data = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        conn.settimeout(protocol.DEFAULT_TIMEOUT_S)
        conn.sendall(data)

    # -- claim loops ---------------------------------------------------------

    def _claim_loop(self) -> None:
        while not self._stop.is_set():
            if self._partitioned.is_set():
                self._stop.wait(timeout=TICK_S)
                continue
            self._wake.clear()
            with self._attempts_lock:
                self._scanning += 1
            try:
                worked = self._claim_once()
            except OSError:
                self._enter_partition()
                continue
            except InjectedFault:
                raise  # a simulated crash must actually crash (chaos)
            except KondoError:
                # Backstop: no typed error may silently kill a claim
                # loop — the daemon would keep heartbeating as healthy
                # while never claiming again.  Treat it like an empty
                # scan and retry after a tick.
                self._stop.wait(timeout=TICK_S)
                continue
            finally:
                with self._attempts_lock:
                    self._scanning -= 1
            if not worked:
                self._wake.wait(timeout=TICK_S)

    def _claim_once(self) -> bool:
        """One scheduling decision: claim, seal, or hedge.  True when
        any work was done (the loop then rescans immediately)."""
        for job in self.store.jobs():
            if self._stop.is_set():
                return False
            if self._sealed(job):
                continue
            claim = self.store.claim_shard(job)
            if claim is not None:
                self._run_claim(claim)
                return True
            view = self._view(job)
            if view is None:
                continue
            if self._maybe_seal(view):
                return True
            if self._maybe_hedge(view):
                return True
        return False

    def _run_claim(self, claim: ShardClaim) -> None:
        spec = self.store.load_spec(claim.job)
        if spec is None:
            return
        attempt = _Attempt(claim.job, claim.shard, claim,
                           renewed_at=self.clock.monotonic())
        self._publish(spec.key, "shard-leased", shard=claim.shard,
                      worker=self.worker)
        result, failure = self._attempt_unit(spec, attempt)
        if failure is not None:
            self._fail(spec, attempt.claim, *failure)
            return
        claim = attempt.claim
        if self._stop.is_set():
            return  # aborted: a dead daemon publishes nothing
        if self.clock.wall() > claim.deadline_wall:
            # The lease ran out before the result: a peer (or this
            # daemon's next scan) may already be re-running the unit.
            self._fail(spec, claim, LEASE_EXPIRED,
                       f"completed after its lease (token {claim.token}) "
                       f"expired")
            return
        try:
            landed = self.store.publish_done(claim, result)
        except StaleTokenError:
            return  # fenced: a newer owner holds the unit now
        except OSError:
            with self._parked_lock:
                self._parked.append((claim, result))
            self._enter_partition()
            return
        if landed:
            self._landed(spec, claim.shard, result, hedge=False)

    def _landed(self, spec: JobSpec, shard: int, result: dict,
                hedge: bool) -> None:
        """A completion of this daemon's landed: tell followers, kill
        the local attempts it beat, and wake the loops to seal."""
        self._publish(spec.key, "shard-done", shard=shard, hedge=hedge,
                      n_indices=result.get("n_indices"))
        with self._attempts_lock:
            losers = list(self._attempts.get((spec.key, shard), []))
        for loser in losers:
            self._kill(loser)
        self._wake.set()

    def _attempt_unit(self, spec: JobSpec, attempt: _Attempt
                      ) -> Tuple[Optional[dict], Optional[Tuple[str, str]]]:
        """Run one unit attempt, registered for status and revocation.

        Returns ``(result, None)``, or ``(None, (verdict, detail))``
        with the attempt's RunVerdict (``EXCEPTION`` when the runner
        raised).
        """
        key = (attempt.job, attempt.shard)
        with self._attempts_lock:
            self._attempts.setdefault(key, []).append(attempt)
        try:
            return self._call_runner(spec, attempt), None
        except SupervisedRunError as exc:
            return None, (exc.verdict or "FAILED", str(exc))
        # kondo: allow[KND003] every runner failure becomes a typed
        # verdict: a failure record for a primary, a lost race for a hedge
        except Exception as exc:  # noqa: BLE001
            return None, ("EXCEPTION", f"{type(exc).__name__}: {exc}")
        finally:
            with self._attempts_lock:
                live = self._attempts.get(key, [])
                if attempt in live:
                    live.remove(attempt)
                if not live:
                    self._attempts.pop(key, None)

    def _call_runner(self, spec: JobSpec, attempt: _Attempt) -> dict:
        def on_spawn(pid: int) -> None:
            # Pairs with _shutdown: whichever of the two takes the lock
            # second sees the other's write, so a child forked as the
            # daemon stops is killed either here or there.
            with self._attempts_lock:
                attempt.child_pid = pid
                stopped = self._stop.is_set()
            if stopped:
                self._kill(attempt)

        def on_heartbeat() -> None:
            # The child's heartbeats renew the lease and double as
            # liveness progress events.
            self._renew(attempt)
            self._publish(spec.key, "shard-alive", shard=attempt.shard)

        supervisor = Supervisor(
            timeout_s=spec.deadline_s or self.default_deadline_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            grace_s=1.0, on_spawn=on_spawn, on_heartbeat=on_heartbeat,
        )
        return supervisor.bind(self.shard_runner)(spec.to_json(),
                                                  attempt.shard)

    def _renew(self, attempt: _Attempt) -> None:
        """Keep a running attempt's lease fresh; kill it once fenced.

        Every beat checks the token (a directory listing); the lease
        record itself is rewritten only every quarter TTL.  A primary
        whose unit was sealed under a newer token — a hedge won, or a
        peer reclaimed it — has its child killed at once.
        """
        if attempt.claim is None or self._stop.is_set():
            return
        try:
            self.store.check_current(attempt.claim)
            now = self.clock.monotonic()
            if now - attempt.renewed_at >= self.lease_ttl_s / 4:
                attempt.claim = self.store.renew(attempt.claim)
                attempt.renewed_at = now
        except StaleTokenError:
            self._kill(attempt)
        except OSError:
            self._enter_partition()

    @staticmethod
    def _kill(attempt: _Attempt) -> None:
        if attempt.child_pid:
            try:
                os.kill(attempt.child_pid, signal.SIGKILL)
            except OSError:
                pass

    def _fail(self, spec: JobSpec, claim: ShardClaim, verdict: str,
              detail: str) -> None:
        if self._stop.is_set():
            return  # aborted: a dead daemon records nothing
        try:
            state = self.store.record_failure(claim, verdict, detail)
        except OSError:
            self._enter_partition()
            return
        if state is None:
            return  # fenced or already complete: no budget burned
        self._publish(spec.key, "shard-failed", shard=claim.shard,
                      verdict=verdict)
        if state == DEAD:
            self._publish(spec.key, "shard-dead", shard=claim.shard,
                          verdict=verdict)
        self._wake.set()

    # -- sealing -------------------------------------------------------------

    def _maybe_seal(self, view: JobView) -> bool:
        """Seal the job once every unit is done or dead.

        The job merges its units' clouds and carves once — DONE when
        all completed, PARTIAL (with the missing-Θ manifest) when some
        dead-lettered, DEAD when all did (an unsharded job's one unit
        names its own last verdict) or when the merge itself raised.
        The outcome record is first-writer-wins and the merge is
        deterministic, so racing sealers agree.
        """
        units = view.shards
        if view.state in TERMINAL_STATES or any(
                sv.state not in (DONE, DEAD) for sv in units.values()):
            return False
        spec = view.spec
        done = {i: sv.result for i, sv in units.items() if sv.state == DONE}
        dead = sorted(i for i, sv in units.items() if sv.state == DEAD)
        token = max([sv.token or 1 for sv in units.values()] + [1])
        verdict = None
        if not done:
            state, result = DEAD, None
            verdict = ("ALL-SHARDS-DEAD" if spec.shards
                       else (units[0].verdicts or ["FAILED"])[-1])
            fields = {"verdict": verdict}
        else:
            try:
                missing = (missing_theta_manifest(plan_shards(spec), dead)
                           if dead else None)
                result = merge_shard_results(spec, done, missing=missing)
                state = PARTIAL if dead else DONE
                fields = ({"missing_shards": dead} if dead
                          else {"n_shards": len(units)})
            # kondo: allow[KND003] a merge failure dead-letters the job
            # with a typed verdict instead of wedging it forever
            except Exception as exc:  # noqa: BLE001
                state, result, verdict = DEAD, None, "MERGE-FAILED"
                fields = {"verdict": verdict,
                          "detail": f"{type(exc).__name__}: {exc}"}
        with self._attempts_lock:
            self._sealing[view.job_id] = self._sealing.get(view.job_id, 0) + 1
        try:
            landed = self.store.publish_result(view.job_id, result, token,
                                               state, verdict)
            if landed:
                self._publish(view.job_id, state, **fields)
        finally:
            with self._attempts_lock:
                left = self._sealing.pop(view.job_id) - 1
                if left:
                    self._sealing[view.job_id] = left
        return landed

    # -- hedging -------------------------------------------------------------

    def _maybe_hedge(self, view: JobView) -> bool:
        """Race one straggling unit (claim-on-completion).

        A unit straggles when its current lease is older than
        ``hedge_after_s`` but not reclaimable (the owner — a peer, or
        another of this daemon's loops — is alive and renewing, just
        slow).  The hedge runs without a claim and claims a token only
        to publish, so a healthy primary is never fenced mid-run;
        whoever lands first wins, and the loser is deduped or fenced
        (its child killed on its next renewal).
        """
        if self.hedge_after_s is None or self._draining.is_set():
            return False
        for shard, sv in sorted(view.shards.items()):
            if sv.token is None or sv.state in (DONE, DEAD):
                continue
            lease = self.store.read_lease(view.job_id, shard)
            if lease is None or int(lease.get("token", 0)) != sv.token:
                continue
            granted = float(lease.get("granted_wall", 0.0))
            if self.clock.wall() - granted < self.hedge_after_s:
                continue
            key = (view.job_id, shard, sv.token)
            with self._hedged_lock:
                if key in self._hedged:
                    continue
                self._hedged.add(key)
            self._hedge(view.spec, shard, str(lease.get("worker", "")))
            return True
        return False

    def _hedge(self, spec: JobSpec, shard: int, straggler: str) -> None:
        self._publish(spec.key, "shard-hedged", shard=shard,
                      straggler_worker=straggler)
        result, failure = self._attempt_unit(spec, _Attempt(spec.key, shard))
        if failure is not None or self._stop.is_set():
            return  # a failed hedge is a lost race, never a unit failure
        claim = self.store.hedge_publish(spec.key, shard, result)
        if claim is not None:
            self._landed(spec, shard, result, hedge=True)
