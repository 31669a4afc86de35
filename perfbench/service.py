"""The service workload ``serve``, and the fleet layer of its traced run.

The daemons are started through the ``kondo serve`` CLI with supervised
children.  One closed-loop load generator keeps ``OUTSTANDING`` jobs in
flight from as many threads, each job a small sharded campaign with its
own seed derived from the workload seed (content-addressed dedupe would
otherwise serve every repeat from the cache).  ``serve`` observes
completion on the ``follow`` stream.  The traced run then drives the
same kind of jobs through two ``kondo serve --fleet`` daemons over one
shared store; the fleet has no ``follow``, so it polls ``status`` every
``POLL_S`` seconds.

The closed-loop window takes ``WINDOW_SHARE`` of the run's seconds.
After it every job's result digest is compared with the no-fault
reference, computed in this process, which takes most of the rest;
each fleet job's fencing-token audit must also be clean.  On ``serve``
``pipeline_s`` is the mean time from submit to terminal state, the
job's whole path through the service, and recall, precision and
``debloat_pct`` score the carved set whose digest the service returned.

The fleet is measured only in the traced run.  Its latency grows with
the finished jobs in the shared store, so its end-to-end figures depend
on how many jobs the host's speed of the moment lets a window finish,
and they spread too far from run to run for a bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import Kondo, accuracy, get_program
from repro.errors import KondoError
from repro.service import JobSpec, ServiceClient
from repro.service.shards import (
    decode_runs,
    execute_shard,
    merge_shard_results,
    plan_shards,
)

from common import Outcome, beyond, median, percentile, repeat_setup
from tracer import Tracer

#: Jobs in flight at once, from as many client threads, and the single
#: daemon's workers.  With two of each on a 2-vCPU host one job's shards
#: queued behind the other's, which amplified the host's own swings:
#: over four seeds, run alternately, the mean latency spread 0.35 with
#: two and 0.17 with one.
OUTSTANDING = 1
#: Fleet status-poll interval.
POLL_S = 0.05
#: Each client thread waits ``uniform(0, THINK_S)`` (seeded) before its
#: next job.  Submitting the instant the last one ended locks the loop
#: to the daemons' 0.1 s ticks, and the run's median then lands on
#: whichever tick multiple the lock happened to pick.
THINK_S = 0.1
#: Tail percentile.  It leaves at least ten jobs beyond it at the job
#: counts one window completes (45 or more).
TAIL_PCT = 75.0
#: Share of ``--seconds`` spent in the closed loop.  Checking the jobs
#: against their references costs about 0.5 s per second of window, so
#: window and references together take about ``--seconds``.
WINDOW_SHARE = 0.6
TERMINAL = ("done", "partial", "dead", "cancelled")
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    fleet: bool
    program: str = "CS"
    dims: tuple = (64, 64)
    shards: int = 4
    max_iter: int = 200


SERVE = ServiceWorkload("serve", fleet=False)


def job_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def job_spec(workload: ServiceWorkload, seed: int, index: int) -> JobSpec:
    return JobSpec(program=workload.program, dims=workload.dims,
                   seed=job_seed(seed, index), max_iter=workload.max_iter,
                   shards=workload.shards)


# -- daemons ------------------------------------------------------------------


class Daemon:
    """One ``kondo serve`` process, spawned through the CLI."""

    def __init__(self, args: List[str], socket_path: str, log_path: str,
                 src_dir: str):
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.client = ServiceClient(socket_path, timeout_s=REQUEST_TIMEOUT_S)
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *args,
                 "--socket", socket_path],
                env=env, stdout=subprocess.DEVNULL, stderr=log)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                self.client.ping()
                return
            except KondoError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"kondo serve exited {self.proc.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("kondo serve never answered ping")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        """Drain through SIGTERM; kill if the drain overruns."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def start_daemons(workload: ServiceWorkload, workdir: str, tag: str,
                  src_dir: str) -> List[Daemon]:
    """Spawn the workload's daemons and wait until each answers ping."""
    base = os.path.join(workdir, tag)
    os.makedirs(base, exist_ok=True)
    if workload.fleet:
        shared = os.path.abspath(os.path.join(base, "shared"))
        members = [([os.path.abspath(os.path.join(base, w)), "--fleet",
                     shared, "--worker-id", w, "--workers", "1"], w)
                   for w in ("w0", "w1")]
    else:
        members = [([os.path.abspath(os.path.join(base, "state")),
                     "--workers", str(OUTSTANDING)], "d0")]
    daemons = []
    try:
        for args, w in members:
            daemons.append(Daemon(args, os.path.join(base, f"{w}.sock"),
                                  os.path.join(base, f"{w}.log"), src_dir))
        for d in daemons:
            d.wait_ready()
    except BaseException:
        for d in daemons:
            d.stop()
        raise
    return daemons


# -- the load generator -------------------------------------------------------


@dataclass
class JobRecord:
    index: int
    spec: JobSpec
    client: ServiceClient
    started_at: float = 0.0
    submitted_at: float = 0.0
    ended_at: float = 0.0
    job: str = ""
    state: str = ""
    result: Optional[dict] = None
    error: Optional[str] = None
    #: ``(kind, shard, client arrival time)`` of each follow event,
    #: kept on traced runs only.
    events: List[tuple] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.ended_at - self.started_at


def run_job(rec: JobRecord, fleet: bool, trace: bool) -> None:
    client = rec.client
    rec.started_at = time.perf_counter()
    response = client.submit(rec.spec)
    rec.submitted_at = time.perf_counter()
    rec.job = response["job"]
    if response.get("deduped"):
        raise RuntimeError("a fresh job was served from the cache")
    if fleet:
        while True:
            status = client.status(rec.job)
            if status.get("state") in TERMINAL:
                break
            time.sleep(POLL_S)
        rec.ended_at = time.perf_counter()
    else:
        for event in client.follow(rec.job, timeout_s=REQUEST_TIMEOUT_S):
            kind = event.get("kind")
            if trace and kind != "keepalive":
                rec.events.append((kind, event.get("shard"),
                                   time.perf_counter()))
            if kind == "end":
                break
        rec.ended_at = time.perf_counter()
        status = client.status(rec.job)
    rec.state = status.get("state", "")
    rec.result = status.get("result")


def closed_loop(workload: ServiceWorkload, daemons: List[Daemon], seed: int,
                seconds: float, trace: bool) -> List[JobRecord]:
    """``OUTSTANDING`` client threads, each submitting its next job a
    think time after its last one ended, for ``seconds``.

    Submissions rotate over the daemons.
    """
    records: List[JobRecord] = []
    lock = threading.Lock()
    counter = itertools.count()
    end = time.perf_counter() + seconds

    def worker(thread: int) -> None:
        think = np.random.default_rng([seed, thread])
        while time.perf_counter() < end:
            time.sleep(think.uniform(0.0, THINK_S))
            with lock:
                index = next(counter)
                rec = JobRecord(index, job_spec(workload, seed, index),
                                daemons[index % len(daemons)].client)
                records.append(rec)
            try:
                run_job(rec, workload.fleet, trace)
            except (KondoError, OSError, RuntimeError) as exc:
                rec.error = f"job {index}: {exc!r}"

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(OUTSTANDING)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(records, key=lambda r: r.index)


def warm_up(workload: ServiceWorkload, daemons: List[Daemon],
            seed: int) -> None:
    """One untimed job per daemon: first forks, first imports, caches."""
    for k, d in enumerate(daemons):
        index = -1 - k  # never collides with a timed job's index
        run_job(JobRecord(index, job_spec(workload, seed, index), d.client),
                workload.fleet, False)


# -- the reference ------------------------------------------------------------


def reference(spec_json: dict) -> dict:
    """The no-fault reference of one job, run directly in this process.

    The shard runs and the merge are those of
    ``repro.service.shards.run_sharded_reference``; the union is carved
    once more so the carved indices can be scored (their digest must
    match the merged one).
    """
    spec = JobSpec.from_json(spec_json)
    results = {i: execute_shard(spec_json, i)
               for i in range(plan_shards(spec).n_shards)}
    digest = merge_shard_results(spec, results)
    union = np.unique(np.concatenate(
        [decode_runs(results[i]["cloud"]) for i in sorted(results)]))
    program = get_program(spec.program)
    carved = Kondo(program, spec.dims, carver=spec.carver) \
        .carver.carve_flat(union).flat_indices
    carved_sha = hashlib.sha256(
        np.ascontiguousarray(carved, dtype=np.int64).tobytes()).hexdigest()
    acc = accuracy(program.ground_truth_flat(spec.dims), carved)
    return {"digest": digest,
            "carve_matches": carved_sha == digest["carved_sha256"],
            "recall": acc.recall, "precision": acc.precision,
            "debloat_pct": 100.0 * (1.0 - carved.size
                                    / float(np.prod(spec.dims)))}


def check_job(rec: JobRecord, ref: dict,
              audit_report: Optional[dict]) -> Optional[str]:
    """``None`` when the job finished with the reference digest."""
    if rec.error:
        return rec.error
    if rec.state != "done" or rec.result is None:
        return f"job {rec.index}: ended {rec.state!r}"
    if not ref["carve_matches"]:
        return f"job {rec.index}: reference carve does not match its digest"
    mismatch = [k for k, v in ref["digest"].items()
                if rec.result.get(k) != v]
    if mismatch:
        return f"job {rec.index}: digest differs from the reference in " \
               f"{mismatch}"
    if audit_report is not None and not audit_report.get("ok"):
        return f"job {rec.index}: token audit failed: {audit_report}"
    return None


def audit(rec: JobRecord) -> dict:
    """The fleet's fencing-token audit of one finished job."""
    return rec.client.request("audit", job=rec.job)


def double_executions(report: Optional[dict]) -> int:
    """Shards whose completion landed more than once."""
    return sum(1 for s in (report or {}).get("shards", [])
               if s.get("landed_events", 0) > 1)


# -- the run ------------------------------------------------------------------


def count_files(path: str) -> int:
    return sum(len(files) for _, _, files in os.walk(path))


@dataclass
class Window:
    """One closed-loop window, its jobs checked against their references."""

    records: List[JobRecord]
    refs: List[dict]
    audits: List[Optional[dict]]
    errors: List[str]
    peak_rss_mb: float
    layers: Dict[str, float]

    @property
    def latencies(self) -> List[float]:
        return [r.latency for r in self.records if not r.error]


def measure_window(workload: ServiceWorkload, seed: int, seconds: float,
                   workdir: str, tag: str, src_dir: str,
                   tracer: Optional[Tracer] = None) -> Window:
    """Fresh daemons, one warm-up job each, one closed-loop window.

    The jobs are checked after the daemons have stopped.  With a tracer
    the window's per-layer metrics are measured too.
    """
    daemons = start_daemons(workload, workdir, tag, src_dir)
    layers: Dict[str, float] = {}
    layer = "fleet" if workload.fleet else "service"
    try:
        warm_up(workload, daemons, seed)
        if tracer is None:
            records = closed_loop(workload, daemons, seed, seconds, False)
        else:
            with tracer:
                tracer.wrap(ServiceClient, "submit", f"{layer}.submit")
                tracer.wrap(ServiceClient, "status", f"{layer}.status")
                records = closed_loop(workload, daemons, seed, seconds, True)
                layers = traced_layers(workload, tracer, records)
        peak_rss_mb = max(d.peak_rss_mb() for d in daemons)
        audits = [audit(r) if workload.fleet and not r.error else None
                  for r in records]
    finally:
        for d in daemons:
            d.stop()
    refs = [reference(r.spec.to_json()) for r in records]
    errors = [check_job(r, ref, a) for r, ref, a in zip(records, refs, audits)]
    return Window(records, refs, audits, [e for e in errors if e],
                  peak_rss_mb, layers)


def run(workload: ServiceWorkload, seed: int, seconds: float, trace: bool,
        workdir: str, src_dir: str) -> Outcome:
    def one_setup(rep: int) -> float:
        t0 = time.perf_counter()
        daemons = start_daemons(workload, workdir, f"setup{rep}", src_dir)
        elapsed = time.perf_counter() - t0
        for d in daemons:
            d.stop()
        return elapsed

    setup = repeat_setup(one_setup)
    window_s = seconds * WINDOW_SHARE
    if trace:
        return traced_run(workload, seed, window_s, workdir, src_dir,
                          len(setup))
    w = measure_window(workload, seed, window_s, workdir, "run", src_dir)
    done = [r for r in w.records if not r.error]
    latencies = w.latencies
    info = {"jobs": len(w.records), "outstanding": OUTSTANDING,
            "tail_percentile": TAIL_PCT,
            "jobs_beyond_tail": beyond(latencies, TAIL_PCT),
            "setup_reps": len(setup), "errors": w.errors[:5]}
    window = max(r.ended_at for r in done) - min(r.started_at for r in done)
    metrics = {
        "setup_s": median(setup),
        # Mean latency: the job's whole path through the service.  The
        # service-free reference runs, timed in a burst of a few seconds
        # after the window, moved by up to 47% from run to run.
        "pipeline_s": float(np.mean(latencies)),
        "peak_rss_mb": w.peak_rss_mb,
        "recall": float(np.mean([ref["recall"] for ref in w.refs])),
        "precision": float(np.mean([ref["precision"] for ref in w.refs])),
        "debloat_pct": float(np.mean([ref["debloat_pct"]
                                      for ref in w.refs])),
        "job_p50_s": median(latencies),
        "job_tail_s": percentile(latencies, TAIL_PCT),
        "jobs_per_s": len(done) / window,
    }
    return Outcome(metrics, len(w.records), len(w.errors), info)


def traced_run(workload: ServiceWorkload, seed: int, window_s: float,
               workdir: str, src_dir: str, setup_reps: int) -> Outcome:
    """Per-layer metrics: an untraced window (the overhead base), the
    same window traced, then a traced half window on a two-daemon fleet
    running the same kind of jobs."""
    base = measure_window(workload, seed, window_s, workdir, "base", src_dir)
    tracer = Tracer()
    w = measure_window(workload, seed, window_s, workdir, "run", src_dir,
                       tracer)
    fleet = measure_window(
        dataclasses.replace(workload, name="fleet", fleet=True), seed,
        window_s / 2, workdir, "fleet", src_dir, tracer)
    tracer.write(os.path.join(workdir, "spans.jsonl"))
    metrics = dict(w.layers, **fleet.layers)
    latencies = fleet.latencies
    q = max(1, len(latencies) // 4)
    metrics["fleet.double_exec"] = sum(map(double_executions, fleet.audits))
    metrics["fleet.latency_drift"] = (median(latencies[-q:])
                                      / median(latencies[:q]))
    metrics["fleet.store_files"] = count_files(
        os.path.join(workdir, "fleet", "shared"))
    metrics["trace.overhead_frac"] = (median(w.latencies)
                                      / median(base.latencies) - 1.0)
    errors = base.errors + w.errors + fleet.errors
    info = {"jobs": len(w.records), "fleet_jobs": len(fleet.records),
            "outstanding": OUTSTANDING, "poll_interval_s": POLL_S,
            "setup_reps": setup_reps, "errors": errors[:5]}
    attempted = len(base.records) + len(w.records) + len(fleet.records)
    return Outcome(metrics, attempted, len(errors), info)


def traced_layers(workload: ServiceWorkload, tracer: Tracer,
                  records: List[JobRecord]) -> Dict[str, float]:
    """Per-layer service metrics from client spans and follow events."""
    done = [r for r in records if not r.error]
    if workload.fleet:
        out = {"fleet.submit_s": median(tracer.durations("fleet.submit")),
               "fleet.status_s": median(tracer.durations("fleet.status"))}
        for r in done[:10]:
            tracer.call("fleet.audit", r.client.request, "audit", job=r.job)
        out["fleet.audit_s"] = median(tracer.durations("fleet.audit"))
        return out
    queue_wait, shard_exec, merge, notify = [], [], [], []
    retries = 0
    for r in done:
        leased: Dict[int, float] = {}
        shard_done: List[float] = []
        done_at = end_at = None
        for kind, shard, at in r.events:
            if kind == "shard-leased":
                leased.setdefault(shard, at)
            elif kind == "shard-done" and shard in leased:
                shard_exec.append(at - leased[shard])
                shard_done.append(at)
            elif kind == "done":
                done_at = at
            elif kind == "end":
                end_at = at
            elif kind in ("failed", "shard-failed"):
                retries += 1
        if leased:
            queue_wait.append(min(leased.values()) - r.submitted_at)
        if done_at is not None and shard_done:
            merge.append(done_at - max(shard_done))
        if done_at is not None and end_at is not None:
            notify.append(end_at - done_at)
    out = {
        "service.submit_s": median(tracer.durations("service.submit")),
        "service.status_s": median(tracer.durations("service.status")),
        "service.queue_wait_s": median(queue_wait),
        "service.shard_exec_s": median(shard_exec),
        "service.merge_s": median(merge),
        "service.notify_s": median(notify),
        "service.retries": retries,
    }
    t0 = time.perf_counter()
    response = done[0].client.submit(done[0].spec)
    out["service.cache_hit_s"] = time.perf_counter() - t0
    if not response.get("deduped"):
        raise RuntimeError("resubmitting a finished job missed the cache")
    return out
