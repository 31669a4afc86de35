"""The chaos drills: run the pipeline and the service with faults armed
and assert that the resilience layer heals every one of them.

Fourteen drills, one per failure class the resilience layer covers.
Each is one test, run for both drill parameter sets (seed 0 and seed 7),
and each seed shares one fault-free baseline campaign:

1. **crash-resume** — the campaign is crashed at a chosen iteration and
   resumed from its checkpoint; observed and carved offsets must be
   bit-identical to the uninterrupted run.
2. **flaky-fetch** — a deliberately-undersized subset is executed with a
   remote fetcher failing at the configured rate; retry + breaker +
   local fallback must serve every read.
3. **heal** — the misses of the flaky-fetch run are re-carved into the
   subset; a re-run of the healed subset must have zero misses.
4. **corrupt-artifact** — KND/KNDS copies are byte-flipped and
   truncated; every open must fail with ``FileFormatError``, never
   garbage or an uncontrolled exception.
5. **corrupt-span-degrades** — a journaled bundle is bit-rotted at
   several seeded sites; a degrade-mode runtime over the damaged file
   must serve every read bit-identical to the source (corrupt spans
   become misses → fallback), and ``repair_bundle`` must re-fetch only
   the damaged spans and restore a clean fsck.
6. **torn-patch-recovers** — a journaled heal is committed, then two
   crash states are injected (a torn journal-log tail, and a BEGIN
   record with no COMMIT); journal recovery must leave the bundle
   byte-for-byte at a committed generation — never a hybrid.
7. **hung-run-times-out** — one supervised debloat test hangs forever;
   the wall-clock watchdog must kill it (verdict TIMEOUT), the campaign
   must quarantine it and complete, a replay must be identical, and a
   crash + checkpoint resume must preserve the verdict bit-identically.
8. **leaky-run-contained** — one supervised debloat test allocates far
   past the run's memory headroom; the child's ``RLIMIT_AS`` must stop
   it (verdict OOM) with the parent campaign unharmed.
9. **worker-killed-mid-job-requeues** — a ``kondo serve`` worker's
   supervised child is SIGKILLed mid-job; the daemon must record the
   SIGNALED failure, retry under the retry budget, and the retried
   attempt must produce a result digest bit-identical to an
   uninterrupted run — with exactly one landed completion.
10. **serve-crash-recovers-queue** — a ``kondo serve`` daemon is
    crash-stopped with jobs accepted and a spec record torn mid-write;
    a restarted daemon must read the torn record as no job, run every
    accepted job, and complete each exactly once — no lost jobs, no
    duplicates.
11. **shard-worker-killed-requeues-only-lost-shards** — one shard of a
    sharded campaign is SIGKILLed mid-attempt; the daemon must retry
    *only that shard* (every other shard keeps its single clean
    attempt), and the merged result must be bit-identical to the
    no-fault sharded reference.
12. **straggler-hedge-first-completion-wins** — one shard's primary
    attempt is parked as a straggler; a free worker must launch a
    speculative duplicate, the duplicate's completion must win, the
    fenced loser must be killed without burning the shard's retry
    budget, and the merged result must be bit-identical to the
    no-fault run.
13. **fleet-partition-heals** — one of two fleet daemons loses the
    shared store mid-fleet; it must degrade to typed read-only
    partition mode (``PARTITIONED`` rejections, degraded status) while
    the survivor completes the campaign bit-identically, then heal,
    rejoin under a bumped registry epoch, and serve the finished
    result.
14. **stale-worker-fenced-out** — a fleet worker pauses past its shard
    lease; a peer reclaims the shard under a higher fencing token and
    finishes the campaign, and the stale worker's late completion must
    be rejected whole (``StaleTokenError``) — one completion per
    shard, merge bit-identical, token audit clean.

Supervised runs and service units execute in ``os.fork`` children, so
the injectors and parked shard runners defined here reach the child
unchanged; one-shot switches and call counts cross the fork as files.
"""

import os
import shutil
import signal
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.arraymodel.datafile import ArrayFile
from repro.arraymodel.debloated import DebloatedArrayFile
from repro.arraymodel.schema import ArraySchema
from repro.core.pipeline import Kondo
from repro.errors import (
    FileFormatError,
    FleetPartitionedError,
    InjectedFault,
    StaleTokenError,
)
from repro.fuzzing.config import FuzzConfig
from repro.resilience.config import ResilienceConfig
from repro.resilience.durability.fsck import fsck_file
from repro.resilience.durability.journal import BundleJournal
from repro.resilience.durability.records import seal_record
from repro.resilience.durability.repair import repair_bundle
from repro.resilience.healing import ResilientRuntime
from repro.resilience.retry import RetryPolicy
from repro.service import (
    JobSpec,
    KondoService,
    ServiceClient,
    run_sharded_reference,
)
from repro.service.fleet import FakeClock, FleetStore, WorkerRegistry
from repro.service.shards import execute_shard, merge_shard_results
from repro.workloads import get_program
from tests.chaos.faults import (
    CrashAt,
    FlakyCallable,
    HangForever,
    MemoryHog,
    PartitionGate,
    corrupt_file,
    torn_append,
    wrap_test,
)

pytestmark = pytest.mark.chaos

#: Workload under test and its array shape.
PROGRAM = "CS"
DIMS = (32, 32)
#: Injected remote-fetch failure probability (flaky-fetch, heal).
FETCH_FAIL_RATE = 0.5
#: Fraction of the carved subset shipped in the flaky-fetch drill
#: (``< 1`` guarantees observable misses).
KEEP_FRACTION = 0.5
#: Wall budget for one supervised run in the hang drill (seconds).
RUN_TIMEOUT_S = 0.75
#: Heartbeat period for the hang drill's supervised children (seconds).
HEARTBEAT_S = 0.05
#: Address-space headroom for the leak drill's supervised runs (MiB).
RUN_MEMORY_MB = 128
#: How far past the headroom the injected leak tries to grow (MiB).
HOG_GROW_MB = 512
#: Iteration budget for the service drills' campaigns — small enough to
#: keep each attempt to a couple of seconds, deterministic per seed.
SERVE_ITER = 40


@dataclass(frozen=True)
class Drill:
    """One drill parameter set: the campaign seed, its iteration budget,
    and the debloat-test call at which the crash drills crash it."""

    seed: int
    max_iter: int
    crash_at: int

    @property
    def fuzz(self) -> FuzzConfig:
        return FuzzConfig(rng_seed=self.seed, max_iter=self.max_iter)


@pytest.fixture(scope="module",
                params=[Drill(seed=0, max_iter=300, crash_at=120),
                        Drill(seed=7, max_iter=250, crash_at=90)],
                ids=lambda d: f"seed{d.seed}")
def drill(request) -> Drill:
    return request.param


@pytest.fixture(scope="module")
def baseline(drill):
    """The fault-free reference campaign on the drill's seed (serial, no
    resilience); the drills compare against it."""
    return Kondo(get_program(PROGRAM), DIMS, fuzz_config=drill.fuzz).analyze()


def _identical(result, reference) -> bool:
    return (
        np.array_equal(result.observed_flat, reference.observed_flat)
        and np.array_equal(result.carved_flat, reference.carved_flat)
    )


# -- campaign drills ---------------------------------------------------------


def test_crash_resume(drill, baseline, tmp_path):
    program = get_program(PROGRAM)
    ckpt = str(tmp_path / "campaign.ckpt.npz")
    resilience = ResilienceConfig(
        checkpoint_path=ckpt, checkpoint_every=max(1, drill.crash_at // 4)
    )
    kondo = Kondo(program, DIMS, fuzz_config=drill.fuzz, resilience=resilience)
    try:
        kondo.analyze(test=wrap_test(kondo, CrashAt, drill.crash_at))
    except InjectedFault:
        pass
    else:
        pytest.fail(f"campaign survived a crash injected at call "
                    f"{drill.crash_at}")
    assert os.path.exists(ckpt), "no checkpoint written"
    fresh = Kondo(program, DIMS, fuzz_config=drill.fuzz, resilience=resilience)
    result = fresh.analyze(resume_from=ckpt)
    assert _identical(result, baseline), (
        f"crashed at call {drill.crash_at}, resumed from checkpoint, "
        f"output DIVERGED from fault-free run")


@contextmanager
def _flaky_fetch(drill, baseline, workdir):
    """Run a few useful values over an undersized subset whose remote
    fetcher fails at ``FETCH_FAIL_RATE``; yields ``(runtime, fetcher,
    source, values)`` with the source still open."""
    program = get_program(PROGRAM)
    data = np.random.default_rng(drill.seed).standard_normal(DIMS)
    source = ArrayFile.create(str(workdir / "chaos.knd"),
                              ArraySchema(DIMS, "f8"), data)
    # Ship an undersized subset so the drill observes real misses.
    carved = baseline.carved_flat
    kept = carved[: max(1, int(carved.size * KEEP_FRACTION))]
    subset = DebloatedArrayFile.create(str(workdir / "chaos.knds"), source,
                                       keep_flat_indices=kept)
    try:
        fetcher = FlakyCallable(source.read_point, fail_rate=FETCH_FAIL_RATE,
                                seed=drill.seed)
        config = ResilienceConfig(
            fetch_retries=3, fetch_backoff_s=0.0, breaker_threshold=5,
            breaker_reset_s=60.0,
        )
        runtime = ResilientRuntime(
            subset, remote_fetcher=fetcher, fallback_source=source,
            config=config, sleep=lambda _s: None,
        )
        useful = [s.v for s in baseline.fuzz.seeds if s.useful]
        values = useful[: min(5, len(useful))]
        for v in values:
            program.run(runtime.read, v, DIMS)
        yield runtime, fetcher, source, values
    finally:
        subset.close()
        source.close()


def test_flaky_fetch(drill, baseline, tmp_path):
    with _flaky_fetch(drill, baseline, tmp_path) as (runtime, fetcher, _, _):
        stats = runtime.stats
        served = stats.hits + stats.remote_fetches + stats.fallback_reads
        assert stats.reads > 0 and served == stats.reads \
            and stats.misses > 0, (
                f"{stats.reads} reads, {stats.misses} misses, "
                f"{stats.remote_fetches} fetched ({fetcher.failures} "
                f"injected failures), {stats.fallback_reads} from local "
                f"fallback")


def test_heal(drill, baseline, tmp_path):
    program = get_program(PROGRAM)
    healed = str(tmp_path / "healed.knds")
    with _flaky_fetch(drill, baseline, tmp_path) as (runtime, _, source,
                                                     values):
        # Heal: fold the observed misses back into the shipped subset.
        runtime.heal(healed, source)
        misses = runtime.stats.misses
    with DebloatedArrayFile.open(healed) as patched:
        rerun = ResilientRuntime(patched, record_misses=False)
        for v in values:
            program.run(rerun.read, v, DIMS)
    assert rerun.stats.misses == 0 and rerun.stats.reads > 0, (
        f"patched subset ({misses} misses re-carved): "
        f"{rerun.stats.reads} reads, {rerun.stats.misses} misses on re-run")


def test_corrupt_artifact(drill, tmp_path):
    knd = str(tmp_path / "corrupt.knd")
    knds = str(tmp_path / "corrupt.knds")
    data = np.arange(int(np.prod(DIMS)), dtype="f8").reshape(DIMS)
    source = ArrayFile.create(knd, ArraySchema(DIMS, "f8"), data)
    DebloatedArrayFile.create(
        knds, source, keep_flat_indices=np.arange(8, dtype=np.int64)
    ).close()
    source.close()
    outcomes = []
    scenarios = (
        (knd, ArrayFile.open, "flip", None),
        (knd, ArrayFile.open, "truncate", os.path.getsize(knd) // 2),
        (knds, DebloatedArrayFile.open, "flip", None),
        (knds, DebloatedArrayFile.open, "truncate",
         os.path.getsize(knds) - 4),
    )
    for path, opener, mode, offset in scenarios:
        broken = path + f".{mode}"
        shutil.copyfile(path, broken)
        if mode == "flip":
            # Flip a payload byte (headers are small; damage the tail).
            offset = os.path.getsize(broken) - 8
        corrupt_file(broken, mode=mode, offset=offset)
        try:
            opener(broken).close()
            outcomes.append(f"{os.path.basename(broken)}: opened silently")
        except FileFormatError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other error is a leak
            outcomes.append(
                f"{os.path.basename(broken)}: leaked {type(exc).__name__}"
            )
    assert not outcomes, "; ".join(outcomes)


def test_corrupt_span_degrades(drill, tmp_path):
    """Bit-rot a journaled bundle; degrade-mode reads must stay
    bit-correct via the miss path, and repair must restore clean fsck."""
    knd = str(tmp_path / "bitrot.knd")
    knds = str(tmp_path / "bitrot.knds")
    grid = (32, 32)
    data = np.random.default_rng(drill.seed).standard_normal(grid)
    with ArrayFile.create(knd, ArraySchema(grid, "f8"), data) as source:
        with DebloatedArrayFile.create(
            knds, source, keep_extents=[(0, grid[1] * 16 * 8)]
        ):
            pass
    kept = [(i, j) for i in range(16) for j in range(grid[1])]
    BundleJournal.open(knds)  # adopt generation 1 before the damage
    corrupt_file(knds, mode="bitrot", seed=drill.seed, sites=4)
    before = fsck_file(knds, check_journal=False)
    assert before.exit_code != 0, "bitrot left fsck clean (no damage?)"
    degraded_reads = None
    if before.exit_code == 1:
        # Payload damage only: the degrade path must serve every kept
        # index bit-identically, corrupt spans arriving via fallback.
        with DebloatedArrayFile.open(knds, on_corruption="degrade") as sub:
            with ArrayFile.open(knd) as source:
                runtime = ResilientRuntime(sub, fallback_source=source)
                wrong = sum(
                    1 for ix in kept
                    if runtime.read(ix) != float(data[ix])
                )
            stats = runtime.stats
        assert not wrong and stats.misses > 0 \
            and stats.fallback_reads == stats.misses, (
                f"degraded reads: {wrong} wrong value(s), "
                f"{stats.misses} misses, {stats.fallback_reads} fallbacks")
        degraded_reads = (stats.misses, len(kept))
    rep = repair_bundle(knds, knd)
    after = fsck_file(knds, check_journal=False)
    with DebloatedArrayFile.open(knds) as sub:
        wrong = sum(1 for ix in kept if sub.read_point(ix) != float(data[ix]))
    how = (
        f"{len(before.bad_spans)} corrupt span(s), "
        + (f"{degraded_reads[0]}/{degraded_reads[1]} reads degraded to "
           f"fallback, " if degraded_reads else "header hit, ")
        + ("repaired via snapshot" if rep.restored_from_snapshot
           else f"{rep.bytes_fetched}B re-fetched")
        + f", fsck exit {after.exit_code}, {wrong} wrong value(s)"
    )
    assert after.exit_code == 0 and rep.after_exit == 0 and wrong == 0, how


def test_torn_patch_recovers(drill, tmp_path):
    """Heal through the journal, then inject two mid-commit crash
    states; recovery must leave the bundle at a committed generation."""
    knd = str(tmp_path / "torn.knd")
    knds = str(tmp_path / "torn.knds")
    grid = (16, 16)
    data = np.random.default_rng(drill.seed + 1).standard_normal(grid)
    with ArrayFile.create(knd, ArraySchema(grid, "f8"), data) as source:
        with DebloatedArrayFile.create(
            knds, source, keep_extents=[(0, grid[1] * 8 * 8)]
        ):
            pass

    def bundle_bytes() -> bytes:
        with open(knds, "rb") as fh:
            return fh.read()

    old_bytes = bundle_bytes()
    with ArrayFile.open(knd) as source:
        with DebloatedArrayFile.open(knds) as sub:
            runtime = ResilientRuntime(sub, fallback_source=source)
            for i in range(grid[0]):
                for j in range(grid[1]):
                    runtime.read((i, j))
            gen = runtime.heal_in_place(source)
    new_bytes = bundle_bytes()
    assert gen == 2 and new_bytes != old_bytes, (
        f"journaled heal did not commit a new generation (gen={gen})")
    journal = BundleJournal.open(knds)
    states = []

    # Crash 1: a half-written trailing record (killed mid-append).
    fake = seal_record({
        "seq": len(journal.records) + 1, "op": "begin", "action": "patch",
        "gen": 3, "base": 2, "patch": None,
        "file_crc32": zlib.crc32(old_bytes),
        "prev_crc32": zlib.crc32(new_bytes),
    })
    torn_append(journal.log_path, fake, len(fake) // 2)
    recovered = BundleJournal.open(knds)
    states.append((
        "torn-tail", recovered.recovery, recovered.current_generation,
        bundle_bytes(),
    ))

    # Crash 2: intent fully recorded (BEGIN + gen file) but the bundle
    # rename never happened.  Forging the generation file directly is
    # the on-disk state a killed committer leaves behind.
    with open(recovered.generation_path(3), "wb") as fh:
        fh.write(old_bytes)
    fake = seal_record({
        "seq": len(recovered.records) + 1, "op": "begin", "action": "patch",
        "gen": 3, "base": 2, "patch": None,
        "file_crc32": zlib.crc32(old_bytes),
        "prev_crc32": zlib.crc32(new_bytes),
    })
    torn_append(recovered.log_path, fake, len(fake))
    recovered = BundleJournal.open(knds)
    states.append((
        "begin-no-commit", recovered.recovery,
        recovered.current_generation, bundle_bytes(),
    ))

    problems = []
    for label, _recovery, cur_gen, raw in states:
        if raw != old_bytes and raw != new_bytes:
            problems.append(f"{label}: bundle is a HYBRID")
        if raw != new_bytes:
            problems.append(f"{label}: committed generation lost")
        if cur_gen != 2:
            problems.append(f"{label}: generation {cur_gen} != 2")
    final = fsck_file(knds)
    if final.exit_code != 0:
        problems.append(f"final fsck exit {final.exit_code}")
    recoveries = [s[1] for s in states]
    if not problems and recoveries != ["clean", "rolled-back"]:
        problems.append(f"unexpected recovery path {recoveries}")
    assert not problems, "; ".join(problems)


def test_hung_run_times_out(drill, tmp_path):
    """One supervised debloat test hangs forever; the watchdog must kill
    it with verdict TIMEOUT, the campaign must quarantine it and finish,
    a replay must match, and a crash + resume must preserve the verdict."""
    program = get_program(PROGRAM)
    hang_at = 60
    # Enough iterations for hang (60), checkpoint (100), crash (>= 101);
    # capped so the per-call fork overhead keeps the drill quick.
    fuzz = replace(drill.fuzz, max_iter=min(drill.max_iter, 200))
    crash_call = max(101, min(drill.crash_at, fuzz.max_iter - 10))
    ckpt = str(tmp_path / "hang.ckpt.npz")
    resilience = ResilienceConfig(
        run_timeout_s=RUN_TIMEOUT_S,
        heartbeat_interval_s=HEARTBEAT_S,
        quarantine=True,
        checkpoint_path=ckpt,
        checkpoint_every=50,
    )

    def supervised_kondo() -> Kondo:
        return Kondo(program, DIMS, fuzz_config=fuzz, resilience=resilience)

    def hang_test(kondo: Kondo, run: int, crash=None):
        # Fresh fork-safe counter files per run so each run's injected
        # fault schedule restarts from call 1.
        counter = str(tmp_path / f"hang-run{run}.cnt")
        test = wrap_test(kondo, HangForever, hang_at, False, counter)
        if crash is not None:
            crashed = CrashAt(test, crash,
                              counter_path=str(tmp_path / f"crash-run{run}.cnt"))
            crashed.n_flat = test.n_flat
            test = crashed
        return test

    def quarantine_log(result):
        return [(q.v, q.iteration, q.error, q.verdict)
                for q in result.fuzz.quarantined]

    kondo = supervised_kondo()
    first = kondo.analyze(test=hang_test(kondo, 1))
    got = [(q.iteration, q.verdict) for q in first.fuzz.quarantined]
    assert got == [(hang_at, "TIMEOUT")], (
        f"expected one TIMEOUT quarantine at iteration {hang_at}, "
        f"got {got!r}")
    kondo = supervised_kondo()
    replay = kondo.analyze(test=hang_test(kondo, 2))
    assert _identical(replay, first) \
        and quarantine_log(replay) == quarantine_log(first), \
        "replay of the hung campaign diverged"
    kondo = supervised_kondo()
    try:
        kondo.analyze(test=hang_test(kondo, 3, crash=crash_call))
    except InjectedFault:
        pass
    else:
        pytest.fail(f"campaign survived a crash injected at call "
                    f"{crash_call}")
    # The hang fired before the crash checkpoint, so the resumed run
    # needs no injected faults — just the same supervised config.
    resumed = supervised_kondo().analyze(resume_from=ckpt)
    assert _identical(resumed, first) \
        and quarantine_log(resumed) == quarantine_log(first), (
            f"hang at call {hang_at} killed at {RUN_TIMEOUT_S}s wall "
            f"budget (verdict TIMEOUT), campaign completed; replay and "
            f"crash-at-{crash_call} resume DIVERGED")


def test_leaky_run_contained(drill, tmp_path):
    """One supervised debloat test leaks memory far past its headroom;
    the child's RLIMIT_AS must contain it (verdict OOM) and the parent
    campaign must quarantine it and complete unharmed."""
    hog_at = 60
    fuzz = replace(drill.fuzz, max_iter=min(drill.max_iter, 120))
    resilience = ResilienceConfig(
        run_timeout_s=10.0,  # safety net so a missed containment can't wedge
        run_memory_mb=RUN_MEMORY_MB,
        quarantine=True,
    )
    kondo = Kondo(get_program(PROGRAM), DIMS, fuzz_config=fuzz,
                  resilience=resilience)
    test = wrap_test(kondo, MemoryHog, hog_at, HOG_GROW_MB, 8,
                     str(tmp_path / "hog.cnt"))
    result = kondo.analyze(test=test)
    got = [(q.iteration, q.verdict) for q in result.fuzz.quarantined]
    assert got == [(hog_at, "OOM")], f"quarantine log {got!r}"


# -- service drills ----------------------------------------------------------


def _landed_once(store, job_id: str) -> list:
    """Problems with the job's fenced-store evidence of exactly one
    landed completion per unit (empty when it holds)."""
    audit = store.token_audit(job_id)
    problems = [] if audit["ok"] else [f"token audit failed: {audit}"]
    problems += [f"unit {s['shard']}: {s['landed_events']} landed "
                 f"completions" for s in audit["shards"]
                 if s["landed_events"] != 1]
    return problems


def _await_marker(marker: str, timeout_s: float = 15.0) -> bool:
    """Wait for a parked attempt's one-shot marker.

    The supervisor publishes a child's pid right after the fork, before
    the child runs; killing it before it claims the marker would move
    the park switch onto the retry, which would then stall to TIMEOUT.
    """
    deadline = time.monotonic() + timeout_s
    while not os.path.exists(marker):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _claim_once(marker: str) -> bool:
    """Fork-safe one-shot switch: True for the first caller only."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _service(state_dir: str, workers: int, shard_runner=None,
             hedge_after_s=None) -> KondoService:
    """A ``KondoService`` tuned for drill speed (fast ticks, real forks)."""
    return KondoService(
        state_dir,
        workers=workers,
        queue_limit=8,
        retry_policy=RetryPolicy(retries=2, backoff_s=0.05,
                                 backoff_factor=2.0, backoff_max_s=0.2,
                                 jitter="full"),
        lease_ttl_s=30.0,
        default_deadline_s=60.0,
        heartbeat_interval_s=0.05,
        shard_runner=shard_runner,
        hedge_after_s=hedge_after_s,
    ).start()


def _spec(drill, shards: int = 0, seed_offset: int = 0) -> JobSpec:
    return JobSpec(program=PROGRAM, dims=DIMS, seed=drill.seed + seed_offset,
                   max_iter=SERVE_ITER, shards=shards)


def test_worker_killed_mid_job_requeues(drill, tmp_path):
    """SIGKILL a leased worker's child mid-job; the daemon must record
    the SIGNALED failure, retry, and the retried attempt must produce a
    bit-identical result — with exactly one landed completion."""
    spec = _spec(drill)
    # Reference: the digest an uninterrupted run of this spec produces.
    reference = run_sharded_reference(spec)
    marker = str(tmp_path / "first-attempt.marker")

    def first_attempt_hangs(spec_json: dict, shard: int) -> dict:
        # The first attempt to claim the marker parks until the drill
        # SIGKILLs it; every later attempt runs the real campaign.
        if _claim_once(marker):
            time.sleep(120)  # parked: the drill kills this process
        return execute_shard(spec_json, shard)

    service = _service(str(tmp_path / "serve-kill"), workers=1,
                       shard_runner=first_attempt_hangs)
    try:
        client = ServiceClient(service.socket_path, timeout_s=5.0)
        job_id = client.submit(spec)["job"]
        # Find the supervised child executing attempt 1 (the daemon pins
        # its pid onto the attempt via the supervisor's on_spawn hook)
        # once it has claimed the park marker.
        child_pid = None
        deadline = time.monotonic() + 15.0
        while _await_marker(marker) and time.monotonic() < deadline:
            child_pid = client.status(job_id).get("child_pid")
            if child_pid:
                break
            time.sleep(0.05)
        assert child_pid, "attempt 1 never exposed a child pid"
        os.kill(child_pid, signal.SIGKILL)
        final = client.wait_for(job_id, timeout_s=120.0)
        problems = _landed_once(service.store, job_id)
        if final["state"] != "done":
            problems.append(f"final state {final['state']}")
        if final["verdicts"] != ["SIGNALED"]:
            problems.append(f"verdicts {final['verdicts']!r}")
        if final["result"] != reference:
            problems.append("retried result DIVERGED from uninterrupted run")
        assert not problems, "; ".join(problems)
    finally:
        service.drain()


def test_serve_crash_recovers_queue(drill, tmp_path):
    """Crash-stop a daemon with jobs accepted and tear a record it was
    writing; a restart must recover every accepted job exactly once."""
    state_dir = str(tmp_path / "serve-crash")
    specs = [_spec(drill, seed_offset=i) for i in range(3)]

    # Phase 1: accept-only daemon (no workers), then crash-stop it.
    service = _service(state_dir, workers=0)
    client = ServiceClient(service.socket_path, timeout_s=5.0)
    accepted = [client.submit(s)["job"] for s in specs]
    service.abort()  # crash: no drain

    # Tear a submission mid-write: half of a forged job's spec record,
    # the exact state a daemon killed inside the write leaves behind.
    forged_job = "deadbeefdeadbeef"
    forged_dir = os.path.join(state_dir, "jobs", forged_job)
    os.makedirs(forged_dir, exist_ok=True)
    forged = seal_record({"spec": specs[0].to_json()})
    torn_append(os.path.join(forged_dir, "spec.json"), forged,
                len(forged) // 2)

    # Phase 2: restart with a worker; the torn record must read as no
    # job at all, and every accepted job must finish exactly once.
    service = _service(state_dir, workers=1)
    problems = []
    try:
        recovered = {j for j in service.store.jobs()
                     if service.store.view(j) is not None}
        if recovered != set(accepted):
            problems.append(
                f"recovered job set {sorted(recovered)} != accepted "
                f"{sorted(accepted)} (torn record leaked or job lost)"
            )
        client = ServiceClient(service.socket_path, timeout_s=5.0)
        for job_id in accepted:
            final = client.wait_for(job_id, timeout_s=180.0)
            if final["state"] != "done":
                problems.append(f"job {job_id}: {final['state']}")
        for job_id in accepted:
            problems += [f"job {job_id}: {p}"
                         for p in _landed_once(service.store, job_id)]
    finally:
        service.drain()
    if service.store.view(forged_job) is not None:
        problems.append("the torn spec record was recovered as a job")
    assert not problems, "; ".join(problems)


def test_shard_worker_killed_requeues_only_lost_shards(drill, tmp_path):
    """SIGKILL one shard of a sharded campaign mid-attempt; the daemon
    must retry only that shard, and the merged result must be
    bit-identical to the no-fault sharded reference."""
    spec = _spec(drill, shards=4)
    reference = run_sharded_reference(spec)
    marker = str(tmp_path / "first-shard-attempt.marker")

    def first_shard_attempt_hangs(spec_json: dict, shard: int) -> dict:
        # The first shard attempt to claim the marker parks until the
        # drill SIGKILLs it; every later attempt (including the retry of
        # the killed shard) runs real.
        if _claim_once(marker):
            time.sleep(120)  # parked: the drill kills this process
        return execute_shard(spec_json, shard)

    # One worker: shard 0's primary parks first, the rest queue behind
    # it — so exactly one shard is ever lost to the kill.
    service = _service(str(tmp_path / "serve-shard-kill"), workers=1,
                       shard_runner=first_shard_attempt_hangs)
    try:
        client = ServiceClient(service.socket_path, timeout_s=5.0)
        job_id = client.submit(spec)["job"]
        # Find the parked shard's supervised child.  Wait for the
        # marker first: killing the child before it claims the marker
        # would silently move the park switch onto the *next* shard's
        # attempt, which would then stall to a TIMEOUT instead.
        killed_shard = child_pid = None
        deadline = time.monotonic() + 15.0
        while _await_marker(marker) and time.monotonic() < deadline:
            shards = client.status(job_id).get("shards", [])
            live = [(s["shard"], s["child_pid"]) for s in shards
                    if s.get("child_pid")]
            if live:
                killed_shard, child_pid = live[0]
                break
            time.sleep(0.05)
        assert child_pid, "no shard ever exposed a child pid"
        os.kill(child_pid, signal.SIGKILL)
        final = client.wait_for(job_id, timeout_s=180.0)
        problems = _landed_once(service.store, job_id)
        if final["state"] != "done":
            problems.append(f"final state {final['state']}")
        if final["result"] != reference:
            problems.append("merged result DIVERGED from no-fault run")
        for entry in final.get("shards", []):
            idx = entry["shard"]
            if idx == killed_shard:
                if entry["verdicts"] != ["SIGNALED"]:
                    problems.append(
                        f"killed shard verdicts {entry['verdicts']!r}")
            elif entry["verdicts"]:
                problems.append(
                    f"untouched shard {idx} was retried: "
                    f"{entry['verdicts']!r}")
        assert not problems, "; ".join(problems)
    finally:
        service.drain()


def test_straggler_hedge_first_completion_wins(drill, tmp_path):
    """Park one shard's primary attempt as a straggler; a free worker
    must race a speculative duplicate, the duplicate must win, the
    fenced loser must be killed without burning the retry budget, and
    the merged result must be bit-identical to the no-fault run."""
    spec = _spec(drill, shards=2)
    reference = run_sharded_reference(spec)
    marker = str(tmp_path / "straggler.marker")

    def shard0_primary_straggles(spec_json: dict, shard: int) -> dict:
        # Only shard 0's *first* attempt parks; its hedged duplicate
        # (and every other shard) runs the real campaign.
        if shard == 0 and _claim_once(marker):
            time.sleep(120)  # parked straggler; revocation kills us
        return execute_shard(spec_json, shard)

    # Two workers so the hedge can run while the straggler is parked.
    service = _service(str(tmp_path / "serve-hedge"), workers=2,
                       shard_runner=shard0_primary_straggles,
                       hedge_after_s=0.3)
    try:
        client = ServiceClient(service.socket_path, timeout_s=5.0)
        job_id = client.submit(spec)["job"]
        final = client.wait_for(job_id, timeout_s=180.0)
        problems = []
        if final["state"] != "done":
            problems.append(f"final state {final['state']}")
        if final["result"] != reference:
            problems.append("merged result DIVERGED from no-fault run")
        hedged = any(e.get("op") == "hedge" and e.get("job") == job_id
                     and e.get("shard") == 0
                     for e in service.store.fenced_events())
        if not hedged:
            problems.append("no hedge event was ever recorded")
        problems += [f"{p} (first-completion-wins violated)"
                     for p in _landed_once(service.store, job_id)]
        shard0 = next((s for s in final.get("shards", [])
                       if s["shard"] == 0), None)
        if shard0 is None:
            problems.append("shard 0 missing from the final status")
        elif shard0["verdicts"]:
            problems.append(
                f"revoked straggler burned the retry budget: "
                f"{shard0['verdicts']!r}")
        assert not problems, "; ".join(problems)
    finally:
        service.drain()


def test_fleet_partition_heals(drill, tmp_path):
    """Partition one of two fleet daemons away from the shared store; it
    must degrade to typed read-only mode while the survivor completes
    the campaign bit-identically, then heal, rejoin under a bumped
    epoch, and serve the finished result."""
    shared = str(tmp_path / "fleet-shared")
    spec = _spec(drill, shards=2)
    reference = run_sharded_reference(spec)

    gate = PartitionGate()
    fast = RetryPolicy(retries=2, backoff_s=0.02, backoff_factor=2.0,
                       backoff_max_s=0.2, jitter="full")
    alpha = KondoService(str(tmp_path / "fleet-a"), shared_dir=shared,
                         worker="drill-alpha", heartbeat_interval_s=0.05,
                         retry_policy=fast).start()
    beta = KondoService(str(tmp_path / "fleet-b"), shared_dir=shared,
                        worker="drill-beta", heartbeat_interval_s=0.05,
                        retry_policy=fast, fault_gate=gate).start()
    try:
        problems = []
        gate.begin()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not beta.partitioned:
            time.sleep(0.02)
        assert beta.partitioned, "beta never noticed the partition"
        beta_client = ServiceClient(beta.socket_path, timeout_s=5.0)
        try:
            beta_client.submit(spec)
            problems.append("partitioned daemon accepted a submission")
        except FleetPartitionedError:
            pass
        if not beta_client.status().get("partitioned"):
            problems.append("partitioned status not rendered degraded")
        alpha_client = ServiceClient(alpha.socket_path, timeout_s=5.0)
        job_id = alpha_client.submit(spec)["job"]
        final = alpha_client.wait_for(job_id, timeout_s=180.0)
        if final["state"] != "done":
            problems.append(f"survivor finished as {final['state']}")
        elif final["result"]["carved_sha256"] != reference["carved_sha256"]:
            problems.append("survivor result DIVERGED from reference")
        gate.heal()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and beta.partitioned:
            time.sleep(0.02)
        if beta.partitioned:
            problems.append("beta never rejoined after the heal")
        elif beta.store.epoch < 2:
            problems.append(
                f"rejoin kept epoch {beta.store.epoch}; expected a bump")
        else:
            healed = beta_client.status(job_id)
            if healed.get("state") != "done":
                problems.append(
                    f"rejoined daemon serves state {healed.get('state')!r}")
        audit = alpha.store.token_audit(job_id)
        if not audit["ok"]:
            problems.append(f"token audit failed: {audit['shards']}")
        assert not problems, "; ".join(problems)
    finally:
        alpha.drain()
        gate.heal()
        beta.drain()


def test_stale_worker_fenced_out(drill, tmp_path):
    """Pause a fleet worker past its lease, let a peer reclaim and finish
    its shard under a higher fencing token, then have the stale worker
    publish: the write must be rejected whole, with one completion per
    shard and the reference digest."""
    shared = str(tmp_path / "fleet-fencing")
    spec = _spec(drill, shards=2)
    reference = run_sharded_reference(spec)

    # Deterministic stores on one hand-cranked clock: "pausing" the
    # stale worker is just advancing time past its lease while only the
    # healthy peer keeps heartbeating.
    clock = FakeClock()
    stale = FleetStore(shared, "drill-stale", clock,
                       registry=WorkerRegistry(shared, clock, ttl_s=2.0),
                       lease_ttl_s=2.0)
    peer = FleetStore(shared, "drill-peer", clock,
                      registry=WorkerRegistry(shared, clock, ttl_s=2.0),
                      lease_ttl_s=2.0)
    stale.enlist()
    peer.enlist()
    stale.submit(spec)
    job = spec.key
    problems = []
    paused = stale.claim_shard(job)  # shard 0, token 1 — then "pauses"
    clock.advance(60.0)
    peer.heartbeat()
    reclaimed = peer.claim_shard(job)
    assert reclaimed is not None and reclaimed.shard == paused.shard \
        and reclaimed.token > paused.token, (
            f"peer failed to reclaim the paused shard ({reclaimed!r})")
    peer.publish_done(reclaimed,
                      execute_shard(spec.to_json(), reclaimed.shard))
    other = peer.claim_shard(job)
    peer.publish_done(other, execute_shard(spec.to_json(), other.shard))
    # The stale worker wakes up and tries to publish its completion.
    try:
        stale.publish_done(paused, execute_shard(spec.to_json(),
                                                 paused.shard))
        problems.append("stale-token completion was ACCEPTED")
    except StaleTokenError as exc:
        if exc.token >= exc.current:
            problems.append(f"fencing rejected a non-stale token: {exc}")
    merged = merge_shard_results(spec, peer.shards_done(job))
    if merged["carved_sha256"] != reference["carved_sha256"]:
        problems.append("merged result DIVERGED from reference")
    audit = peer.token_audit(job)
    if not audit["ok"]:
        problems.append(f"token audit failed: {audit['shards']}")
    assert not problems, "; ".join(problems)
