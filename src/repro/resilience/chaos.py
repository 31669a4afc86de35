"""End-to-end chaos drills: run the pipeline with faults armed, verify
the resilience layer heals every one of them.

Fourteen drills, one per failure class the resilience layer covers:

1. **crash-resume** — the campaign is crashed at a chosen iteration and
   resumed from its checkpoint; observed and carved offsets must be
   bit-identical to the uninterrupted run.
2. **flaky-fetch** — a deliberately-undersized subset is executed with a
   remote fetcher failing at the configured rate; retry + breaker +
   local fallback must serve every read.
3. **heal** — the misses from drill 2 are re-carved into the subset; a
   re-run of the healed subset must have zero misses.
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

Used by ``kondo chaos`` and the ``pytest -m chaos`` suite.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.datafile import ArrayFile
from repro.arraymodel.debloated import DebloatedArrayFile
from repro.arraymodel.schema import ArraySchema
from repro.core.pipeline import Kondo
from repro.errors import FileFormatError, InjectedFault, KondoError
from repro.fuzzing.config import FuzzConfig
from repro.resilience.config import ResilienceConfig
from repro.resilience.durability.fsck import fsck_file
from repro.resilience.durability.journal import BundleJournal, _seal_record
from repro.resilience.durability.repair import repair_bundle
from repro.resilience.faults import (
    CrashAt,
    FlakyCallable,
    HangForever,
    MemoryHog,
    corrupt_file,
    torn_append,
)
from repro.resilience.healing import ResilientRuntime
from repro.workloads import default_dims, get_program


#: Every drill ``run_chaos`` executes, in execution order (the
#: ``kondo chaos --list`` output and the e2e suite's expected set).
DRILL_NAMES = (
    "crash-resume",
    "flaky-fetch",
    "heal",
    "corrupt-artifact",
    "corrupt-span-degrades",
    "torn-patch-recovers",
    "hung-run-times-out",
    "leaky-run-contained",
    "worker-killed-mid-job-requeues",
    "serve-crash-recovers-queue",
    "shard-worker-killed-requeues-only-lost-shards",
    "straggler-hedge-first-completion-wins",
    "fleet-partition-heals",
    "stale-worker-fenced-out",
)

#: Wall budget for one supervised run in the hang drill (seconds).
_DRILL_RUN_TIMEOUT_S = 0.75
#: Heartbeat period for the hang drill's supervised children (seconds).
_DRILL_HEARTBEAT_S = 0.05
#: Address-space headroom for the leak drill's supervised runs (MiB).
_DRILL_RUN_MEMORY_MB = 128
#: How far past the headroom the injected leak tries to grow (MiB).
_DRILL_HOG_GROW_MB = 512


@dataclass
class ChaosCheck:
    """Outcome of one chaos drill."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport:
    """All drill outcomes for one ``kondo chaos`` invocation."""

    program: str
    dims: Tuple[int, ...]
    checks: List[ChaosCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def format(self) -> str:
        lines = [f"chaos drills for {self.program} {self.dims}:"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name:16s} {c.detail}")
        verdict = "survived all injected faults" if self.passed else \
            "FAILED under injected faults"
        lines.append(f"result: {verdict}")
        return "\n".join(lines)


def _wrap_test(kondo: Kondo, wrapper, *args):
    """Wrap the pipeline's debloat test, preserving its ``n_flat``."""
    test = kondo.make_test()
    wrapped = wrapper(test, *args)
    wrapped.n_flat = test.n_flat
    return wrapped


def run_chaos(
    program_name: str,
    dims: Optional[Sequence[int]] = None,
    seed: int = 0,
    max_iter: int = 400,
    fetch_fail_rate: float = 0.5,
    crash_at: int = 150,
    keep_fraction: float = 0.5,
    workdir: Optional[str] = None,
) -> ChaosReport:
    """Run every chaos drill; return the per-drill report.

    Args:
        program_name: workload under test (e.g. ``"CS"``).
        dims: array shape (program default when omitted).
        seed: campaign RNG seed — drills compare against the fault-free
            run on the *same* seed.
        max_iter: campaign iteration budget (keeps drills fast).
        fetch_fail_rate: injected remote-fetch failure probability.
        crash_at: debloat-test call at which the campaign is crashed.
        keep_fraction: fraction of the carved subset shipped in the
            flaky-fetch drill (``< 1`` guarantees observable misses).
        workdir: scratch directory (a temp dir is created when omitted).
    """
    program = get_program(program_name)
    dims = tuple(dims) if dims else default_dims(program)
    fuzz = FuzzConfig(rng_seed=seed, max_iter=max_iter)
    own_workdir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="kondo-chaos-")
    report = ChaosReport(program=program.name, dims=dims)
    try:
        # Fault-free reference run (serial, no resilience).
        baseline = Kondo(program, dims, fuzz_config=fuzz).analyze()

        report.checks.append(
            _drill_crash_resume(program, dims, fuzz, baseline, crash_at,
                                workdir)
        )
        flaky_check, heal_check = _drill_flaky_fetch_and_heal(
            program, dims, baseline, fetch_fail_rate, keep_fraction,
            seed, workdir,
        )
        report.checks.append(flaky_check)
        report.checks.append(heal_check)
        report.checks.append(_drill_corrupt_artifacts(dims, workdir))
        report.checks.append(_drill_corrupt_span_degrades(dims, seed, workdir))
        report.checks.append(_drill_torn_patch_recovers(dims, seed, workdir))
        report.checks.append(
            _drill_hung_run_times_out(program, dims, fuzz, crash_at, workdir)
        )
        report.checks.append(
            _drill_leaky_run_contained(program, dims, fuzz, workdir)
        )
        report.checks.append(
            _drill_worker_killed_mid_job(program, dims, seed, workdir)
        )
        report.checks.append(
            _drill_serve_crash_recovers(program, dims, seed, workdir)
        )
        report.checks.append(
            _drill_shard_worker_killed(program, dims, seed, workdir)
        )
        report.checks.append(
            _drill_straggler_hedge(program, dims, seed, workdir)
        )
        report.checks.append(
            _drill_fleet_partition_heals(program, dims, seed, workdir)
        )
        report.checks.append(
            _drill_stale_worker_fenced_out(program, dims, seed, workdir)
        )
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report


def _identical(result, baseline) -> bool:
    return (
        np.array_equal(result.observed_flat, baseline.observed_flat)
        and np.array_equal(result.carved_flat, baseline.carved_flat)
    )


def _drill_crash_resume(program, dims, fuzz, baseline, crash_at: int,
                        workdir: str) -> ChaosCheck:
    ckpt = os.path.join(workdir, "campaign.ckpt.npz")
    resilience = ResilienceConfig(
        checkpoint_path=ckpt, checkpoint_every=max(1, crash_at // 4)
    )
    kondo = Kondo(program, dims, fuzz_config=fuzz, resilience=resilience)
    test = _wrap_test(kondo, CrashAt, crash_at)
    try:
        kondo.analyze(test=test)
        return ChaosCheck(
            "crash-resume", False,
            f"campaign survived a crash injected at call {crash_at}",
        )
    except InjectedFault:
        pass
    if not os.path.exists(ckpt):
        return ChaosCheck("crash-resume", False, "no checkpoint written")
    fresh = Kondo(program, dims, fuzz_config=fuzz, resilience=resilience)
    try:
        result = fresh.analyze(resume_from=ckpt)
    except KondoError as exc:
        return ChaosCheck("crash-resume", False, f"resume failed: {exc}")
    ok = _identical(result, baseline)
    return ChaosCheck(
        "crash-resume", ok,
        f"crashed at call {crash_at}, resumed from checkpoint, "
        f"output {'identical to' if ok else 'DIVERGED from'} fault-free run",
    )


def _drill_flaky_fetch_and_heal(program, dims, baseline, fail_rate: float,
                                keep_fraction: float, seed: int,
                                workdir: str):
    knd = os.path.join(workdir, "chaos.knd")
    knds = os.path.join(workdir, "chaos.knds")
    healed = os.path.join(workdir, "healed.knds")
    data = np.random.default_rng(seed).standard_normal(dims)
    source = ArrayFile.create(knd, ArraySchema(dims, "f8"), data)
    # Ship an undersized subset so the drill observes real misses.
    carved = baseline.carved_flat
    kept = carved[: max(1, int(carved.size * keep_fraction))]
    subset = DebloatedArrayFile.create(knds, source, keep_flat_indices=kept)
    fetcher = FlakyCallable(source.read_point, fail_rate=fail_rate, seed=seed)
    config = ResilienceConfig(
        fetch_retries=3, fetch_backoff_s=0.0, breaker_threshold=5,
        breaker_reset_s=60.0,
    )
    runtime = ResilientRuntime(
        subset, remote_fetcher=fetcher, fallback_source=source,
        config=config, sleep=lambda _s: None,
    )
    useful = [s.v for s in baseline.fuzz.seeds if s.useful]
    vs = useful[: min(5, len(useful))]
    try:
        for v in vs:
            program.run(runtime.read, v, dims)
    except KondoError as exc:
        source.close()
        subset.close()
        return (
            ChaosCheck("flaky-fetch", False, f"runtime died on a miss: {exc}"),
            ChaosCheck("heal", False, "skipped (flaky-fetch drill failed)"),
        )
    stats = runtime.stats
    served = stats.hits + stats.remote_fetches + stats.fallback_reads
    ok = stats.reads > 0 and served == stats.reads and stats.misses > 0
    flaky = ChaosCheck(
        "flaky-fetch", ok,
        f"{stats.reads} reads, {stats.misses} misses, "
        f"{stats.remote_fetches} fetched ({fetcher.failures} injected "
        f"failures), {stats.fallback_reads} from local fallback",
    )
    # Heal: fold the observed misses back into the shipped subset.
    runtime.heal(healed, source)
    subset.close()
    with DebloatedArrayFile.open(healed) as patched:
        rerun = ResilientRuntime(patched, record_misses=False)
        for v in vs:
            program.run(rerun.read, v, dims)
        heal_ok = rerun.stats.misses == 0 and rerun.stats.reads > 0
        heal = ChaosCheck(
            "heal", heal_ok,
            f"patched subset ({stats.misses} misses re-carved): "
            f"{rerun.stats.reads} reads, {rerun.stats.misses} misses on re-run",
        )
    source.close()
    return flaky, heal


def _drill_corrupt_artifacts(dims, workdir: str) -> ChaosCheck:
    knd = os.path.join(workdir, "corrupt.knd")
    knds = os.path.join(workdir, "corrupt.knds")
    data = np.arange(int(np.prod(dims)), dtype="f8").reshape(dims)
    source = ArrayFile.create(knd, ArraySchema(dims, "f8"), data)
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
        # kondo: allow[KND003] the drill's whole point: any exception
        # other than FileFormatError is recorded as a leak and fails
        # the chaos report — the failure is the data here
        except Exception as exc:  # noqa: BLE001
            outcomes.append(
                f"{os.path.basename(broken)}: leaked {type(exc).__name__}"
            )
    ok = not outcomes
    detail = ("4/4 corruptions detected as FileFormatError" if ok
              else "; ".join(outcomes))
    return ChaosCheck("corrupt-artifact", ok, detail)


def _drill_corrupt_span_degrades(dims, seed: int, workdir: str) -> ChaosCheck:
    """Bit-rot a journaled bundle; degrade-mode reads must stay
    bit-correct via the miss path, and repair must restore clean fsck."""
    name = "corrupt-span-degrades"
    knd = os.path.join(workdir, "bitrot.knd")
    knds = os.path.join(workdir, "bitrot.knds")
    grid = (32, 32)
    data = np.random.default_rng(seed).standard_normal(grid)
    with ArrayFile.create(knd, ArraySchema(grid, "f8"), data) as source:
        with DebloatedArrayFile.create(
            knds, source, keep_extents=[(0, grid[1] * 16 * 8)]
        ):
            pass
    kept = [(i, j) for i in range(16) for j in range(grid[1])]
    BundleJournal.open(knds)  # adopt generation 1 before the damage
    corrupt_file(knds, mode="bitrot", seed=seed, sites=4)
    before = fsck_file(knds, check_journal=False)
    if before.exit_code == 0:
        return ChaosCheck(name, False, "bitrot left fsck clean (no damage?)")
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
        if wrong or stats.misses == 0 or stats.fallback_reads != stats.misses:
            return ChaosCheck(
                name, False,
                f"degraded reads: {wrong} wrong value(s), "
                f"{stats.misses} misses, {stats.fallback_reads} fallbacks",
            )
        degraded_reads = (stats.misses, len(kept))
    rep = repair_bundle(knds, knd)
    after = fsck_file(knds, check_journal=False)
    with DebloatedArrayFile.open(knds) as sub:
        wrong = sum(1 for ix in kept if sub.read_point(ix) != float(data[ix]))
    ok = after.exit_code == 0 and rep.after_exit == 0 and wrong == 0
    how = (
        f"{len(before.bad_spans)} corrupt span(s), "
        + (f"{degraded_reads[0]}/{degraded_reads[1]} reads degraded to "
           f"fallback, " if degraded_reads else "header hit, ")
        + (f"repaired via snapshot" if rep.restored_from_snapshot
           else f"{rep.bytes_fetched}B re-fetched")
        + f", fsck exit {after.exit_code}"
    )
    return ChaosCheck(name, ok, how)


def _drill_hung_run_times_out(program, dims, fuzz, crash_at: int,
                              workdir: str) -> ChaosCheck:
    """One supervised debloat test hangs forever; the watchdog must kill
    it with verdict TIMEOUT, the campaign must quarantine it and finish,
    a replay must match, and a crash + resume must preserve the verdict."""
    from dataclasses import replace

    name = "hung-run-times-out"
    hang_at = 60
    # Enough iterations for hang (60), checkpoint (100), crash (>= 101);
    # capped so the per-call fork overhead keeps the drill quick.
    fuzz = replace(fuzz, max_iter=min(fuzz.max_iter, 200))
    crash_call = max(101, min(crash_at, fuzz.max_iter - 10))
    ckpt = os.path.join(workdir, "hang.ckpt.npz")
    resilience = ResilienceConfig(
        run_timeout_s=_DRILL_RUN_TIMEOUT_S,
        heartbeat_interval_s=_DRILL_HEARTBEAT_S,
        quarantine=True,
        checkpoint_path=ckpt,
        checkpoint_every=50,
    )

    def supervised_kondo() -> Kondo:
        return Kondo(program, dims, fuzz_config=fuzz, resilience=resilience)

    def hang_test(kondo: Kondo, run: int, crash: Optional[int] = None):
        # Fresh fork-safe counter files per run so each run's injected
        # fault schedule restarts from call 1.
        counter = os.path.join(workdir, f"hang-run{run}.cnt")
        test = _wrap_test(
            kondo, HangForever, hang_at, False, counter
        )
        if crash is not None:
            crashed = CrashAt(
                test, crash,
                counter_path=os.path.join(workdir, f"crash-run{run}.cnt"),
            )
            crashed.n_flat = test.n_flat
            test = crashed
        return test

    def quarantine_log(result):
        return [
            (q.v, q.iteration, q.error, q.verdict)
            for q in result.fuzz.quarantined
        ]

    kondo = supervised_kondo()
    try:
        first = kondo.analyze(test=hang_test(kondo, 1))
    except KondoError as exc:
        return ChaosCheck(name, False, f"campaign died: {exc}")
    got = [(q.iteration, q.verdict) for q in first.fuzz.quarantined]
    if got != [(hang_at, "TIMEOUT")]:
        return ChaosCheck(
            name, False,
            f"expected one TIMEOUT quarantine at iteration {hang_at}, "
            f"got {got!r}",
        )
    kondo = supervised_kondo()
    replay = kondo.analyze(test=hang_test(kondo, 2))
    if not (_identical(replay, first)
            and quarantine_log(replay) == quarantine_log(first)):
        return ChaosCheck(
            name, False, "replay of the hung campaign diverged"
        )
    kondo = supervised_kondo()
    try:
        kondo.analyze(test=hang_test(kondo, 3, crash=crash_call))
        return ChaosCheck(
            name, False,
            f"campaign survived a crash injected at call {crash_call}",
        )
    except InjectedFault:
        pass
    fresh = supervised_kondo()
    try:
        # The hang fired before the crash checkpoint, so the resumed run
        # needs no injected faults — just the same supervised config.
        resumed = fresh.analyze(resume_from=ckpt)
    except KondoError as exc:
        return ChaosCheck(name, False, f"resume failed: {exc}")
    ok = (_identical(resumed, first)
          and quarantine_log(resumed) == quarantine_log(first))
    return ChaosCheck(
        name, ok,
        f"hang at call {hang_at} killed at {_DRILL_RUN_TIMEOUT_S}s wall "
        f"budget (verdict TIMEOUT), campaign completed; replay and "
        f"crash-at-{crash_call} resume "
        + ("identical, verdict preserved" if ok else "DIVERGED"),
    )


def _drill_leaky_run_contained(program, dims, fuzz,
                               workdir: str) -> ChaosCheck:
    """One supervised debloat test leaks memory far past its headroom;
    the child's RLIMIT_AS must contain it (verdict OOM) and the parent
    campaign must quarantine it and complete unharmed."""
    from dataclasses import replace

    name = "leaky-run-contained"
    hog_at = 60
    fuzz = replace(fuzz, max_iter=min(fuzz.max_iter, 120))
    resilience = ResilienceConfig(
        run_timeout_s=10.0,  # safety net so a missed containment can't wedge
        run_memory_mb=_DRILL_RUN_MEMORY_MB,
        quarantine=True,
    )
    kondo = Kondo(program, dims, fuzz_config=fuzz, resilience=resilience)
    counter = os.path.join(workdir, "hog.cnt")
    test = _wrap_test(
        kondo, MemoryHog, hog_at, _DRILL_HOG_GROW_MB, 8, counter
    )
    try:
        result = kondo.analyze(test=test)
    except KondoError as exc:
        return ChaosCheck(name, False, f"campaign died: {exc}")
    got = [(q.iteration, q.verdict) for q in result.fuzz.quarantined]
    ok = got == [(hog_at, "OOM")]
    detail = (
        f"{_DRILL_HOG_GROW_MB} MiB leak at call {hog_at} contained by "
        f"{_DRILL_RUN_MEMORY_MB} MiB headroom (verdict OOM); campaign "
        f"completed its {result.fuzz.iterations} iterations"
        if ok else f"quarantine log {got!r}"
    )
    return ChaosCheck(name, ok, detail)


def _drill_torn_patch_recovers(dims, seed: int, workdir: str) -> ChaosCheck:
    """Heal through the journal, then inject two mid-commit crash
    states; recovery must leave the bundle at a committed generation."""
    import zlib

    name = "torn-patch-recovers"
    knd = os.path.join(workdir, "torn.knd")
    knds = os.path.join(workdir, "torn.knds")
    grid = (16, 16)
    data = np.random.default_rng(seed + 1).standard_normal(grid)
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
            misses = runtime.stats.misses
            gen = runtime.heal_in_place(source)
    new_bytes = bundle_bytes()
    if gen != 2 or new_bytes == old_bytes:
        return ChaosCheck(name, False, f"journaled heal did not commit "
                                       f"a new generation (gen={gen})")
    journal = BundleJournal.open(knds)
    states = []

    # Crash 1: a half-written trailing record (killed mid-append).
    fake = _seal_record({
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
    # rename never happened.
    # kondo: allow[KND002] crash simulation: the drill forges the exact
    # on-disk state a killed committer leaves behind
    # kondo: allow[KND007] same — bypassing the journal API is the fault
    with open(recovered.generation_path(3), "wb") as fh:
        fh.write(old_bytes)
    fake = _seal_record({
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
    for label, recovery, cur_gen, raw in states:
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
    ok = not problems and recoveries == ["clean", "rolled-back"]
    if not problems and not ok:
        problems.append(f"unexpected recovery path {recoveries}")
    detail = ("; ".join(problems) if problems else
              f"{misses} misses healed as gen 2; torn tail discarded and "
              f"begin-without-commit rolled back, bundle never hybrid")
    return ChaosCheck(name, ok, detail)


#: Iteration budget for the service drills' campaigns — small enough to
#: keep each attempt to a couple of seconds, deterministic per seed.
_SERVE_DRILL_ITER = 40


def _landed_once(service, job_id: str) -> List[str]:
    """Problems with the job's fenced-store evidence of exactly one
    landed completion per unit (empty when it holds)."""
    audit = service.store.token_audit(job_id)
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
    import time

    deadline = time.monotonic() + timeout_s
    while not os.path.exists(marker):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def _serve_drill_service(state_dir: str, workers: int, shard_runner=None,
                         hedge_after_s=None):
    """A ``KondoService`` tuned for drill speed (fast ticks, real forks)."""
    from repro.resilience.retry import RetryPolicy
    from repro.service import KondoService

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
        supervised=True,
        shard_runner=shard_runner,
        hedge_after_s=hedge_after_s,
    ).start()


def _drill_worker_killed_mid_job(program, dims, seed: int,
                                 workdir: str) -> ChaosCheck:
    """SIGKILL a leased worker's child mid-job; the daemon must record
    the SIGNALED failure, retry, and the retried attempt must produce a
    bit-identical result — with exactly one landed completion."""
    import signal
    import time

    from repro.service import JobSpec, ServiceClient, run_sharded_reference
    from repro.service.shards import execute_shard

    name = "worker-killed-mid-job-requeues"
    state_dir = os.path.join(workdir, "serve-kill")
    spec = JobSpec(program=program.name, dims=dims, seed=seed,
                   max_iter=_SERVE_DRILL_ITER)
    # Reference: the digest an uninterrupted run of this spec produces.
    reference = run_sharded_reference(spec)

    marker = os.path.join(workdir, "first-attempt.marker")

    def first_attempt_hangs(spec_json: dict, shard: int) -> dict:
        # Fork-safe one-shot switch: the first attempt to claim the
        # marker parks until the drill SIGKILLs it; every later attempt
        # runs the real campaign.
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return execute_shard(spec_json, shard)
        time.sleep(120)  # parked: the drill kills this process
        return execute_shard(spec_json, shard)

    service = _serve_drill_service(state_dir, workers=1,
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
        if not child_pid:
            return ChaosCheck(name, False,
                              "attempt 1 never exposed a child pid")
        os.kill(child_pid, signal.SIGKILL)
        final = client.wait_for(job_id, timeout_s=120.0)
        problems = _landed_once(service, job_id)
        if final["state"] != "done":
            problems.append(f"final state {final['state']}")
        if final["verdicts"] != ["SIGNALED"]:
            problems.append(f"verdicts {final['verdicts']!r}")
        if final["result"] != reference:
            problems.append("retried result DIVERGED from uninterrupted run")
        ok = not problems
        detail = ("; ".join(problems) if problems else
                  f"child {child_pid} SIGKILLed mid-job: SIGNALED failure "
                  f"recorded, job retried, retry digest identical, "
                  f"exactly one landed completion")
        return ChaosCheck(name, ok, detail)
    finally:
        service.drain()


def _drill_serve_crash_recovers(program, dims, seed: int,
                                workdir: str) -> ChaosCheck:
    """Crash-stop a daemon with jobs accepted and tear a record it was
    writing; a restart must recover every accepted job exactly once."""
    from repro.service import JobSpec, ServiceClient

    name = "serve-crash-recovers-queue"
    state_dir = os.path.join(workdir, "serve-crash")
    specs = [JobSpec(program=program.name, dims=dims, seed=seed + i,
                     max_iter=_SERVE_DRILL_ITER) for i in range(3)]

    # Phase 1: accept-only daemon (no workers), then crash-stop it.
    service = _serve_drill_service(state_dir, workers=0)
    client = ServiceClient(service.socket_path, timeout_s=5.0)
    accepted = [client.submit(s)["job"] for s in specs]
    service.abort()  # crash: no drain

    # Tear a submission mid-write: half of a forged job's spec record,
    # the exact state a daemon killed inside the write leaves behind.
    forged_job = "deadbeefdeadbeef"
    forged_dir = os.path.join(state_dir, "jobs", forged_job)
    os.makedirs(forged_dir, exist_ok=True)
    forged = _seal_record({"spec": specs[0].to_json()})
    torn_append(os.path.join(forged_dir, "spec.json"), forged,
                len(forged) // 2)

    # Phase 2: restart with a worker; the torn record must read as no
    # job at all, and every accepted job must finish exactly once.
    service = _serve_drill_service(state_dir, workers=1)
    try:
        problems = []
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
                         for p in _landed_once(service, job_id)]
    finally:
        service.drain()
    if service.store.view(forged_job) is not None:
        problems.append("the torn spec record was recovered as a job")
    ok = not problems
    detail = ("; ".join(problems) if problems else
              f"{len(accepted)} accepted jobs survived the crash + a torn "
              f"spec record; each completed exactly once after restart, "
              f"the torn record read as absent")
    return ChaosCheck(name, ok, detail)


def _drill_shard_worker_killed(program, dims, seed: int,
                               workdir: str) -> ChaosCheck:
    """SIGKILL one shard of a sharded campaign mid-attempt; the daemon
    must retry only that shard, and the merged result must be
    bit-identical to the no-fault sharded reference."""
    import signal
    import time

    from repro.service import JobSpec, ServiceClient, run_sharded_reference
    from repro.service.shards import execute_shard

    name = "shard-worker-killed-requeues-only-lost-shards"
    state_dir = os.path.join(workdir, "serve-shard-kill")
    spec = JobSpec(program=program.name, dims=dims, seed=seed,
                   max_iter=_SERVE_DRILL_ITER, shards=4)
    reference = run_sharded_reference(spec)

    marker = os.path.join(workdir, "first-shard-attempt.marker")

    def first_shard_attempt_hangs(spec_json: dict, shard: int) -> dict:
        # Fork-safe one-shot switch: the first shard attempt to claim
        # the marker parks until the drill SIGKILLs it; every later
        # attempt (including the retry of the killed shard) runs real.
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return execute_shard(spec_json, shard)
        time.sleep(120)  # parked: the drill kills this process
        return execute_shard(spec_json, shard)

    # One worker: shard 0's primary parks first, the rest queue behind
    # it — so exactly one shard is ever lost to the kill.
    service = _serve_drill_service(state_dir, workers=1,
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
        if not child_pid:
            return ChaosCheck(name, False,
                              "no shard ever exposed a child pid")
        os.kill(child_pid, signal.SIGKILL)
        final = client.wait_for(job_id, timeout_s=180.0)
        problems = _landed_once(service, job_id)
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
        ok = not problems
        detail = ("; ".join(problems) if problems else
                  f"shard {killed_shard} (child {child_pid}) SIGKILLed: "
                  f"only that shard retried, merge bit-identical to the "
                  f"no-fault sharded reference, one landed completion "
                  f"per shard")
        return ChaosCheck(name, ok, detail)
    finally:
        service.drain()


def _drill_straggler_hedge(program, dims, seed: int,
                           workdir: str) -> ChaosCheck:
    """Park one shard's primary attempt as a straggler; a free worker
    must race a speculative duplicate, the duplicate must win, the
    fenced loser must be killed without burning the retry budget, and
    the merged result must be bit-identical to the no-fault run."""
    import time

    from repro.service import JobSpec, ServiceClient, run_sharded_reference
    from repro.service.shards import execute_shard

    name = "straggler-hedge-first-completion-wins"
    state_dir = os.path.join(workdir, "serve-hedge")
    spec = JobSpec(program=program.name, dims=dims, seed=seed,
                   max_iter=_SERVE_DRILL_ITER, shards=2)
    reference = run_sharded_reference(spec)

    marker = os.path.join(workdir, "straggler.marker")

    def shard0_primary_straggles(spec_json: dict, shard: int) -> dict:
        # Only shard 0's *first* attempt parks; its hedged duplicate
        # (and every other shard) runs the real campaign.
        if shard == 0:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                time.sleep(120)  # parked straggler; revocation kills us
            except FileExistsError:
                pass
        return execute_shard(spec_json, shard)

    # Two workers so the hedge can run while the straggler is parked.
    service = _serve_drill_service(state_dir, workers=2,
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
                     for p in _landed_once(service, job_id)]
        shard0 = next((s for s in final.get("shards", [])
                       if s["shard"] == 0), None)
        if shard0 is None:
            problems.append("shard 0 missing from the final status")
        elif shard0["verdicts"]:
            problems.append(
                f"revoked straggler burned the retry budget: "
                f"{shard0['verdicts']!r}")
        ok = not problems
        detail = ("; ".join(problems) if problems else
                  "straggler hedged, duplicate completed first, fenced "
                  "loser killed without burning retries, merge "
                  "bit-identical to the no-fault run")
        return ChaosCheck(name, ok, detail)
    finally:
        service.drain()


def _drill_fleet_partition_heals(program, dims, seed: int,
                                 workdir: str) -> ChaosCheck:
    """Partition one of two fleet daemons away from the shared store; it
    must degrade to typed read-only mode while the survivor completes
    the campaign bit-identically, then heal, rejoin under a bumped
    epoch, and serve the finished result."""
    import time

    from repro.errors import FleetPartitionedError
    from repro.resilience.faults import PartitionGate
    from repro.resilience.retry import RetryPolicy
    from repro.service import (
        JobSpec,
        KondoService,
        ServiceClient,
        run_sharded_reference,
    )

    name = "fleet-partition-heals"
    shared = os.path.join(workdir, "fleet-shared")
    spec = JobSpec(program=program.name, dims=dims, seed=seed,
                   max_iter=_SERVE_DRILL_ITER, shards=2)
    reference = run_sharded_reference(spec)

    gate = PartitionGate()
    fast = RetryPolicy(retries=2, backoff_s=0.02, backoff_factor=2.0,
                       backoff_max_s=0.2, jitter="full")
    alpha = KondoService(os.path.join(workdir, "fleet-a"),
                         shared_dir=shared, worker="drill-alpha",
                         heartbeat_interval_s=0.05,
                         retry_policy=fast).start()
    beta = KondoService(os.path.join(workdir, "fleet-b"),
                        shared_dir=shared, worker="drill-beta",
                        heartbeat_interval_s=0.05, retry_policy=fast,
                        fault_gate=gate).start()
    try:
        problems = []
        gate.begin()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not beta.partitioned:
            time.sleep(0.02)
        if not beta.partitioned:
            return ChaosCheck(name, False,
                              "beta never noticed the partition")
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
        ok = not problems
        detail = ("; ".join(problems) if problems else
                  "partitioned daemon degraded to typed read-only mode, "
                  "survivor completed bit-identically, heal rejoined "
                  "under a bumped epoch with a clean token audit")
        return ChaosCheck(name, ok, detail)
    finally:
        alpha.drain()
        gate.heal()
        beta.drain()


def _drill_stale_worker_fenced_out(program, dims, seed: int,
                                   workdir: str) -> ChaosCheck:
    """Pause a fleet worker past its lease, let a peer reclaim and finish
    its shard under a higher fencing token, then have the stale worker
    publish: the write must be rejected whole, with one completion per
    shard and the reference digest."""
    from repro.errors import StaleTokenError
    from repro.service import JobSpec, run_sharded_reference
    from repro.service.fleet import FakeClock, FleetStore, WorkerRegistry
    from repro.service.shards import execute_shard, merge_shard_results

    name = "stale-worker-fenced-out"
    shared = os.path.join(workdir, "fleet-fencing")
    spec = JobSpec(program=program.name, dims=dims, seed=seed,
                   max_iter=_SERVE_DRILL_ITER, shards=2)
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
    if reclaimed is None or reclaimed.shard != paused.shard \
            or reclaimed.token <= paused.token:
        return ChaosCheck(name, False,
                          f"peer failed to reclaim the paused shard "
                          f"({reclaimed!r})")
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
    done = peer.shards_done(job)
    merged = merge_shard_results(spec, done)
    if merged["carved_sha256"] != reference["carved_sha256"]:
        problems.append("merged result DIVERGED from reference")
    audit = peer.token_audit(job)
    if not audit["ok"]:
        problems.append(f"token audit failed: {audit['shards']}")
    ok = not problems
    detail = ("; ".join(problems) if problems else
              "paused worker's stale-token publish rejected whole; peer's "
              "completions stand, merge bit-identical, token audit clean")
    return ChaosCheck(name, ok, detail)
