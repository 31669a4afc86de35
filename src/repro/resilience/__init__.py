"""Opt-in resilience layer: fault injection, self-healing, crash tolerance.

A single frozen config block —
:class:`ResilienceConfig`, carried by
:class:`~repro.fuzzing.config.FuzzConfig` — switches every behaviour on,
and the defaults are all *off*, which keeps the pipeline bit-identical to
the seed.  Four pillars:

* :mod:`repro.resilience.faults` — composable fault injectors (corrupt
  bytes, flaky/hanging fetchers, hung and leaky runs, mid-campaign
  crashes)
  used by the chaos test suite and the ``kondo chaos`` subcommand.
* :mod:`repro.resilience.retry` — retry with exponential backoff,
  deadlines, and a circuit breaker for the remote-fetch path.
* :mod:`repro.resilience.healing` — the self-healing runtime: retries the
  remote fetcher, falls back to a local full-file source when the breaker
  opens, and accumulates misses into a subset patch.
* :mod:`repro.resilience.checkpoint` — atomic fuzz-campaign checkpoints
  for ``kondo analyze --resume``.
* :mod:`repro.resilience.durability` — durable bundles: the journaled
  patch/rollback lifecycle (:class:`BundleJournal`), ``kondo fsck``
  deep verification, and span-granular ``kondo repair``.
* :mod:`repro.resilience.supervision` — supervised execution: any
  debloat-test run in a watched, resource-limited child process with a
  typed :class:`RunVerdict` (TIMEOUT / OOM / SIGNALED / NONZERO /
  LOST-HEARTBEAT) flowing into quarantine and checkpoints.
"""

from repro.resilience.checkpoint import (
    load_campaign_state,
    save_campaign_state,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.durability import (
    BundleJournal,
    FsckReport,
    RepairReport,
    fsck_file,
    repair_bundle,
)
from repro.resilience.faults import (
    ChaosMonkey,
    CrashAt,
    FlakyCallable,
    HangForever,
    MemoryHog,
    corrupt_file,
    torn_append,
    torn_write,
)
from repro.resilience.healing import ResilientRuntime, SubsetPatch
from repro.resilience.retry import (
    CircuitBreaker,
    RetryPolicy,
    retry_call,
)
from repro.resilience.supervision import (
    RunVerdict,
    SupervisedResult,
    Supervisor,
    supervisor_from_config,
)

__all__ = [
    "BundleJournal",
    "ChaosMonkey",
    "CircuitBreaker",
    "CrashAt",
    "FlakyCallable",
    "FsckReport",
    "HangForever",
    "MemoryHog",
    "RepairReport",
    "ResilienceConfig",
    "ResilientRuntime",
    "RetryPolicy",
    "RunVerdict",
    "SubsetPatch",
    "SupervisedResult",
    "Supervisor",
    "corrupt_file",
    "fsck_file",
    "load_campaign_state",
    "repair_bundle",
    "retry_call",
    "save_campaign_state",
    "supervisor_from_config",
    "torn_append",
    "torn_write",
]
