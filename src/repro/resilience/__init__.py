"""Opt-in resilience layer: self-healing, crash tolerance, supervision.

A single frozen config block —
:class:`ResilienceConfig`, carried by
:class:`~repro.fuzzing.config.FuzzConfig` — switches every behaviour on,
and the defaults are all *off*, which keeps the pipeline bit-identical to
the seed.  The fault injectors that prove it (``pytest -m chaos``) live
with the drills in ``tests/chaos/``, not here.  The pillars:

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
    "CircuitBreaker",
    "FsckReport",
    "RepairReport",
    "ResilienceConfig",
    "ResilientRuntime",
    "RetryPolicy",
    "RunVerdict",
    "SubsetPatch",
    "SupervisedResult",
    "Supervisor",
    "fsck_file",
    "load_campaign_state",
    "repair_bundle",
    "retry_call",
    "save_campaign_state",
    "supervisor_from_config",
]
