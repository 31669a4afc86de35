"""``kondo serve`` — the fault-tolerant debloat campaign service.

One daemon (:class:`KondoService`) accepts debloat jobs over a
unix-socket API.  ``kondo serve STATE_DIR`` is a fleet of one whose
store is ``STATE_DIR``; ``--fleet SHARED_DIR`` points the same daemon
at a store any number of daemons share.  The store
(:mod:`repro.service.fleet.store`) holds every job as CRC-sealed,
token-stamped records — spec, fencing-token claims and leases, failure
and dead-letter records, cancels, completions and the outcome — and
every state is derived from those records, so an accepted job survives
any crash and a restart reclaims its dead incarnation's work at once.

A job runs as units, the shards of its plan: one per shard of a
sharded campaign (``--shards N``, seed-keyed slices merged
bit-identically to any other shard count), or one shard holding the
whole campaign for an unsharded job.  Every unit only fuzzes; the job
seals by merging its units' clouds and carving once.  Units run in
supervised children with a per-unit retry budget, seeded backoff and typed dead
letters; a job with dead shards completes as an explicitly-marked
PARTIAL result with its missing-Θ manifest.  Admission control answers
overload with ``REJECTED-BUSY``, stragglers get claim-on-completion
hedges, ``follow`` streams progress, a partitioned daemon degrades to
typed read-only mode, and ``audit`` proves per job that every unit
completed exactly once.  See DESIGN.md "Campaign service".
"""

from repro.service.client import ServiceClient
from repro.service.daemon import KondoService
from repro.service.fleet import (
    ClockSource,
    FakeClock,
    FleetStore,
    ShardClaim,
    SkewedClock,
    WorkerRegistry,
)
from repro.service.jobs import JobSpec, JobView, ShardView, backoff_delay_s
from repro.service.shards import (
    ShardPlan,
    ShardSlice,
    execute_shard,
    merge_shard_results,
    missing_theta_manifest,
    plan_shards,
    result_digest,
    run_sharded_reference,
)

__all__ = [
    "ClockSource",
    "FakeClock",
    "FleetStore",
    "JobSpec",
    "JobView",
    "KondoService",
    "ShardClaim",
    "SkewedClock",
    "WorkerRegistry",
    "ServiceClient",
    "ShardPlan",
    "ShardSlice",
    "ShardView",
    "backoff_delay_s",
    "execute_shard",
    "merge_shard_results",
    "missing_theta_manifest",
    "plan_shards",
    "result_digest",
    "run_sharded_reference",
]
