"""The campaign store: fenced leases over a (possibly shared) directory.

Every ``kondo serve`` daemon keeps its state in a store directory — its
own state directory for a fleet of one, or one shared directory that
any number of ``--fleet <dir>`` daemons cooperate through, with no
leader and no peer connections.  The protocol is three ideas stacked:

* **fencing tokens** (:mod:`.store`): shard ownership is a
  monotonically increasing token claimed by exclusive create; every
  write is token-stamped and stale tokens are rejected whole, so a
  worker back from the dead can never clobber a newer owner's result;
* an **epoch-numbered registry** (:mod:`.registry`): heartbeat expiry
  lets survivors reclaim a vanished host's shards, and re-registration
  bumps the epoch to fence out the old incarnation's in-flight writes;
* **two kinds of time** (:mod:`.clock`): monotonic for host-local
  intervals, wall + bounded skew allowance for anything compared
  across hosts.

The merged campaign result is bit-identical for every fleet size,
crash, partition, and hedge outcome — fencing protects the bookkeeping,
deterministic unit execution protects the output.
"""

from repro.service.fleet.clock import (
    DEFAULT_SKEW_ALLOWANCE_S,
    ClockSource,
    FakeClock,
    SkewedClock,
)
from repro.service.fleet.fencing import (
    append_sealed,
    create_sealed_exclusive,
    publish_sealed,
    read_sealed,
    stamp,
)
from repro.service.fleet.registry import WorkerRecord, WorkerRegistry
from repro.service.fleet.store import FleetStore, ShardClaim

__all__ = [
    "DEFAULT_SKEW_ALLOWANCE_S",
    "ClockSource",
    "FakeClock",
    "SkewedClock",
    "FleetStore",
    "ShardClaim",
    "WorkerRecord",
    "WorkerRegistry",
    "append_sealed",
    "create_sealed_exclusive",
    "publish_sealed",
    "read_sealed",
    "stamp",
]
