"""Supervised execution: process-isolated runs with watchdogs and rlimits.

The missing tier of the resilience layer: retries, breakers, quarantine,
checkpoints, and durable bundles all assume every debloat-test execution
*terminates*.  This package removes that assumption — any fuzz/audit/
debloat-test call can run in a forked child with POSIX rlimits, a
heartbeat pipe, a wall-clock watchdog, and a graceful-then-forceful kill
escalation (SIGTERM → grace → SIGKILL).  Each run closes with a typed
:class:`RunVerdict` that flows into the campaign quarantine list and
checkpoints.

All knobs default to *off* (``ResilienceConfig``): a pipeline without
``run_timeout_s`` / ``run_memory_mb`` / ``heartbeat_interval_s`` set
never forks and behaves byte-for-byte like the seed.
"""

from repro.resilience.supervision.limits import (
    FSIZE_LIMIT_BYTES,
    apply_child_limits,
    current_address_space_bytes,
)
from repro.resilience.supervision.runner import (
    MISSED_BEATS,
    SupervisedCall,
    Supervisor,
    supervisor_from_config,
    suppress_heartbeat,
)
from repro.resilience.supervision.verdict import RunVerdict, SupervisedResult

__all__ = [
    "FSIZE_LIMIT_BYTES",
    "MISSED_BEATS",
    "RunVerdict",
    "SupervisedCall",
    "SupervisedResult",
    "Supervisor",
    "apply_child_limits",
    "current_address_space_bytes",
    "supervisor_from_config",
    "suppress_heartbeat",
]
