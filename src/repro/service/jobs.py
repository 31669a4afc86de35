"""Job specs, content-addressed keys, and the job state machine.

A debloat job is Kondo's (program, Θ, D) triple (paper Section IV): the
program under audit, the fuzz-campaign configuration Θ, and the data
identity D.  Jobs are *content-addressed* — :attr:`JobSpec.key` hashes
the canonical JSON of all three — so a repeat submission of the same
triple dedupes to the already-queued job or the cached completed result
instead of re-fuzzing.  That key is also the job id the CLI shows.

State machine (every state is derived from records in the campaign
store, :mod:`repro.service.fleet.store`)::

    submit           claim            done record
    ───────► QUEUED ───────► LEASED ───────────► DONE
               ▲                │ failure record (attempts <= retries)
               │                ▼
               └────── (retried after backoff)
               │                │ failure record (budget exhausted)
    cancel     ▼                ▼
          CANCELLED           DEAD

A job is a set of units, the shards of its plan
(:func:`repro.service.shards.plan_shards`): an unsharded job is one
unit, a sharded job (``spec.shards > 0``) one unit per shard, each
running the machine above — so a crashed worker requeues *only its lost
shards*.  A sharded job is ``RUNNING`` once any shard was claimed.
Sealing ends it: the merged units' result makes it ``DONE``, a merge with
some shards dead-lettered makes it ``PARTIAL`` (with a missing-Θ
manifest), all units dead make it ``DEAD``.  ``DONE``/``PARTIAL``/
``DEAD``/``CANCELLED`` are terminal and final: a resubmission of the
key serves the sealed state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import JobRejectedError
from repro.resilience.retry import RetryPolicy

#: Job lifecycle states (record-derived; see the module docstring).
QUEUED = "queued"
LEASED = "leased"
RUNNING = "running"
DONE = "done"
PARTIAL = "partial"
DEAD = "dead"
CANCELLED = "cancelled"

STATES = (QUEUED, LEASED, RUNNING, DONE, PARTIAL, DEAD, CANCELLED)

#: States from which no further transition is possible.
TERMINAL_STATES = (DONE, PARTIAL, DEAD, CANCELLED)

#: Upper bound on the requested shard count (spec validation).
MAX_SHARDS = 64


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require_int(name: str, value) -> int:
    """``value`` as a plain int; bools, floats and strings are rejected
    rather than coerced, so a malformed spec never aliases a real one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise JobRejectedError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_seconds(name: str, value) -> None:
    if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise JobRejectedError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One debloat job: the (program, Θ, D) triple plus run limits.

    Attributes:
        program: workload name (``kondo programs``).
        dims: array shape of ``D``.
        seed: campaign RNG seed (part of Θ — it fixes the fuzz schedule).
        max_iter: fuzz iteration budget override (``None`` = config
            default; part of Θ).
        budget_s: campaign wall-clock budget (part of Θ: it can stop the
            campaign early, so two budgets are two different campaigns).
        carver: ``"merge"`` or ``"simple"`` (part of Θ).
        shards: shard the campaign into this many leasable units
            (``0`` = unsharded: one unit running one campaign under
            ``seed`` with the whole budget, which is what
            ``Kondo.analyze`` runs for this Θ).  *Whether* a job
            is sharded is part of Θ (the sharded decomposition is a
            different campaign), but the shard *count* is not: the
            slice set is count-invariant, so every N produces the
            bit-identical merged result and shares one cache entry.
        data_sha256: content hash of a real data file when one rides
            along (the D identity); ``None`` means the synthetic array
            the dims describe.
        deadline_s: wall-clock budget for one execution *attempt*,
            propagated into the supervised child's run timeout.  ``None``
            uses the daemon default.
    """

    program: str
    dims: Tuple[int, ...]
    seed: int = 0
    max_iter: Optional[int] = None
    budget_s: Optional[float] = None
    carver: str = "merge"
    shards: int = 0
    data_sha256: Optional[str] = None
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if not self.program:
            raise JobRejectedError("job spec needs a program name")
        if not isinstance(self.dims, (list, tuple)):
            raise JobRejectedError(f"dims must be a list, got {self.dims!r}")
        dims = tuple(_require_int("dims", d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise JobRejectedError(f"bad dims {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "seed", _require_int("seed", self.seed))
        if self.max_iter is not None:
            object.__setattr__(self, "max_iter",
                               _require_int("max_iter", self.max_iter))
        object.__setattr__(self, "shards", _require_int("shards", self.shards))
        _require_seconds("budget_s", self.budget_s)
        _require_seconds("deadline_s", self.deadline_s)
        if self.carver not in ("merge", "simple"):
            raise JobRejectedError(f"unknown carver {self.carver!r}")
        if self.max_iter is not None and self.max_iter <= 0:
            raise JobRejectedError(f"max_iter must be > 0, got {self.max_iter}")
        if self.budget_s is not None and self.budget_s <= 0:
            raise JobRejectedError(f"budget_s must be > 0, got {self.budget_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise JobRejectedError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if not 0 <= self.shards <= MAX_SHARDS:
            raise JobRejectedError(
                f"shards must be in [0, {MAX_SHARDS}], got {self.shards}"
            )

    # -- content addressing -------------------------------------------------

    @property
    def theta(self) -> dict:
        """The Θ identity: everything that can change campaign output.

        ``sharded`` joins Θ only when set: the sharded slice
        decomposition is a different campaign than the single-schedule
        run, but the shard *count* is output-invariant, so it stays out
        — and unsharded specs keep their pre-sharding keys.
        """
        theta = {
            "seed": self.seed,
            "max_iter": self.max_iter,
            "budget_s": self.budget_s,
            "carver": self.carver,
        }
        if self.shards:
            theta["sharded"] = True
        return theta

    @property
    def theta_hash(self) -> str:
        return hashlib.sha256(_canonical(self.theta).encode()).hexdigest()

    @property
    def data_hash(self) -> str:
        """The D identity: explicit content hash, or the synthetic dims."""
        d = self.data_sha256 or {"synthetic_dims": list(self.dims)}
        return hashlib.sha256(_canonical(d).encode()).hexdigest()

    @property
    def key(self) -> str:
        """Content-addressed job id over (program, Θ-hash, D-hash)."""
        triple = _canonical(
            [self.program, self.theta_hash, self.data_hash]
        )
        return hashlib.sha256(triple.encode()).hexdigest()[:16]

    # -- wire form ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "dims": list(self.dims),
            "seed": self.seed,
            "max_iter": self.max_iter,
            "budget_s": self.budget_s,
            "carver": self.carver,
            "shards": self.shards,
            "data_sha256": self.data_sha256,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JobSpec":
        if not isinstance(obj, dict):
            raise JobRejectedError(f"job spec must be an object, got {obj!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise JobRejectedError(
                f"unknown job spec field(s) {sorted(unknown)}"
            )
        if "program" not in obj or "dims" not in obj:
            raise JobRejectedError("job spec needs 'program' and 'dims'")
        try:
            return cls(**obj)
        except (TypeError, ValueError) as exc:
            raise JobRejectedError(f"malformed job spec: {exc}") from exc


@dataclass
class ShardView:
    """Derived state of one unit (one shard, or an unsharded job's one
    unit)."""

    index: int
    state: str = QUEUED
    attempts: int = 0
    verdicts: List[str] = field(default_factory=list)
    result: Optional[dict] = None
    #: The fencing token of the lease (or completion), and its holder.
    token: Optional[int] = None
    worker: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "shard": self.index,
            "state": self.state,
            "attempts": self.attempts,
            "verdicts": list(self.verdicts),
            "n_indices": (self.result or {}).get("n_indices"),
            "token": self.token,
            "worker": self.worker,
        }


@dataclass
class JobView:
    """Derived state of one job and its units."""

    spec: JobSpec
    state: str = QUEUED
    attempts: int = 0
    verdicts: List[str] = field(default_factory=list)
    result: Optional[dict] = None
    #: Per-unit state, keyed by unit index.
    shards: Dict[int, ShardView] = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        return self.spec.key

    def to_json(self) -> dict:
        out = {
            "job": self.job_id,
            "program": self.spec.program,
            "dims": list(self.spec.dims),
            "state": self.state,
            "attempts": self.attempts,
            "verdicts": list(self.verdicts),
            "result": self.result,
            "n_shards": len(self.shards),
            "shards_done": sum(1 for sv in self.shards.values()
                               if sv.state == DONE),
        }
        if self.spec.shards:
            out["shards"] = [self.shards[i].to_json()
                             for i in sorted(self.shards)]
        return out


def backoff_delay_s(policy: RetryPolicy, job_id: str, attempt: int) -> float:
    """The requeue delay before retry ``attempt`` (1-based) of a job.

    The jitter RNG is seeded from (job id, attempt), so every retry
    schedule is replay-deterministic per job yet decorrelated across the
    fleet — two dead workers never thunder back in lockstep.
    """
    if attempt < 1:
        return 0.0
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    delays = list(policy.delays(rng=rng))
    if not delays:
        return 0.0
    return delays[min(attempt, len(delays)) - 1]
