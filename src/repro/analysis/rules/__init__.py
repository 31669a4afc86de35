"""The Kondo rule catalog — importing this package registers every rule.

Rule IDs are stable and append-only; a retired ID is never reused
(``KND005`` executor-purity went with the campaign executor pool):

* ``KND001`` determinism — no global RNG / unseeded ``default_rng`` /
  wall-clock timestamps in replay-critical packages.
* ``KND002`` atomic-write — no raw writable ``open()`` outside
  ``repro.ioutil``.
* ``KND003`` error-taxonomy — broad ``except`` must re-raise or feed
  the failure-recording path.
* ``KND004`` layering — imports follow the architecture DAG.
* ``KND006`` resource-hygiene — file handles in ``audit``/``arraymodel``
  are closed.
* ``KND007`` durable-writes — KND/KNDS/patch/journal artifacts mutate
  only through the durability journal API or
  ``repro.ioutil.atomic_write``.
* ``KND008`` bounded-waits — blocking calls (``sleep``/``join``/
  ``wait``/``poll``/``recv``) in ``resilience``/``perf`` carry an
  explicit timeout or deadline.
* ``KND009`` vectorized-audit — no per-element Python loops in the
  ``blockcapture``/``flatstore`` hot paths; iteration lives only in
  allow-listed cold-path helpers.
* ``KND010`` bounded-service — ``repro.service`` queues carry a
  ``maxsize`` and its ``get``/``accept``/``recv`` calls carry a
  timeout (directly or via ``settimeout`` in the same function).
* ``KND011`` lock-order — the project-wide acquired-while-holding
  graph stays acyclic (potential-deadlock detection, interprocedural).
* ``KND012`` blocking-under-lock — no fsync/recv/subprocess/sleep/
  journal-append reachable while an ``audit``/``service``/
  ``resilience`` lock is held.
* ``KND013`` fork-safety — ``os.fork`` is never reachable with a lock
  held, and no thread is created before a fork in one function body.
* ``KND014`` shard-merge-determinism — shard planners read no global
  RNG or wall clock, and merge loops fold shard results in sorted
  order, never dict-completion order.
* ``KND015`` fenced-store-writes — ``repro.service`` modules write
  the campaign store only through the token-stamping fencing helpers, never via raw ``atomic_write``/``durable_append``/
  ``os.open``/``open``.

(``KND000`` is reserved for framework diagnostics.)
"""

from repro.analysis.rules.knd001_determinism import DeterminismRule
from repro.analysis.rules.knd002_atomic_write import AtomicWriteRule
from repro.analysis.rules.knd003_error_taxonomy import ErrorTaxonomyRule
from repro.analysis.rules.knd004_layering import LAYERS, LayeringRule
from repro.analysis.rules.knd006_resource_hygiene import ResourceHygieneRule
from repro.analysis.rules.knd007_durable_writes import DurableWritesRule
from repro.analysis.rules.knd008_bounded_waits import BoundedWaitsRule
from repro.analysis.rules.knd009_vectorized_audit import VectorizedAuditRule
from repro.analysis.rules.knd010_bounded_service import BoundedServiceRule
from repro.analysis.rules.knd011_lock_order import LockOrderRule
from repro.analysis.rules.knd012_blocking_under_lock import (
    BlockingUnderLockRule,
)
from repro.analysis.rules.knd013_fork_safety import ForkSafetyRule
from repro.analysis.rules.knd014_shard_merge import ShardMergeRule
from repro.analysis.rules.knd015_fenced_store import FencedStoreRule

__all__ = [
    "LAYERS",
    "AtomicWriteRule",
    "BlockingUnderLockRule",
    "BoundedServiceRule",
    "BoundedWaitsRule",
    "DeterminismRule",
    "DurableWritesRule",
    "ErrorTaxonomyRule",
    "FencedStoreRule",
    "ForkSafetyRule",
    "LayeringRule",
    "LockOrderRule",
    "ResourceHygieneRule",
    "ShardMergeRule",
    "VectorizedAuditRule",
]
