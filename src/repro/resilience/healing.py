"""The self-healing user-side runtime.

Extends :class:`~repro.arraymodel.runtime.KondoRuntime` (paper Section
III / Section VI) with production miss-handling:

* the remote fetcher is retried with exponential backoff under a
  deadline (transient network failures),
* a circuit breaker stops calling a persistently-failing fetcher
  (:class:`~repro.resilience.retry.CircuitBreaker`), and while it is
  open — or when fetching keeps failing — reads **fall back to a local
  full-file source** (the un-debloated KND file, the related-work
  "lazy on-miss recovery" strategy),
* every miss is accumulated into a :class:`SubsetPatch`;
  :meth:`ResilientRuntime.heal` re-carves the shipped subset (to a new
  path) with the observed misses folded in, and
  :meth:`ResilientRuntime.heal_in_place` goes further: it emits an
  append-only delta patch holding *only* the missed bytes and commits
  it through the durability journal's intent → fsync → commit
  protocol, so a crash mid-heal can never destroy the only copy of
  ``D_Theta`` — the bundle is always exactly the old or exactly the
  new generation, and ``kondo rollback`` can restore either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.arraymodel.datafile import ArrayFile
from repro.arraymodel.debloated import DebloatedArrayFile
from repro.arraymodel.layout import sorted_unique
from repro.arraymodel.runtime import KondoRuntime, RemoteFetcher, RuntimeStats
from repro.errors import DataMissingError, FetchError
from repro.resilience.config import NO_RESILIENCE, ResilienceConfig
from repro.resilience.retry import CircuitBreaker, RetryPolicy, retry_call


@dataclass
class HealingStats(RuntimeStats):
    """Runtime counters plus the self-healing layer's own accounting."""

    fetch_failures: int = 0
    fetch_retries: int = 0
    fallback_reads: int = 0
    breaker_rejections: int = 0


@dataclass
class SubsetPatch:
    """The misses a runtime observed, ready to re-carve into the subset."""

    missed_indices: List[Tuple[int, ...]] = field(default_factory=list)

    def flat_offsets(self, layout) -> np.ndarray:
        """Unique source payload byte offsets of the missed elements."""
        if not self.missed_indices:
            return np.empty(0, dtype=np.int64)
        offs = np.asarray(
            [layout.offset_of(i) for i in self.missed_indices], dtype=np.int64
        )
        return sorted_unique(offs)

    def extents(self, layout, itemsize: int) -> List[Tuple[int, int]]:
        """Missed elements as ``(offset, size)`` source byte extents."""
        return [(int(o), itemsize) for o in self.flat_offsets(layout)]

    @property
    def n_missed(self) -> int:
        return len(self.missed_indices)


class ResilientRuntime(KondoRuntime):
    """A :class:`KondoRuntime` whose miss path survives real-world failure.

    Args:
        subset: the shipped ``D_Theta`` (KNDS file).
        remote_fetcher: the Section-VI remote pull callback (optional).
        fallback_source: a local full KND file used when the fetcher is
            unavailable, exhausted, or circuit-broken (optional).
        config: resilience knobs (retry/backoff/deadline/breaker).
        record_misses: keep per-index miss history (feeds :meth:`heal`).
        clock / sleep: injectable time sources so tests never wait.
    """

    def __init__(
        self,
        subset: DebloatedArrayFile,
        remote_fetcher: Optional[RemoteFetcher] = None,
        fallback_source: Optional[ArrayFile] = None,
        config: ResilienceConfig = NO_RESILIENCE,
        record_misses: bool = True,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(subset, remote_fetcher, record_misses)
        self.config = config
        self.fallback_source = fallback_source
        self.policy = RetryPolicy.from_config(config)
        self.breaker = CircuitBreaker(
            config.breaker_threshold, config.breaker_reset_s, clock
        )
        self._clock = clock
        self._sleep = sleep
        self.stats = HealingStats()

    # -- the resilient miss path -------------------------------------------

    def _recover(self, index: Tuple[int, ...],
                 miss: DataMissingError) -> float:
        """Serve a Null access: retried fetch, then local fallback."""
        fetch_error: Optional[BaseException] = None
        if self.remote_fetcher is not None:
            if self.breaker.allow():
                try:
                    value = retry_call(
                        lambda: self.remote_fetcher(index),
                        self.policy,
                        clock=self._clock,
                        sleep=self._sleep,
                    )
                    self.breaker.record_success()
                    self.stats.remote_fetches += 1
                    return value
                except Exception as exc:
                    self.breaker.record_failure()
                    self.stats.fetch_failures += 1
                    fetch_error = exc
            else:
                self.stats.breaker_rejections += 1
        if self.fallback_source is not None:
            self.stats.fallback_reads += 1
            return float(self.fallback_source.read_point(index))
        if fetch_error is not None:
            raise FetchError(
                f"remote fetch for index {index} failed and no fallback "
                f"source is configured"
            ) from fetch_error
        raise miss

    # -- subset patching ----------------------------------------------------

    def build_patch(self) -> SubsetPatch:
        """The misses observed so far, as a re-carvable patch."""
        return SubsetPatch(missed_indices=list(self.stats.missed_indices))

    def heal(self, out_path: str, source: ArrayFile) -> DebloatedArrayFile:
        """Write a patched KNDS: the shipped extents plus every miss.

        The new subset is carved from ``source`` so the healed file's
        bytes come from the authoritative full file, and every index the
        runtime missed becomes a hit for future executions.
        """
        patch = self.build_patch()
        keep = list(self.subset.extents) + patch.extents(
            source.layout, source.schema.itemsize
        )
        return DebloatedArrayFile.create(out_path, source, keep_extents=keep)

    def build_delta_patch(self, source: ArrayFile) -> "PatchFile":
        """The observed misses as a durable delta patch.

        Unlike :meth:`heal`'s full re-carve, the patch carries *only*
        the missed bytes (fetched once from ``source``), so healing a
        gigabyte bundle after a handful of misses writes kilobytes.
        """
        from repro.resilience.durability.journal import build_patch
        from repro.arraymodel.debloated import merge_extents

        patch = self.build_patch()
        extents = merge_extents(
            patch.extents(source.layout, source.schema.itemsize)
        )
        return build_patch([
            (start, size, source.read_extent(start, size))
            for start, size in extents
        ])

    def heal_in_place(self, source: ArrayFile,
                      keep_generations: Optional[int] = None) -> int:
        """Journaled heal: commit the observed misses into the shipped
        subset itself, crash-safely.

        The delta patch is persisted in the bundle's journal directory,
        the patched generation is written through the journal's
        intent → fsync → commit protocol, and the pre-heal generation
        remains available to ``kondo rollback``.  Returns the new
        generation number (the current one when there is nothing to
        heal).  The in-memory ``self.subset`` still reads the pre-heal
        bytes (its file handle holds the old inode); reopen the path to
        see the healed generation.
        """
        from repro.resilience.durability.journal import BundleJournal

        if keep_generations is None:
            keep_generations = self.config.keep_generations
        journal = BundleJournal.open(
            self.subset.path, keep_generations=keep_generations
        )
        delta = self.build_delta_patch(source)
        if delta.nbytes == 0:
            return journal.current_generation
        return journal.commit_patch(delta, action="patch")
