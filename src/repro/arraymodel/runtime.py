"""Kondo's user-side run-time system.

Section III: "At the user's end, the debloating is reversed suitably by
Kondo's run-time system and ``D_Theta`` recreated, which ensures that the
execution on ``D_Theta`` results in exactly the same program states as
execution on ``D``.  If an access happens to an offset v such that
``D_Theta(v)`` is Null ... the run-time throws a 'data missing' exception."

Section VI adds the future-work hook this module also implements: "a
container runtime can use audited information to pull missing data offsets
from a remote server, when requested."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

from repro.arraymodel.debloated import DebloatedArrayFile
from repro.errors import DataMissingError

#: A remote fetch callback: given a d-dim index, return the value (or raise).
RemoteFetcher = Callable[[Tuple[int, ...]], float]


@dataclass
class RuntimeStats:
    """Counters the run-time keeps while serving an execution."""

    reads: int = 0
    hits: int = 0
    misses: int = 0
    remote_fetches: int = 0
    missed_indices: list = field(default_factory=list)

    @property
    def miss_rate(self) -> float:
        """Fraction of reads that hit a Null region."""
        return self.misses / self.reads if self.reads else 0.0


class KondoRuntime:
    """Serves array reads from a debloated subset, with miss handling.

    Args:
        subset: the shipped :class:`DebloatedArrayFile` (``D_Theta``).
        remote_fetcher: optional callback used to satisfy Null accesses
            (the Section VI "pull missing data offsets from a remote
            server" strategy).  Without it, Null accesses raise
            :class:`DataMissingError`.
        record_misses: keep the list of missed indices in :attr:`stats`
            (useful for experiments measuring user impact).
    """

    def __init__(
        self,
        subset: DebloatedArrayFile,
        remote_fetcher: Optional[RemoteFetcher] = None,
        record_misses: bool = True,
    ):
        self.subset = subset
        self.remote_fetcher = remote_fetcher
        self.record_misses = record_misses
        self.stats = RuntimeStats()

    def read(self, index: Sequence[int]) -> float:
        """Read one element, transparently recovering from Null if possible."""
        index = tuple(int(i) for i in index)
        self.stats.reads += 1
        try:
            value = self.subset.read_point(index)
            self.stats.hits += 1
            return value
        except DataMissingError as miss:
            self.stats.misses += 1
            if self.record_misses:
                self.stats.missed_indices.append(index)
            return self._recover(index, miss)

    def _recover(self, index: Tuple[int, ...],
                 miss: DataMissingError) -> float:
        """Serve a Null access: the remote fetch, or re-raise ``miss``."""
        if self.remote_fetcher is None:
            raise miss
        self.stats.remote_fetches += 1
        return self.remote_fetcher(index)

    def run_program(self, program, v, dims=None) -> RuntimeStats:
        """Execute a workload program against this runtime.

        The program's data accesses are routed through :meth:`read`, so the
        returned stats say whether the shipped subset was sufficient for the
        parameter value ``v`` (and how many "data missing" events occurred).
        Null accesses are swallowed into the stats here — the point of this
        helper is *measuring* user impact, not crashing on the first miss.
        """
        dims = dims if dims is not None else self.subset.schema.dims

        def access(index):
            try:
                return self.read(index)
            except DataMissingError:
                return None

        program.run(access, v, dims)
        return self.stats
