"""The naive Algorithm 2 merge loop: full O(n^2) pair rescans every pass.

Reference for :func:`repro.carving.merge.merge_hulls`, which must return
the identical hull list and the same merge/pass counts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.carving.merge import MergeStats, close
from repro.fuzzing.config import CarveConfig
from repro.geometry.hull import Hull


def merge_hulls_scan(hulls: List[Hull], config: CarveConfig
                     ) -> Tuple[List[Hull], MergeStats]:
    work = list(hulls)
    initial = len(work)
    merges = 0
    passes = 0
    close_calls = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        i = 0
        while i < len(work):
            j = i + 1
            while j < len(work):
                close_calls += 1
                if close(work[i], work[j], config):
                    merged = work[i].merge(work[j])
                    # Remove j first (higher index) to keep i valid.
                    work.pop(j)
                    work.pop(i)
                    work.append(merged)
                    merges += 1
                    changed = True
                    # Restart the inner scan for the (moved) hull at i.
                    j = i + 1
                else:
                    j += 1
            i += 1
    return work, MergeStats(
        initial_hulls=initial,
        final_hulls=len(work),
        merges=merges,
        passes=passes,
        close_calls=close_calls,
    )
