"""Helpers shared by the pipeline and service workloads (``serve`` and
the fleet of its traced run)."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

#: Setup is repeated until it has run at least this often *and* this
#: long, so a millisecond-scale setup is still a steady median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0-100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), -(-len(ordered) * pct // 100)))
    return float(ordered[int(rank) - 1])


def beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie above the ``pct`` percentile."""
    cut = percentile(values, pct)
    return sum(1 for v in values if v > cut)


def repeat_setup(once: Callable[[int], float]) -> List[float]:
    """Call ``once(rep)`` (which returns the seconds it timed) repeatedly."""
    times: List[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        times.append(once(len(times)))
    return times


def stopwatch(fn: Callable, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0
