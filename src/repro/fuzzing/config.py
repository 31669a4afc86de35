"""Fuzzing and carving configuration (paper Figure 5, Section V-B).

Defaults reproduce the configuration the paper evaluates with:

* ``u_reps = 8`` / ``n_reps = 5`` mutations per useful / non-useful seed,
* ``max_iter = 2000``, early stop after ``stop_iter = 500`` fruitless
  iterations,
* mutation frame distances ``u_dist = [5, 15]`` / ``n_dist = [30, 50]``,
* epsilon-greedy start ``eps = 1`` decayed by ``0.97`` every 200 iterations,
* hull-merge thresholds ``center_d_thresh = 20``, ``bound_d_thresh = 10``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.errors import FuzzConfigError
from repro.resilience.config import ResilienceConfig


@dataclass(frozen=True)
class FuzzConfig:
    """Configuration parameters for fuzz testing (Figure 5, upper block)."""

    #: Maximum iterations in the fuzz schedule; each evaluates one seed.
    max_iter: int = 2000
    #: Terminate if no new offset was discovered for this many iterations.
    stop_iter: int = 500
    #: Number of initial uniformly-sampled parameter values (the paper's n).
    n_initial: int = 10
    #: Mutations generated from a useful seed.
    u_reps: int = 8
    #: Mutations generated from a non-useful seed.
    n_reps: int = 5
    #: Frame distance interval for useful seeds (per dimension).
    u_dist: Tuple[float, float] = (5.0, 15.0)
    #: Frame distance interval for non-useful seeds (per dimension).
    n_dist: Tuple[float, float] = (30.0, 50.0)
    #: Cluster diameter for ADD_TO_CLUSTER.
    diameter: float = 20.0
    #: Iterations between random restarts (queue reset with fresh seeds).
    restart: int = 250
    #: Iterations between epsilon decays.
    decay_iter: int = 200
    #: Multiplicative epsilon decay factor.
    decay: float = 0.97
    #: Initial probability of plain (non-boundary) exploit-and-explore.
    eps: float = 1.0
    #: When True the schedule never transitions to boundary-based EE
    #: (this is the plain Exploit-and-Explore schedule of Section IV-A1).
    plain_ee: bool = False
    #: When False, random restarts are disabled (ablation switch).
    enable_restart: bool = True
    #: RNG seed for reproducible campaigns.
    rng_seed: int = 0
    #: Resilience layer: campaign checkpointing, per-valuation crash
    #: quarantine, and supervised execution.  All off by default, which
    #: keeps the campaign byte-identical to the seed.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def __post_init__(self):
        if self.max_iter <= 0:
            raise FuzzConfigError(f"max_iter must be positive, got {self.max_iter}")
        if self.stop_iter <= 0:
            raise FuzzConfigError(f"stop_iter must be positive, got {self.stop_iter}")
        if self.n_initial <= 0:
            raise FuzzConfigError(f"n_initial must be positive, got {self.n_initial}")
        if self.u_reps < 0 or self.n_reps < 0:
            raise FuzzConfigError("u_reps/n_reps must be non-negative")
        for name, interval in (("u_dist", self.u_dist), ("n_dist", self.n_dist)):
            lo, hi = interval
            # An infinite frame has no uniform draw (numpy's ``uniform``
            # raises on it; the mutation decode would return inf/nan).
            if not (0 <= lo <= hi) or not math.isfinite(hi):
                raise FuzzConfigError(f"{name} must satisfy 0 <= lo <= hi < inf, got {interval}")
        if self.diameter <= 0:
            raise FuzzConfigError(f"diameter must be positive, got {self.diameter}")
        if self.restart <= 0:
            raise FuzzConfigError(f"restart must be positive, got {self.restart}")
        if self.decay_iter <= 0:
            raise FuzzConfigError(f"decay_iter must be positive, got {self.decay_iter}")
        if not 0 < self.decay <= 1:
            raise FuzzConfigError(f"decay must be in (0, 1], got {self.decay}")
        if not 0 <= self.eps <= 1:
            raise FuzzConfigError(f"eps must be in [0, 1], got {self.eps}")

    def scaled_to(self, extent: float, reference: float = 128.0) -> "FuzzConfig":
        """Scale frame distances/diameter to a parameter-space extent.

        The paper's defaults were tuned for 128-wide dimensions; campaigns
        on 2048-wide spaces keep the same *relative* frame sizes.
        """
        if extent <= 0:
            raise FuzzConfigError(f"extent must be positive, got {extent}")
        k = extent / reference
        return replace(
            self,
            u_dist=(self.u_dist[0] * k, self.u_dist[1] * k),
            n_dist=(self.n_dist[0] * k, self.n_dist[1] * k),
            diameter=self.diameter * k,
        )


@dataclass(frozen=True)
class CarveConfig:
    """Configuration for the carving algorithm (Figure 5, lower block)."""

    #: Edge length of the fixed-size cells the offset space is SPLIT into.
    cell_size: float = 16.0
    #: Center distance threshold to merge hulls.
    center_d_thresh: float = 20.0
    #: Boundary distance threshold to merge hulls.
    bound_d_thresh: float = 10.0
    #: CLOSE predicate semantics: "or" merges when either distance is under
    #: its threshold (matches the paper's discussion of large hulls
    #: continuing to absorb small ones); "and" requires both.
    close_mode: str = "or"
    #: Containment slack when rasterizing hulls back to integer indices.
    raster_tol: float = 0.5

    def __post_init__(self):
        if self.cell_size <= 0:
            raise FuzzConfigError(f"cell_size must be positive, got {self.cell_size}")
        if self.center_d_thresh < 0 or self.bound_d_thresh < 0:
            raise FuzzConfigError("merge thresholds must be non-negative")
        if self.close_mode not in ("or", "and"):
            raise FuzzConfigError(
                f"close_mode must be 'or' or 'and', got {self.close_mode!r}"
            )
        if self.raster_tol < 0:
            raise FuzzConfigError(f"raster_tol must be >= 0, got {self.raster_tol}")

    def scaled_to(self, extent: float, reference: float = 128.0) -> "CarveConfig":
        """Scale cell size and merge thresholds to a data-space extent."""
        if extent <= 0:
            raise FuzzConfigError(f"extent must be positive, got {extent}")
        k = extent / reference
        return replace(
            self,
            cell_size=self.cell_size * k,
            center_d_thresh=self.center_d_thresh * k,
            bound_d_thresh=self.bound_d_thresh * k,
        )


#: The exact configuration of Section V-B, importable by name.
PAPER_FUZZ_CONFIG = FuzzConfig()
PAPER_CARVE_CONFIG = CarveConfig()
