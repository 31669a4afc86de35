"""Algorithm 1 in its scalar form: per-range clip, per-rep ``rng.choice``,
list-backed clusters.

Reference for :class:`repro.fuzzing.schedule.FuzzSchedule`, whose
array-shaped loop must produce the same seeds, offsets, stop reason,
final epsilon, clusters and final generator state for the same test,
space and config.  The loop is the schedule's own minus the resilience
layer (no quarantine, no checkpoints, no time budget), which the
equivalence property leaves off.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProgramError
from repro.fuzzing.config import FuzzConfig
from repro.fuzzing.parameters import ParameterSpace, Seed
from repro.fuzzing.schedule import DebloatTestFn, FuzzCampaignResult

_SCALE_MIN = 0.25
_SCALE_MAX = 4.0


def clip_scalar(space: ParameterSpace, v: Sequence[float]
                ) -> Tuple[float, ...]:
    """``ParameterSpace.clip``, one ``ParameterRange`` at a time."""
    if len(v) != space.ndim:
        raise ProgramError(
            f"parameter value has {len(v)} components, expected {space.ndim}"
        )
    out = []
    for r, x in zip(space.ranges, v):
        x = min(max(x, r.lo), r.hi)
        out.append(float(round(x)) if r.integer else float(x))
    return tuple(out)


class ListCluster:
    def __init__(self, center: np.ndarray):
        self.center = center
        self.size = 1

    def add(self, v: np.ndarray) -> None:
        self.size += 1
        self.center = self.center + (v - self.center) / self.size


class ListClusterSet:
    """ADD_TO_CLUSTER over a Python list, rebuilding the center matrix on
    every call."""

    def __init__(self, diameter: float):
        self.diameter = diameter
        self.clusters: List[ListCluster] = []

    def __len__(self) -> int:
        return len(self.clusters)

    def _centers(self) -> np.ndarray:
        return np.asarray([c.center for c in self.clusters])

    def add(self, v: Sequence[float]) -> None:
        v = np.asarray(v, dtype=np.float64)
        if self.clusters:
            dists = np.linalg.norm(self._centers() - v, axis=1)
            nearest = int(dists.argmin())
            if dists[nearest] <= self.diameter:
                self.clusters[nearest].add(v)
                return
        self.clusters.append(ListCluster(v.copy()))

    def nearest(self, v: Sequence[float]
                ) -> Optional[Tuple[ListCluster, float]]:
        if not self.clusters:
            return None
        v = np.asarray(v, dtype=np.float64)
        dists = np.linalg.norm(self._centers() - v, axis=1)
        i = int(dists.argmin())
        return self.clusters[i], float(dists[i])


def uniform_mutations(v, space, dist, reps, rng) -> List[Tuple[float, ...]]:
    v = np.asarray(v, dtype=np.float64)
    out = []
    lo, hi = dist
    for _ in range(reps):
        signs = rng.choice((-1.0, 1.0), size=v.shape)
        steps = rng.uniform(lo, hi, size=v.shape)
        out.append(clip_scalar(space, v + signs * steps))
    return out


def greedy_mutations(v, space, target, target_distance, dist, reps, rng
                     ) -> List[Tuple[float, ...]]:
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(target.center, dtype=np.float64)
    direction = center - v
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return uniform_mutations(v, space, dist, reps, rng)
    direction = direction / norm
    lo, hi = dist
    frame_ref = max((lo + hi) / 2.0, 1e-9)
    scale = float(np.clip(target_distance / (2.0 * frame_ref),
                          _SCALE_MIN, _SCALE_MAX))
    out = []
    for _ in range(reps):
        magnitude = rng.uniform(lo, hi) * scale
        magnitude = min(magnitude, norm)
        jitter = rng.uniform(-lo, lo, size=v.shape) if lo > 0 else 0.0
        out.append(clip_scalar(space, v + direction * magnitude + jitter))
    return out


class OracleSchedule:
    """The scalar Algorithm 1 loop; same constructor as ``FuzzSchedule``."""

    def __init__(self, test: DebloatTestFn, space: ParameterSpace,
                 config: FuzzConfig, n_flat: int):
        self.test = test
        self.space = space
        self.config = config
        self.rng = np.random.default_rng(config.rng_seed)
        self.queue: deque = deque()
        self.seen: set = set()
        self.cl_u = ListClusterSet(config.diameter)
        self.cl_n = ListClusterSet(config.diameter)
        self.bitmap = np.zeros(n_flat, dtype=bool)
        self.seeds: List[Seed] = []
        self.eps = config.eps
        self.itr = 0
        self.new_itr = 0

    def random_restart(self) -> None:
        self.queue.clear()
        wanted = self.config.n_initial
        attempts = 0
        while wanted > 0 and attempts < 50 * self.config.n_initial:
            v = self.space.sample(self.rng)
            attempts += 1
            if v not in self.seen:
                self.queue.append(v)
                self.seen.add(v)
                wanted -= 1
        if wanted > 0:
            for _ in range(wanted):
                self.queue.append(self.space.sample(self.rng))

    def evaluate_seed(self, v: Tuple[float, ...]) -> Seed:
        flat = np.asarray(self.test(v), dtype=np.int64).reshape(-1)
        seed = Seed(v=v, iteration=self.itr)
        if flat.size:
            fresh = ~self.bitmap[flat]
            n_new = int(np.count_nonzero(fresh))
            if n_new:
                self.bitmap[flat[fresh]] = True
            seed.n_new_offsets = n_new
            seed.useful = True
        else:
            seed.useful = False
        self.seeds.append(seed)
        return seed

    def mutate(self, seed: Seed) -> List[Tuple[float, ...]]:
        cfg = self.config
        dist = cfg.u_dist if seed.useful else cfg.n_dist
        reps = cfg.u_reps if seed.useful else cfg.n_reps
        prob = float(self.rng.uniform(0.0, 1.0))
        if cfg.plain_ee or prob <= self.eps:
            return uniform_mutations(seed.v, self.space, dist, reps, self.rng)
        opposite = self.cl_n if seed.useful else self.cl_u
        found = opposite.nearest(seed.v)
        if found is None:
            return uniform_mutations(seed.v, self.space, dist, reps, self.rng)
        cluster, distance = found
        return greedy_mutations(
            seed.v, self.space, cluster, distance, dist, reps, self.rng
        )

    def run(self) -> FuzzCampaignResult:
        cfg = self.config
        stop_reason = "exhausted"
        while True:
            if self.itr >= cfg.max_iter:
                stop_reason = "max_iter"
                break
            if self.new_itr >= cfg.stop_iter:
                stop_reason = "stagnation"
                break
            self.itr += 1
            if (not self.queue) or (
                cfg.enable_restart and self.itr % cfg.restart == 0
            ):
                self.random_restart()
            if not self.queue:
                break
            seed = self.evaluate_seed(self.queue.popleft())
            if seed.n_new_offsets > 0:
                self.new_itr = 0
            else:
                self.new_itr += 1
            if seed.useful:
                self.cl_u.add(seed.v)
            else:
                self.cl_n.add(seed.v)
            for child in self.mutate(seed):
                if child not in self.seen:
                    self.seen.add(child)
                    self.queue.append(child)
            if self.itr % cfg.decay_iter == 0:
                self.eps *= cfg.decay
        return FuzzCampaignResult(
            flat_indices=np.flatnonzero(self.bitmap).astype(np.int64),
            seeds=self.seeds,
            iterations=self.itr,
            stop_reason=stop_reason,
            elapsed_seconds=math.nan,
            discovery_trace=[],
            final_eps=self.eps,
        )
