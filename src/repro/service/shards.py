"""Campaign planning, shard execution, and deterministic merge.

Every service job runs through this module: its units are the shards of
a :class:`ShardPlan`, each run by :func:`execute_shard` (fuzz only),
and the job's result is :func:`merge_shard_results` (union, then one
carve).  An unsharded job is the degenerate plan — one shard holding
one slice that carries the job's own seed and whole budget — so its
result is the digest ``Kondo.analyze`` gives for the same Θ.

One sharded job is decomposed into a fixed set of **seed-keyed slices**
— self-contained mini fuzz campaigns whose RNG seeds derive from the
job's content-addressed key — and the requested shard count only
*groups* those slices into leasable units.  That makes the decomposition
invariant to the shard count by construction:

* the slice set (count, seeds, per-slice iteration budgets) is a pure
  function of the job spec, so replanning after a crash or on another
  host yields byte-identical slices;
* each slice campaign is deterministic given its seed, so a shard's
  point cloud does not depend on which worker ran it, when, or whether
  a hedged duplicate won the race;
* the merge is a sorted-unique union of the per-shard clouds followed
  by a single carve — order-free, so the final result is bit-identical
  for every shard count, every crash point, and every hedging outcome.

The planner and the merge are **deterministic by contract** (KND014):
no wall-clock reads, no RNG draws — slice seeds come from SHA-256 over
``(job key, slice index)`` and shard results are always folded in
sorted shard-index order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arraymodel.layout import flat_runs, ragged_aranges, sorted_unique
from repro.core import Kondo
from repro.errors import ServiceError
from repro.fuzzing import FuzzConfig
from repro.fuzzing.schedule import FuzzSchedule
from repro.service.jobs import JobSpec
from repro.workloads import get_program

#: Fixed slice grid: a job's fuzz budget is cut into at most this many
#: seed-keyed mini campaigns.  The count is capped by the iteration
#: budget (a slice always gets at least one iteration), so the slice
#: set — and therefore the merged result — never depends on how many
#: shards the submitter asked for.
DEFAULT_SLICES = 16


@dataclass(frozen=True)
class ShardSlice:
    """One self-contained schedule slice of a sharded campaign.

    Attributes:
        index: position in the plan's slice grid (also the sort key the
            merge folds by, via its owning shard).
        seed: RNG seed of this slice's mini campaign, derived from the
            job key so replanning anywhere reproduces it.
        max_iter: iteration budget of the slice (the job's budget split
            across the grid, remainder to the lowest indices).
        budget_s: wall-clock budget share (``None`` when the job has no
            time budget; time-budgeted slices are deterministic per
            seed only up to the budget cut, like any time-budgeted
            campaign).
    """

    index: int
    seed: int
    max_iter: int
    budget_s: Optional[float] = None

    def to_json(self) -> dict:
        return {"index": self.index, "seed": self.seed,
                "max_iter": self.max_iter, "budget_s": self.budget_s}


@dataclass(frozen=True)
class ShardPlan:
    """The deterministic decomposition of one job into shards.

    ``slices`` is invariant to the requested shard count; ``n_shards``
    only controls the grouping of slices into leasable units.  Shard
    ``j`` owns the strided subset ``slices[j::n_shards]``, which keeps
    per-shard iteration budgets balanced.
    """

    job_key: str
    n_shards: int
    slices: Tuple[ShardSlice, ...]

    def shard_slices(self, shard_index: int) -> Tuple[ShardSlice, ...]:
        if not 0 <= shard_index < self.n_shards:
            raise ServiceError(
                f"shard index {shard_index} out of range "
                f"[0, {self.n_shards})"
            )
        return self.slices[shard_index::self.n_shards]

    def to_json(self) -> dict:
        return {
            "job": self.job_key,
            "n_shards": self.n_shards,
            "n_slices": len(self.slices),
            "slices": [s.to_json() for s in self.slices],
        }


def derive_slice_seed(job_key: str, index: int) -> int:
    """The slice's campaign seed: SHA-256 over (job key, slice index)."""
    digest = hashlib.sha256(f"{job_key}:slice:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def plan_shards(spec: JobSpec) -> ShardPlan:
    """Deterministically partition a job's fuzz budget into shards.

    The plan is a pure function of the job spec.  An unsharded job
    (``shards == 0``) is one shard holding one slice: the whole budget
    under the job's own seed, which is exactly the campaign
    ``Kondo.analyze`` runs for that Θ.  A sharded job's slice grid has
    ``min(DEFAULT_SLICES, iteration budget)`` slices whose budgets split
    the job budget with the remainder going to the lowest slice
    indices, and each slice's seed is derived from the job key.  The
    requested shard count is clamped to the slice count (a shard with
    zero slices would be an unleasable no-op).
    """
    total_iter = (spec.max_iter if spec.max_iter is not None
                  else FuzzConfig().max_iter)
    key = spec.key
    if not spec.shards:
        whole = ShardSlice(index=0, seed=spec.seed, max_iter=total_iter,
                           budget_s=spec.budget_s)
        return ShardPlan(job_key=key, n_shards=1, slices=(whole,))
    n_slices = max(1, min(DEFAULT_SLICES, total_iter))
    base, rem = divmod(total_iter, n_slices)
    slice_budget_s = (spec.budget_s / n_slices
                      if spec.budget_s is not None else None)
    slices = tuple(
        ShardSlice(
            index=i,
            seed=derive_slice_seed(key, i),
            max_iter=base + (1 if i < rem else 0),
            budget_s=slice_budget_s,
        )
        for i in range(n_slices)
    )
    n_shards = min(spec.shards, n_slices)
    return ShardPlan(job_key=key, n_shards=n_shards, slices=slices)


# -- point-cloud wire form ---------------------------------------------------


def encode_runs(flat) -> List[List[int]]:
    """Run-length encode a flat offset array as ``[[start, length], ...]``.

    The input is sorted-uniqued first, so the encoding is canonical:
    two clouds with the same offset *set* encode identically.
    """
    return np.stack(flat_runs(flat), axis=1).tolist()


def decode_runs(runs: List[List[int]]) -> np.ndarray:
    """Inverse of :func:`encode_runs`: runs back to a sorted flat array."""
    arr = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    return sorted_unique(ragged_aranges(arr[:, 0], arr[:, 1]))


# -- shard execution ---------------------------------------------------------


class _ProgressProbe:
    """Wrap a debloat test to emit one progress event per iteration."""

    def __init__(self, test: Callable, slice_index: int,
                 emit: Callable[[dict], None]):
        self._test = test
        self._slice = slice_index
        self._emit = emit
        self._calls = 0

    def __call__(self, *args, **kwargs):
        out = self._test(*args, **kwargs)
        self._calls += 1
        self._emit({"kind": "iteration", "slice": self._slice,
                    "iteration": self._calls})
        return out


def _run_slice(spec: JobSpec, slc: ShardSlice,
               progress: Optional[Callable[[dict], None]]):
    """Run one slice's mini campaign; returns its FuzzCampaignResult."""
    program = get_program(spec.program)
    fuzz = replace(FuzzConfig(rng_seed=slc.seed), max_iter=slc.max_iter)
    kondo = Kondo(program, spec.dims, fuzz_config=fuzz, carver=spec.carver)
    test = kondo.make_test()
    call = (test if progress is None
            else _ProgressProbe(test, slc.index, progress))
    space = program.parameter_space(kondo.dims)
    schedule = FuzzSchedule(call, space, kondo.fuzz_config, test.n_flat)
    return schedule.run(time_budget_s=slc.budget_s)


def _array_sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes()
    ).hexdigest()


def _digest(iterations: int, n_useful: int, observed: np.ndarray,
            carve) -> dict:
    return {
        "iterations": int(iterations),
        "n_useful": int(n_useful),
        "observed": int(observed.size),
        "carved": int(carve.flat_indices.size),
        "n_hulls": int(carve.n_hulls),
        "observed_sha256": _array_sha256(observed),
        "carved_sha256": _array_sha256(carve.flat_indices),
    }


def result_digest(result) -> dict:
    """The compact, record-able digest of one ``Kondo.analyze`` result.

    :func:`merge_shard_results` builds the same fields for a union of
    shard clouds, so a job's sealed result compares with this directly.
    """
    return _digest(result.fuzz.iterations, result.fuzz.n_useful,
                   result.observed_flat, result.carve)


def execute_shard(spec_json: dict, shard_index: int,
                  progress: Optional[Callable[[dict], None]] = None) -> dict:
    """Run one shard's slices; return its point cloud + stats.

    Pure: spec in, result out, no daemon state — so a retried or hedged
    attempt produces a bit-identical result (no timings in the payload,
    ``cloud_sha256`` pins the offset set).  ``progress`` (unsupervised
    path only) is called once per fuzz iteration and once per finished
    slice.
    """
    spec = JobSpec.from_json(spec_json)
    plan = plan_shards(spec)
    slices = plan.shard_slices(shard_index)
    clouds: List[np.ndarray] = []
    iterations = 0
    n_useful = 0
    for slc in slices:
        fuzz = _run_slice(spec, slc, progress)
        clouds.append(np.asarray(fuzz.flat_indices, dtype=np.int64))
        iterations += int(fuzz.iterations)
        n_useful += int(fuzz.n_useful)
        if progress is not None:
            progress({"kind": "slice-done", "slice": slc.index,
                      "iterations": iterations})
    union = (sorted_unique(np.concatenate(clouds)) if clouds
             else np.empty(0, dtype=np.int64))
    return {
        "shard": shard_index,
        "slices": [s.index for s in slices],
        "iterations": iterations,
        "n_useful": n_useful,
        "n_indices": int(union.size),
        "cloud": encode_runs(union),
        "cloud_sha256": _array_sha256(union),
    }


# -- deterministic merge -----------------------------------------------------


def missing_theta_manifest(plan: ShardPlan,
                           dead_shards: List[int]) -> List[dict]:
    """The Θ-regions a PARTIAL result never explored.

    One entry per dead shard, carrying the full slice descriptors
    (index, seed, iteration/time budget) — enough to re-run exactly the
    missing sub-campaigns later.
    """
    return [
        {"shard": i,
         "slices": [s.to_json() for s in plan.shard_slices(i)]}
        for i in sorted(dead_shards)
    ]


def merge_shard_results(spec: JobSpec, shard_results: Dict[int, dict],
                        missing: Optional[List[dict]] = None) -> dict:
    """Union the per-shard point clouds and re-carve — deterministically.

    Shard results are folded in sorted shard-index order (KND014), the
    union is sorted-unique, and the carve is the same single pass
    ``Kondo.analyze`` runs — so the merged digest is bit-identical for
    every shard count and every execution history that produced the
    same shard set.  ``missing`` marks the result PARTIAL and attaches
    the missing-Θ-region manifest.
    """
    plan = plan_shards(spec)
    clouds = [decode_runs(shard_results[i]["cloud"])
              for i in sorted(shard_results)]
    union = (sorted_unique(np.concatenate(clouds)) if clouds
             else np.empty(0, dtype=np.int64))
    iterations = sum(int(shard_results[i]["iterations"])
                     for i in sorted(shard_results))
    n_useful = sum(int(shard_results[i]["n_useful"])
                   for i in sorted(shard_results))
    program = get_program(spec.program)
    kondo = Kondo(program, spec.dims, carver=spec.carver)
    carve = kondo.carver.carve_flat(union)
    result = {"n_slices": len(plan.slices),
              **_digest(iterations, n_useful, union, carve)}
    if missing:
        result["partial"] = True
        result["missing"] = missing
    return result


def run_sharded_reference(spec: JobSpec) -> dict:
    """The no-fault reference: every shard run serially, then merged.

    Because the slice set is shard-count-invariant, this equals the
    daemon's distributed execution for *any* shard count — the property
    the chaos drills and the hypothesis suite pin.
    """
    plan = plan_shards(spec)
    results = {i: execute_shard(spec.to_json(), i)
               for i in range(plan.n_shards)}
    return merge_shard_results(spec, results)
