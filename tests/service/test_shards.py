"""Campaign plans: planner determinism, N-invariance, the merge.

The hypothesis properties here pin the sharding contract: the sharded
campaign's merged output equals the shard-count-1 run bit-identically
for *arbitrary* shard counts, and the merge is order-free.  An
unsharded job is the one-slice plan, and its merged digest equals a
plain ``Kondo.analyze`` of the same Θ.  Crash recovery of the shard
records is the campaign store's property (``test_fleet_store.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FuzzConfig, Kondo, get_program
from repro.errors import ServiceError
from repro.service import JobSpec
from repro.service.shards import (
    DEFAULT_SLICES,
    ShardSlice,
    decode_runs,
    derive_slice_seed,
    encode_runs,
    execute_shard,
    merge_shard_results,
    missing_theta_manifest,
    plan_shards,
    result_digest,
    run_sharded_reference,
)
from repro.workloads.registry import ALL_BENCHMARKS

DIMS = (16, 16)
MAX_ITER = 12


def spec(shards=4, seed=3, **kw):
    return JobSpec(program="CS", dims=DIMS, seed=seed, max_iter=MAX_ITER,
                   shards=shards, **kw)


class TestShardPlanner:
    def test_plan_is_deterministic(self):
        a = plan_shards(spec())
        b = plan_shards(spec())
        assert a == b
        assert a.to_json() == b.to_json()

    def test_slice_grid_is_shard_count_invariant(self):
        # The slice set depends only on the spec's Θ, never on N —
        # the property that makes the merged result N-invariant.
        grids = {n: plan_shards(spec(shards=n)).slices
                 for n in (1, 2, 5, 16, 64)}
        reference = grids.pop(1)
        assert all(g == reference for g in grids.values())

    def test_slices_partition_the_iteration_budget(self):
        plan = plan_shards(spec())
        assert sum(s.max_iter for s in plan.slices) == MAX_ITER
        assert all(s.max_iter >= 1 for s in plan.slices)
        # Strided grouping: every slice belongs to exactly one shard.
        owned = [s.index for i in range(plan.n_shards)
                 for s in plan.shard_slices(i)]
        assert sorted(owned) == [s.index for s in plan.slices]

    def test_slice_seeds_derive_from_the_job_key(self):
        plan = plan_shards(spec())
        for s in plan.slices:
            assert s.seed == derive_slice_seed(plan.job_key, s.index)
        # A different Θ is a different key, hence different seeds.
        other = plan_shards(spec(seed=4))
        assert other.slices[0].seed != plan.slices[0].seed

    def test_shard_count_clamped_to_slice_count(self):
        tiny = JobSpec(program="CS", dims=DIMS, max_iter=3, shards=64)
        plan = plan_shards(tiny)
        assert len(plan.slices) == 3
        assert plan.n_shards == 3

    def test_slice_count_capped(self):
        big = JobSpec(program="CS", dims=DIMS, max_iter=500, shards=2)
        assert len(plan_shards(big).slices) == DEFAULT_SLICES

    def test_shard_index_bounds_checked(self):
        plan = plan_shards(spec(shards=2))
        with pytest.raises(ServiceError, match="out of range"):
            plan.shard_slices(2)

    def test_sharded_is_part_of_theta_but_count_is_not(self):
        unsharded = JobSpec(program="CS", dims=DIMS, max_iter=MAX_ITER)
        assert spec(shards=2).key == spec(shards=7).key
        assert spec(shards=2).key != unsharded.key

    def test_unsharded_plan_is_one_slice_with_the_whole_budget(self):
        s = spec(shards=0, budget_s=5.0)
        plan = plan_shards(s)
        assert plan.n_shards == 1
        assert plan.slices == (ShardSlice(index=0, seed=s.seed,
                                          max_iter=MAX_ITER, budget_s=5.0),)
        default = plan_shards(JobSpec(program="CS", dims=DIMS))
        assert default.slices[0].max_iter == FuzzConfig().max_iter

    def test_shards_out_of_range_rejected(self):
        from repro.errors import JobRejectedError

        with pytest.raises(JobRejectedError, match="shards"):
            JobSpec(program="CS", dims=DIMS, shards=65)

    def test_max_shards_is_the_one_bound(self):
        from repro.errors import JobRejectedError
        from repro.service.jobs import MAX_SHARDS

        assert JobSpec(program="CS", dims=DIMS,
                       shards=MAX_SHARDS).shards == MAX_SHARDS
        with pytest.raises(JobRejectedError,
                           match=rf"\[0, {MAX_SHARDS}\]"):
            JobSpec(program="CS", dims=DIMS, shards=MAX_SHARDS + 1)


class TestRunCodec:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2000),
                    max_size=200))
    def test_roundtrip_is_sorted_unique_identity(self, offsets):
        runs = encode_runs(np.asarray(offsets, dtype=np.int64))
        back = decode_runs(runs)
        assert np.array_equal(back, np.unique(offsets).astype(np.int64))

    def test_canonical_encoding(self):
        # Same offset *set*, any order/duplication → same encoding.
        assert encode_runs([5, 1, 2, 3, 5]) == encode_runs([1, 2, 3, 5])
        assert encode_runs([0, 1, 2, 7]) == [[0, 3], [7, 1]]
        assert encode_runs([]) == []
        assert decode_runs([]).size == 0


class TestUnshardedIsPlainAnalyze:
    """The one-slice plan's merged digest is ``Kondo.analyze``'s."""

    @pytest.mark.parametrize("carver", ["merge", "simple"])
    @pytest.mark.parametrize("program", ALL_BENCHMARKS)
    def test_digest_equals_analyze(self, program, carver):
        prog = get_program(program)
        dims = (32, 32) if prog.ndim == 2 else (16, 16, 16)
        job = JobSpec(program=program, dims=dims, seed=5, max_iter=20,
                      carver=carver)
        merged = run_sharded_reference(job)
        direct = result_digest(Kondo(
            prog, dims, carver=carver,
            fuzz_config=FuzzConfig(rng_seed=5, max_iter=20)).analyze())
        assert {k: merged[k] for k in direct} == direct
        assert merged["n_slices"] == 1


class _Reference:
    """The no-fault sharded run, computed once for the whole module."""

    RESULT = None
    SHARDS = None

    @classmethod
    def get(cls):
        if cls.RESULT is None:
            s = spec(shards=1)
            cls.RESULT = run_sharded_reference(s)
            plan = plan_shards(spec(shards=4))
            cls.SHARDS = {
                i: execute_shard(spec(shards=4).to_json(), i)
                for i in range(plan.n_shards)
            }
        return cls.RESULT, cls.SHARDS


class TestNInvariance:
    """sharded(N) output == sharded(1) output bit-identically, any N."""

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=1, max_value=MAX_ITER))
    def test_any_shard_count_is_bit_identical(self, n):
        reference, _ = _Reference.get()
        assert run_sharded_reference(spec(shards=n)) == reference

    def test_retried_shard_is_bit_identical(self):
        # The recovery guarantee rests on re-execution determinism.
        _, shards = _Reference.get()
        again = execute_shard(spec(shards=4).to_json(), 2)
        assert again == shards[2]

    def test_merge_is_order_free(self):
        reference, shards = _Reference.get()
        shuffled = {i: shards[i] for i in (3, 0, 2, 1)}
        assert merge_shard_results(spec(shards=4), shuffled) == reference

    def test_merged_result_carries_no_timings(self):
        reference, shards = _Reference.get()
        assert "elapsed" not in reference
        assert all("elapsed" not in r for r in shards.values())


class TestPartialManifest:
    def test_manifest_names_exactly_the_dead_shards_slices(self):
        s = spec(shards=4)
        plan = plan_shards(s)
        manifest = missing_theta_manifest(plan, [3, 1])
        assert [m["shard"] for m in manifest] == [1, 3]
        for m in manifest:
            want = [sl.to_json() for sl in plan.shard_slices(m["shard"])]
            assert m["slices"] == want

    def test_partial_merge_marks_itself_and_unions_the_rest(self):
        reference, shards = _Reference.get()
        s = spec(shards=4)
        plan = plan_shards(s)
        done = {i: shards[i] for i in (0, 1, 3)}
        missing = missing_theta_manifest(plan, [2])
        partial = merge_shard_results(s, done, missing=missing)
        assert partial["partial"] is True
        assert [m["shard"] for m in partial["missing"]] == [2]
        # The partial cloud is a subset of the full union.
        assert partial["observed"] <= reference["observed"]
