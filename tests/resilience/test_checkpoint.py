"""Campaign checkpoints: atomic persistence, validation, and the core
guarantee — a crashed-and-resumed campaign is bit-identical to one that
never crashed."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, InjectedFault, ResilienceConfigError
from repro.fuzzing import FuzzConfig
from repro.fuzzing.schedule import FuzzSchedule
from repro.resilience.checkpoint import (
    load_campaign_state,
    save_campaign_state,
)
from repro.resilience.config import NO_RESILIENCE, ResilienceConfig
from repro.resilience.faults import CrashAt
from repro.workloads import get_program
from tests.oracles.fuzz_schedule import OracleSchedule

DIMS = (16, 16)


def _make_test(program_name="CS", dims=DIMS):
    program = get_program(program_name)

    def test(v):
        from repro.arraymodel.layout import flatten_many

        idx = program.access_indices(v, dims)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        return flatten_many(idx, dims)

    return test, program.parameter_space(dims), int(np.prod(dims))


def _config(seed=0, max_iter=120, **resilience_kwargs):
    resilience = ResilienceConfig(**resilience_kwargs)
    return FuzzConfig(rng_seed=seed, max_iter=max_iter,
                      resilience=resilience)


class TestResilienceConfig:
    def test_defaults_are_all_off(self):
        assert not NO_RESILIENCE.checkpointing
        assert not NO_RESILIENCE.quarantine
        assert NO_RESILIENCE.fetch_retries == 0
        assert NO_RESILIENCE.breaker_threshold == 0

    @pytest.mark.parametrize("kwargs", [
        {"fetch_retries": -1},
        {"fetch_backoff_factor": 0.9},
        {"fetch_deadline_s": 0.0},
        {"breaker_threshold": -1},
        {"checkpoint_every": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ResilienceConfigError):
            ResilienceConfig(**kwargs)


class TestSaveLoad:
    def _state(self, tmp_path, checkpoint_every=25):
        test, space, n_flat = _make_test()
        path = str(tmp_path / "ckpt.npz")
        config = _config(checkpoint_path=path,
                         checkpoint_every=checkpoint_every)
        schedule = FuzzSchedule(test, space, config, n_flat)
        schedule.run()
        return path, schedule

    def test_roundtrip_restores_every_field(self, tmp_path):
        path, schedule = self._state(tmp_path)
        state = load_campaign_state(path)
        assert state["itr"] == schedule.itr
        assert state["eps"] == schedule.eps
        assert np.array_equal(
            state["bitmap_indices"], np.flatnonzero(schedule.bitmap)
        )
        assert state["seed_v"].shape[0] == len(schedule.seeds)

    def test_missing_keys_rejected_on_save(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing keys"):
            save_campaign_state(str(tmp_path / "x.npz"), {"version": 1})

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_campaign_state(str(tmp_path / "nope.npz"))

    def test_garbage_file(self, tmp_path):
        path = str(tmp_path / "garbage.npz")
        with open(path, "wb") as fh:
            fh.write(b"this is not an npz archive")
        with pytest.raises(CheckpointError):
            load_campaign_state(path)

    def test_truncated_checkpoint(self, tmp_path):
        path, _ = self._state(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CheckpointError):
            load_campaign_state(path)

    def test_out_of_range_bitmap_rejected(self, tmp_path):
        path, schedule = self._state(tmp_path)
        state = schedule.capture_state(0.0)
        state["bitmap_indices"] = np.array([10 ** 9], dtype=np.int64)
        bad = str(tmp_path / "bad.npz")
        save_campaign_state(bad, state)
        with pytest.raises(CheckpointError, match="out of range"):
            load_campaign_state(bad)

    def test_restore_rejects_mismatched_n_flat(self, tmp_path):
        path, _ = self._state(tmp_path)
        test, space, _ = _make_test()
        other = FuzzSchedule(test, space, _config(), n_flat=4)
        with pytest.raises(CheckpointError, match="n_flat"):
            other.restore_state(load_campaign_state(path))


class TestCrashResume:
    def _reference(self, seed, max_iter=120):
        test, space, n_flat = _make_test()
        schedule = FuzzSchedule(test, space,
                                _config(seed=seed, max_iter=max_iter), n_flat)
        return schedule.run()

    def _crashed_and_resumed(self, seed, crash_at, checkpoint_every,
                             max_iter=120):
        test, space, n_flat = _make_test()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.npz")
            config = _config(seed=seed, max_iter=max_iter,
                             checkpoint_path=path,
                             checkpoint_every=checkpoint_every)
            crashy = CrashAt(test, crash_at)
            schedule = FuzzSchedule(crashy, space, config, n_flat)
            with pytest.raises(InjectedFault):
                schedule.run()
            resumed = FuzzSchedule.from_checkpoint(
                test, space, config, n_flat, path
            )
            return resumed.run()

    @settings(max_examples=6, deadline=None)
    @given(crash_at=st.integers(min_value=6, max_value=110),
           seed=st.integers(min_value=0, max_value=3))
    def test_resume_is_bit_identical_to_uninterrupted_run(self, crash_at,
                                                          seed):
        """The headline property (ISSUE acceptance criterion): for any
        crash point and campaign seed, checkpoint + resume reproduces the
        uninterrupted campaign's observed offsets bit-identically."""
        reference = self._reference(seed)
        resumed = self._crashed_and_resumed(seed, crash_at,
                                            checkpoint_every=5)
        assert np.array_equal(resumed.flat_indices, reference.flat_indices)
        assert resumed.iterations == reference.iterations
        assert resumed.stop_reason == reference.stop_reason
        assert resumed.final_eps == reference.final_eps
        assert [s.v for s in resumed.seeds] == [s.v for s in reference.seeds]
        assert ([s.useful for s in resumed.seeds]
                == [s.useful for s in reference.seeds])

    def test_resume_from_list_built_cluster_arrays(self, tmp_path):
        """Checkpoint cluster arrays keep their on-disk layout: ``(k,
        ndim)`` float64 centers and ``(k,)`` int64 sizes in founding
        order.  Arrays built from the scalar reference's list of clusters,
        as the list-backed cluster set wrote them, resume bit-identically.
        """
        seed, at = 2, 40
        test, space, n_flat = _make_test()
        path = str(tmp_path / "ckpt.npz")
        config = _config(seed=seed, checkpoint_path=path,
                         checkpoint_every=at)
        with pytest.raises(InjectedFault):
            FuzzSchedule(CrashAt(test, at + 3), space, config,
                         n_flat).run()
        state = load_campaign_state(path)
        assert state["itr"] == at
        oracle = OracleSchedule(
            test, space,
            replace(config, max_iter=at, resilience=NO_RESILIENCE), n_flat,
        )
        oracle.run()
        assert len(oracle.cl_u) and len(oracle.cl_n)
        for key, clusters in (("cl_u", oracle.cl_u.clusters),
                              ("cl_n", oracle.cl_n.clusters)):
            centers = np.asarray(
                [list(c.center) for c in clusters], dtype=np.float64
            ).reshape(len(clusters), space.ndim)
            sizes = np.asarray([c.size for c in clusters], dtype=np.int64)
            for name, legacy in (("centers", centers), ("sizes", sizes)):
                written = state[f"{key}_{name}"]
                assert written.dtype == legacy.dtype
                assert written.shape == legacy.shape
                assert written.tobytes() == legacy.tobytes()
            state[f"{key}_centers"], state[f"{key}_sizes"] = centers, sizes
        legacy_path = str(tmp_path / "legacy.npz")
        save_campaign_state(legacy_path, state)
        resumed = FuzzSchedule.from_checkpoint(
            test, space, config, n_flat, legacy_path
        ).run()
        reference = self._reference(seed)
        assert np.array_equal(resumed.flat_indices, reference.flat_indices)
        assert resumed.iterations == reference.iterations
        assert resumed.final_eps == reference.final_eps
        assert [s.v for s in resumed.seeds] == [s.v for s in reference.seeds]
        assert ([s.useful for s in resumed.seeds]
                == [s.useful for s in reference.seeds])

    def test_resume_right_after_a_mutate_that_keeps_a_half(self, tmp_path):
        """A checkpoint taken right after a MUTATE that leaves a kept
        32-bit half in the generator (``has_uint32 == 1``: 3-D UNIFORM
        with five children draws an odd number of signs) resumes
        bit-identically, down to the final generator state."""
        test, space, n_flat = _make_test("PRL3D", (16, 16, 16))
        probe = FuzzSchedule(test, space, _config(seed=5, max_iter=80),
                             n_flat)
        kept = []
        mutate = probe.mutate

        def recording(seed):
            children = mutate(seed)
            # The schedule holds the kept half until it flushes; a flush
            # between MUTATEs must not perturb the campaign.
            probe.words.flush()
            state = probe.rng.bit_generator.state
            kept.append((probe.itr, state["has_uint32"]))
            return children

        probe.mutate = recording
        reference = probe.run()
        at = next(itr for itr, has in kept if has == 1 and itr > 5)
        path = str(tmp_path / "ckpt.npz")
        config = _config(seed=5, max_iter=80, checkpoint_path=path,
                         checkpoint_every=1)
        with pytest.raises(InjectedFault):
            FuzzSchedule(CrashAt(test, at + 1), space, config, n_flat).run()
        state = load_campaign_state(path)
        assert state["itr"] == at
        assert state["rng_state"]["has_uint32"] == 1
        schedule = FuzzSchedule.from_checkpoint(test, space, config, n_flat,
                                                path)
        resumed = schedule.run()
        assert np.array_equal(resumed.flat_indices, reference.flat_indices)
        assert resumed.iterations == reference.iterations
        assert np.asarray([s.v for s in resumed.seeds]).tobytes() \
            == np.asarray([s.v for s in reference.seeds]).tobytes()
        assert schedule.rng.bit_generator.state \
            == probe.rng.bit_generator.state

    def test_resume_after_final_checkpoint_is_a_noop(self, tmp_path):
        test, space, n_flat = _make_test()
        path = str(tmp_path / "done.npz")
        config = _config(checkpoint_path=path, checkpoint_every=50)
        FuzzSchedule(test, space, config, n_flat).run()
        resumed = FuzzSchedule.from_checkpoint(
            test, space, config, n_flat, path
        ).run()
        reference = self._reference(seed=0)
        assert np.array_equal(resumed.flat_indices, reference.flat_indices)
        assert resumed.iterations == reference.iterations

    def test_checkpointing_itself_does_not_perturb_the_campaign(self,
                                                                tmp_path):
        test, space, n_flat = _make_test()
        path = str(tmp_path / "ckpt.npz")
        config = _config(checkpoint_path=path, checkpoint_every=10)
        checkpointed = FuzzSchedule(test, space, config, n_flat).run()
        reference = self._reference(seed=0)
        assert np.array_equal(checkpointed.flat_indices,
                              reference.flat_indices)
        assert [s.v for s in checkpointed.seeds] \
            == [s.v for s in reference.seeds]


class TestQuarantine:
    def test_raising_valuations_are_quarantined_not_fatal(self):
        test, space, n_flat = _make_test()
        calls = []

        def moody(v):
            calls.append(v)
            if len(calls) in (7, 19):
                raise ValueError(f"bad valuation #{len(calls)}")
            return test(v)

        config = _config(quarantine=True)
        result = FuzzSchedule(moody, space, config, n_flat).run()
        assert len(result.quarantined) == 2
        assert all("bad valuation" in q.error for q in result.quarantined)
        assert result.iterations == config.max_iter

    def test_without_quarantine_the_error_propagates(self):
        test, space, n_flat = _make_test()

        def moody(v):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            FuzzSchedule(moody, space, _config(), n_flat).run()

    def test_injected_faults_bypass_quarantine(self):
        test, space, n_flat = _make_test()
        crashy = CrashAt(test, 5)
        config = _config(quarantine=True)
        with pytest.raises(InjectedFault):
            FuzzSchedule(crashy, space, config, n_flat).run()
