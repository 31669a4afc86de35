"""Unit tests for the fuzz schedule (Algorithm 1)."""

import numpy as np
import pytest

from repro.errors import FuzzConfigError
from repro.fuzzing import FuzzConfig, FuzzSchedule, ParameterSpace, run_fuzz_schedule


def square_test(v):
    """A toy debloat test: valid iff both params <= 31; accesses one offset
    per valid parameter value (flat offset space 64x64)."""
    x, y = int(v[0]), int(v[1])
    if 0 <= x <= 31 and 0 <= y <= 31:
        return np.array([x * 64 + y], dtype=np.int64)
    return np.empty(0, dtype=np.int64)


@pytest.fixture
def space():
    return ParameterSpace.of((0, 63), (0, 63))


class TestScheduleMechanics:
    def test_runs_to_max_iter(self, space):
        cfg = FuzzConfig(max_iter=50, stop_iter=500, rng_seed=1)
        result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        assert result.iterations == 50
        assert result.stop_reason == "max_iter"

    def test_stagnation_stop(self, space):
        def dead_test(v):
            return np.empty(0, dtype=np.int64)

        cfg = FuzzConfig(max_iter=10_000, stop_iter=30, rng_seed=1)
        result = run_fuzz_schedule(dead_test, space, cfg, 64 * 64)
        assert result.stop_reason == "stagnation"
        assert result.iterations <= 40
        assert result.n_offsets == 0

    def test_time_budget_stop(self, space):
        import time

        def slow_test(v):
            time.sleep(0.002)
            return square_test(v)

        cfg = FuzzConfig(max_iter=10_000, stop_iter=10_000, rng_seed=1)
        result = run_fuzz_schedule(
            slow_test, space, cfg, 64 * 64, time_budget_s=0.05
        )
        assert result.stop_reason == "time_budget"
        assert result.elapsed_seconds < 1.0

    @pytest.mark.parametrize("crash_at", [2, 7, 8, 31])
    def test_generator_is_current_after_a_test_raises(self, crash_at):
        """The schedule holds the generator's kept 32-bit half between
        MUTATEs.  A debloat test that raises still leaves the generator in
        the state of a run that stopped just before it."""
        space = ParameterSpace.of((0, 63), (0, 63), (0, 63))

        def test(v):
            return square_test(v[:2])

        class Boom(Exception):
            pass

        calls = []

        def crashing(v):
            calls.append(v)
            if len(calls) == crash_at:
                raise Boom
            return test(v)

        crashed = FuzzSchedule(crashing, space,
                               FuzzConfig(max_iter=100, rng_seed=3), 64 * 64)
        with pytest.raises(Boom):
            crashed.run()
        stopped = FuzzSchedule(
            test, space, FuzzConfig(max_iter=crash_at - 1, rng_seed=3),
            64 * 64)
        stopped.run()
        stopped.words.flush()  # current whether or not run() flushed
        assert crashed.rng.bit_generator.state \
            == stopped.rng.bit_generator.state

    def test_bad_n_flat(self, space):
        with pytest.raises(FuzzConfigError):
            FuzzSchedule(square_test, space, FuzzConfig(), 0)

    def test_discovery_trace_monotone(self, space):
        cfg = FuzzConfig(max_iter=200, rng_seed=0)
        result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        counts = [n for _, _, n in result.discovery_trace]
        assert counts == sorted(counts)
        assert counts[-1] == result.n_offsets

    def test_seeds_recorded_with_outcomes(self, space):
        cfg = FuzzConfig(max_iter=100, rng_seed=0)
        result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        assert len(result.seeds) == result.iterations
        assert all(s.evaluated for s in result.seeds)
        assert result.n_useful + result.n_nonuseful == result.iterations
        assert result.n_useful > 0
        assert result.n_nonuseful > 0

    def test_offsets_are_sound(self, space):
        """Every reported offset must come from a genuinely valid run."""
        cfg = FuzzConfig(max_iter=300, rng_seed=2)
        result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        for flat in result.flat_indices:
            x, y = divmod(int(flat), 64)
            assert 0 <= x <= 31 and 0 <= y <= 31

    def test_deterministic_given_seed(self, space):
        cfg = FuzzConfig(max_iter=150, rng_seed=7)
        r1 = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        r2 = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        assert np.array_equal(r1.flat_indices, r2.flat_indices)
        assert [s.v for s in r1.seeds] == [s.v for s in r2.seeds]

    def test_different_seeds_differ(self, space):
        r1 = run_fuzz_schedule(
            square_test, space, FuzzConfig(max_iter=100, rng_seed=0), 64 * 64
        )
        r2 = run_fuzz_schedule(
            square_test, space, FuzzConfig(max_iter=100, rng_seed=1), 64 * 64
        )
        assert [s.v for s in r1.seeds] != [s.v for s in r2.seeds]

    def test_eps_decays(self, space):
        cfg = FuzzConfig(max_iter=1000, decay_iter=100, decay=0.5, rng_seed=0)
        result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
        assert result.final_eps == pytest.approx(0.5 ** 10)

    def test_no_duplicate_evaluations_from_queue(self, space):
        cfg = FuzzConfig(max_iter=300, rng_seed=3)
        schedule = FuzzSchedule(square_test, space, cfg, 64 * 64)
        result = schedule.run()
        # Mutation-enqueued children are deduplicated; only random-restart
        # seeds may repeat (when Theta is nearly exhausted).
        values = [s.v for s in result.seeds]
        assert len(set(values)) >= len(values) * 0.95


class TestScheduleEffectiveness:
    def test_boundary_ee_beats_plain_ee_near_boundary(self, space):
        """Boundary-based EE concentrates evaluations near the subset
        boundary compared to plain exploit-and-explore."""

        def boundary_density(plain):
            cfg = FuzzConfig(
                max_iter=1500, stop_iter=5000, rng_seed=4, plain_ee=plain,
                decay_iter=50, decay=0.8,
            )
            result = run_fuzz_schedule(square_test, space, cfg, 64 * 64)
            near = sum(
                1 for s in result.seeds
                if abs(s.v[0] - 31.5) < 8 or abs(s.v[1] - 31.5) < 8
            )
            return near / len(result.seeds)

        assert boundary_density(plain=False) > boundary_density(plain=True)

    def test_coverage_grows_with_iterations(self, space):
        small = run_fuzz_schedule(
            square_test, space, FuzzConfig(max_iter=50, rng_seed=0), 64 * 64
        )
        large = run_fuzz_schedule(
            square_test, space, FuzzConfig(max_iter=1000, rng_seed=0), 64 * 64
        )
        assert large.n_offsets > small.n_offsets
