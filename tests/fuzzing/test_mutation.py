"""Unit tests for UNIFORM and GREEDY mutation operators."""

import numpy as np
import pytest

from repro.fuzzing import ParameterSpace
from repro.fuzzing.clusters import Cluster
from repro.fuzzing.mutation import greedy_mutations, uniform_mutations


@pytest.fixture
def space():
    return ParameterSpace.of((0, 127), (0, 127))


class TestUniform:
    def test_rep_count(self, space, rng):
        out = uniform_mutations((64, 64), space, (5, 15), 8, rng)
        assert len(out) == 8

    def test_children_within_space(self, space, rng):
        for child in uniform_mutations((0, 127), space, (30, 50), 20, rng):
            assert space.contains(child)

    def test_step_magnitudes_in_frame(self, space, rng):
        v = np.array([64.0, 64.0])
        for child in uniform_mutations(v, space, (5, 15), 50, rng):
            delta = np.abs(np.asarray(child) - v)
            # Rounding to integers can shift by at most 0.5 per dim.
            assert (delta >= 4.5).all()
            assert (delta <= 15.5).all()

    def test_integer_children(self, space, rng):
        for child in uniform_mutations((64, 64), space, (5, 15), 10, rng):
            assert all(float(x).is_integer() for x in child)

    def test_zero_reps(self, space, rng):
        assert uniform_mutations((64, 64), space, (5, 15), 0, rng) == []


class TestGreedy:
    def test_moves_toward_target(self, space, rng):
        v = np.array([20.0, 20.0])
        target = Cluster(center=np.array([100.0, 20.0]), useful=False)
        children = greedy_mutations(
            v, space, target, 80.0, (5, 15), 30, rng
        )
        # Children predominantly move in +x (toward the target center).
        xs = np.array([c[0] for c in children])
        assert (xs > 20).mean() > 0.9

    def test_never_overshoots_target(self, space, rng):
        v = np.array([20.0, 20.0])
        target = Cluster(center=np.array([30.0, 20.0]), useful=False)
        for child in greedy_mutations(v, space, target, 10.0, (5, 15), 40, rng):
            # Magnitude along the direction is capped by the distance, so
            # children never land far beyond the target center (jitter of
            # up to dist_lo per dim remains).
            assert child[0] <= 30.0 + 5.0 + 0.5

    def test_frame_scales_with_distance(self, space, rng):
        v = np.array([0.0, 0.0])
        near_t = Cluster(center=np.array([6.0, 0.0]), useful=False)
        far_t = Cluster(center=np.array([120.0, 0.0]), useful=False)
        near_steps = [
            abs(c[0]) for c in
            greedy_mutations(v, space, near_t, 6.0, (5, 15), 40, rng)
        ]
        far_steps = [
            abs(c[0]) for c in
            greedy_mutations(v, space, far_t, 120.0, (5, 15), 40, rng)
        ]
        assert np.mean(far_steps) > np.mean(near_steps)

    def test_on_center_falls_back_to_uniform(self, space, rng):
        v = np.array([50.0, 50.0])
        target = Cluster(center=np.array([50.0, 50.0]), useful=False)
        children = greedy_mutations(v, space, target, 0.0, (5, 15), 10, rng)
        assert len(children) == 10
        for child in children:
            assert space.contains(child)

    def test_children_within_space(self, space, rng):
        v = np.array([126.0, 1.0])
        target = Cluster(center=np.array([0.0, 127.0]), useful=False)
        for child in greedy_mutations(v, space, target, 178.0, (30, 50), 20, rng):
            assert space.contains(child)


class TestSignDraw:
    """``uniform_mutations`` draws signs by indexing ``_SIGNS`` with
    ``rng.integers``: the same values and generator state as the
    ``rng.choice((-1.0, 1.0), size)`` it replaced, on every numpy line
    the project supports."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_same_values_and_state_as_choice(self, seed, size):
        from repro.fuzzing.mutation import _SIGNS

        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for _ in range(5):
            want = a.choice((-1.0, 1.0), size=(size,))
            got = _SIGNS[b.integers(0, 2, size=(size,))]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            # Interleave another draw, as the mutation loop does.
            assert a.uniform(5, 15, size=size).tobytes() \
                == b.uniform(5, 15, size=size).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
