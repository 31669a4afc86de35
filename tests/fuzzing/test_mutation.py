"""Unit tests for UNIFORM and GREEDY mutation operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitGeneratorError
from repro.fuzzing import ParameterRange, ParameterSpace
from repro.fuzzing.clusters import Cluster
from repro.fuzzing.mutation import (
    WordStream,
    greedy_mutations,
    uniform_mutations,
)
from tests.oracles import mutation as oracle
from tests.oracles.mutation import _SIGNS


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
    """The reference UNIFORM (``tests/oracles/mutation.py``) draws signs by
    indexing ``_SIGNS`` with ``rng.integers``: the same values and
    generator state as the ``rng.choice((-1.0, 1.0), size)`` it replaced,
    on every numpy line the project supports."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 32 - 1])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_same_values_and_state_as_choice(self, seed, size):
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

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
    def test_sign_is_top_bit_of_the_32_bit_half(self, seed):
        """``rng.integers(0, 2)`` is bit 31 of a 32-bit draw, and a 32-bit
        draw is a raw word's low half, then its kept high half."""
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for word in b.bit_generator.random_raw(50).tolist():
            for half in (word & 0xFFFFFFFF, word >> 32):
                assert a.integers(0, 2) == half >> 31


BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.SFC64)


def _rows_bits(rows) -> bytes:
    """Exact float bits of a list of children (``-0.0`` != ``0.0``)."""
    return np.asarray(rows, dtype=np.float64).tobytes()


def _same_state(a: dict, b: dict) -> bool:
    """``bit_generator.state`` equality, arrays included (Philox)."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, dict):
            if not isinstance(y, dict) or not _same_state(x, y):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


@st.composite
def mixed_spaces(draw):
    """1-4 dimensions, each an integer or a real range, possibly a point."""
    ranges = []
    for _ in range(draw(st.integers(1, 4))):
        integer = draw(st.booleans())
        lo = draw(st.integers(-40, 40) if integer
                  else st.floats(-40, 40, allow_nan=False))
        extent = draw(st.sampled_from([0, 1, 3, 20, 127]))
        ranges.append(ParameterRange(lo, lo + extent, integer))
    return ParameterSpace(tuple(ranges))


@st.composite
def frames(draw):
    """A ``(lo, hi)`` frame, with ``lo == 0`` and ``lo == hi`` among them."""
    lo = draw(st.sampled_from([0.0, 0.5, 3.0, 30.0])
              | st.floats(0, 60, allow_nan=False))
    hi = lo + draw(st.sampled_from([0.0, 2.0, 10.0])
                   | st.floats(0, 60, allow_nan=False))
    return lo, hi


@st.composite
def mutate_cases(draw):
    space = draw(mixed_spaces())
    coord = st.floats(-60, 200, allow_nan=False)
    v = tuple(draw(coord) for _ in range(space.ndim))
    if draw(st.booleans()):
        center = v  # on the center: GREEDY falls back to UNIFORM
    else:
        center = tuple(draw(coord) for _ in range(space.ndim))
    return dict(
        space=space, v=v,
        target=Cluster(center=np.asarray(center, dtype=np.float64)),
        target_distance=draw(st.floats(0, 300, allow_nan=False)),
        dists=[draw(frames()) for _ in range(3)],
        reps=[draw(st.integers(0, 8)) for _ in range(3)],
        greedy=[draw(st.booleans()) for _ in range(3)],
        prior=draw(st.integers(0, 5)),
        stream=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        bit_generator=draw(st.sampled_from(BIT_GENERATORS)),
    )


class TestDecodeMatchesGenerator:
    """Each operator decodes one ``random_raw`` block into exactly the
    children, and the generator state, of the Generator-API reference."""

    @settings(max_examples=400, deadline=None)
    @given(mutate_cases())
    def test_children_state_and_later_draws(self, case):
        a = np.random.Generator(case["bit_generator"](case["seed"]))
        b = np.random.Generator(case["bit_generator"](case["seed"]))
        for _ in range(case["prior"]):
            # 32-bit draws: leave a kept half behind on odd counts.
            assert a.integers(0, 2) == b.integers(0, 2)
        space, v = case["space"], case["v"]
        # Either each call reads and writes the kept half itself, or one
        # WordStream holds it across the MUTATEs, as the schedule does.
        stream = WordStream(a) if case["stream"] else None
        draws = a if stream is None else stream
        # Three MUTATEs in a row, so a kept half crosses operators.
        for dist, reps, greedy in zip(case["dists"], case["reps"],
                                      case["greedy"]):
            # MUTATE's epsilon-greedy double, which leaves the kept half.
            assert a.random() == b.random()
            if greedy:
                args = (case["target"], case["target_distance"], dist, reps)
                got = greedy_mutations(v, space, *args, draws)
                want = oracle.greedy_mutations(v, space, *args, b)
            else:
                got = uniform_mutations(v, space, dist, reps, draws)
                want = oracle.uniform_mutations(v, space, dist, reps, b)
            assert len(got) == len(want) == reps
            assert _rows_bits(got) == _rows_bits(want)
            assert all(type(x) is float for row in got for x in row)
            if stream is None:
                assert _same_state(a.bit_generator.state,
                                   b.bit_generator.state)
        if stream is not None:
            stream.flush()
        assert _same_state(a.bit_generator.state, b.bit_generator.state)
        assert a.integers(0, 2, size=5).tolist() \
            == b.integers(0, 2, size=5).tolist()
        assert a.random(3).tobytes() == b.random(3).tobytes()

    def test_greedy_zero_jitter_clears_negative_zero(self):
        """With a ``(0, 0)`` frame the magnitude is ``0.0``, so on a
        ``-0.0`` coordinate moving down ``x + u * magnitude`` is ``-0.0``;
        the reference's zero jitter turns it into ``0.0``, and so must
        GREEDY."""
        space = ParameterSpace((ParameterRange(-10.0, 10.0, False),) * 2)
        target = Cluster(center=np.array([-5.0, 5.0]))
        a = np.random.default_rng(0)
        b = np.random.default_rng(0)
        args = ((-0.0, 5.0), space, target, 5.0, (0.0, 0.0), 3)
        got = greedy_mutations(*args, a)
        assert _rows_bits(got) \
            == _rows_bits(oracle.greedy_mutations(*args, b))
        assert [math.copysign(1.0, row[0]) for row in got] == [1.0] * 3

    def test_random_is_uniform_zero_one(self):
        """MUTATE's epsilon-greedy ``prob`` is ``rng.random()``: the double
        ``rng.uniform(0.0, 1.0)`` gives, and the same state."""
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        for _ in range(200):
            assert a.random() == float(b.uniform(0.0, 1.0))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_vector_norm_is_sqrt_of_dot(self, d):
        """GREEDY's ``sqrt(x.dot(x))`` is ``np.linalg.norm`` of a vector."""
        rng = np.random.default_rng(d)
        for scale in (1e-3, 1.0, 300.0, 1e12):
            for x in rng.uniform(-scale, scale, size=(300, d)):
                assert math.sqrt(x.dot(x)) == float(np.linalg.norm(x))


class TestBitGeneratorRejected:
    def test_mt19937_is_rejected(self, space):
        rng = np.random.Generator(np.random.MT19937(0))
        state = rng.bit_generator.state
        with pytest.raises(BitGeneratorError):
            uniform_mutations((64, 64), space, (5, 15), 4, rng)
        target = Cluster(center=np.array([100.0, 20.0]), useful=False)
        with pytest.raises(BitGeneratorError):
            greedy_mutations((20, 20), space, target, 80.0, (5, 15), 4, rng)
        with pytest.raises(BitGeneratorError):
            WordStream(rng)
        assert _same_state(rng.bit_generator.state, state)
