"""Unit tests for parameter ranges, spaces, and seeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FuzzConfigError, ProgramError
from repro.fuzzing import ParameterRange, ParameterSpace, Seed
from tests.oracles.mutation import clip_rows as oracle_clip_rows


class TestParameterRange:
    def test_inverted_rejected(self):
        with pytest.raises(FuzzConfigError):
            ParameterRange(5, 1)

    def test_cardinality_integer(self):
        assert ParameterRange(0, 9).cardinality == 10
        assert ParameterRange(3, 3).cardinality == 1

    def test_cardinality_real_rejected(self):
        with pytest.raises(FuzzConfigError):
            _ = ParameterRange(0.0, 1.0, integer=False).cardinality

    def test_clip(self):
        r = ParameterRange(0, 10)
        assert r.clip(-5) == 0.0
        assert r.clip(15) == 10.0
        assert r.clip(5.4) == 5.0  # integer rounding

    def test_clip_real(self):
        r = ParameterRange(0.0, 10.0, integer=False)
        assert r.clip(5.4) == 5.4

    def test_contains(self):
        r = ParameterRange(0, 10)
        assert r.contains(5)
        assert not r.contains(5.5)  # non-integer in integer range
        assert not r.contains(11)

    def test_sample_in_range(self, rng):
        r = ParameterRange(3, 7)
        for _ in range(50):
            x = r.sample(rng)
            assert 3 <= x <= 7
            assert float(x).is_integer()


class TestParameterSpace:
    def test_of_shorthand(self):
        s = ParameterSpace.of((0, 30), (0, 50))
        assert s.ndim == 2
        assert s.cardinality == 31 * 51

    def test_empty_rejected(self):
        with pytest.raises(FuzzConfigError):
            ParameterSpace(())

    def test_contains(self):
        s = ParameterSpace.of((0, 10), (0, 10))
        assert s.contains((5, 5))
        assert not s.contains((5,))
        assert not s.contains((11, 5))

    def test_clip_rank_mismatch(self):
        with pytest.raises(ProgramError):
            ParameterSpace.of((0, 10)).clip((1, 2))

    def test_grid_full_enumeration(self):
        s = ParameterSpace.of((0, 2), (0, 1))
        assert list(s.grid()) == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
            (1.0, 1.0), (2.0, 0.0), (2.0, 1.0),
        ]

    def test_grid_max_points(self):
        s = ParameterSpace.of((0, 100), (0, 100))
        assert len(list(s.grid(max_points=7))) == 7

    def test_grid_matches_cardinality(self):
        s = ParameterSpace.of((2, 5), (0, 3), (1, 2))
        assert len(list(s.grid())) == s.cardinality

    def test_max_extent(self):
        s = ParameterSpace.of((0, 10), (0, 100))
        assert s.max_extent == 100

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=30)
    def test_samples_always_contained(self, seed):
        rng = np.random.default_rng(seed)
        s = ParameterSpace.of((0, 30), (-5, 5), (100, 200))
        for _ in range(10):
            assert s.contains(s.sample(rng))

    def test_sample_many(self, rng):
        s = ParameterSpace.of((0, 10))
        assert len(s.sample_many(rng, 7)) == 7


class TestSeed:
    def test_lifecycle(self):
        seed = Seed(v=(1.0, 2.0))
        assert not seed.evaluated
        seed.useful = True
        assert seed.evaluated
        assert seed.key() == (1.0, 2.0)


def _scalar_clip(space, v):
    """The per-range reference: ``ParameterRange.clip`` on each value."""
    return tuple(r.clip(x) for r, x in zip(space.ranges, v))


def _bits(values):
    """Exact float bits, so ``-0.0`` and ``0.0`` differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


MIXED = ParameterSpace((
    ParameterRange(0, 10),
    ParameterRange(-3, 3),
    ParameterRange(-2.5, 7.25, integer=False),
    ParameterRange(0.0, 1.0, integer=False),
))


class TestVectorClip:
    """``clip``/``clip_rows`` clip whole rows in Python scalars; they must
    equal the per-range clip and the array-shaped reference clip float for
    float, signed zeros included."""

    @pytest.mark.parametrize("x", [0.5, 1.5, 2.5, 3.5, -0.5, -1.5, -2.5,
                                   9.5, 4.4999999, 4.5000001])
    def test_half_ties_round_to_even(self, x):
        space = ParameterSpace.of((-3, 10))
        assert _bits(space.clip((x,))) == _bits(_scalar_clip(space, (x,)))

    @pytest.mark.parametrize("x", [-1e9, -10.6, -3.0000001, 10.0000001,
                                   10.6, 1e9, -np.inf, np.inf])
    def test_out_of_range_both_sides(self, x):
        space = ParameterSpace.of((-3, 10))
        assert space.clip((x,)) == _scalar_clip(space, (x,))
        real = ParameterSpace.of((-3, 10), integer=False)
        assert _bits(real.clip((x,))) == _bits(_scalar_clip(real, (x,)))

    def test_negative_fraction_rounds_to_positive_zero(self):
        space = ParameterSpace.of((-3, 3))
        (clipped,) = space.clip((-0.3,))
        assert clipped == 0.0 and not np.signbit(clipped)
        assert _bits(space.clip((-0.3,))) == _bits(_scalar_clip(space,
                                                                (-0.3,)))

    def test_real_range_keeps_signed_zero(self):
        space = ParameterSpace.of((0.0, 1.0), integer=False)
        assert _bits(space.clip((-0.0,))) == _bits(_scalar_clip(space,
                                                                (-0.0,)))

    @given(st.lists(
        st.tuples(*[st.floats(-20, 20, allow_nan=False)] * MIXED.ndim),
        min_size=0, max_size=12,
    ))
    @settings(max_examples=200)
    def test_clip_rows_equals_scalar_clip_mixed_space(self, rows):
        arr = np.asarray(rows, dtype=np.float64).reshape(len(rows),
                                                         MIXED.ndim)
        got = MIXED.clip_rows(arr)
        want = [_scalar_clip(MIXED, row) for row in rows]
        assert [_bits(r) for r in got] == [_bits(r) for r in want]
        assert [_bits(r) for r in MIXED.clip_rows(arr.tolist())] \
            == [_bits(r) for r in oracle_clip_rows(MIXED, arr)] \
            == [_bits(r) for r in want]
        assert [_bits(MIXED.clip(row)) for row in rows] \
            == [_bits(r) for r in want]
        assert all(type(x) is float for r in got for x in r)

    def test_clip_rows_rank_mismatch(self):
        with pytest.raises(ProgramError):
            MIXED.clip_rows(np.zeros((3, 2)))

    def test_arrays_do_not_enter_equality(self):
        a = ParameterSpace.of((0, 10), (0, 5))
        b = ParameterSpace.of((0, 10), (0, 5))
        assert a == b and hash(a) == hash(b)
        assert repr(a).count("lo=") == a.ndim  # the ranges' own fields
        assert a.lo == (0.0, 0.0) and a.hi == (10.0, 5.0)
        assert all(type(x) is float for x in a.lo + a.hi)
