"""The bitmap/column-span raster vs the per-point reference raster in
``tests/oracles/raster_points.py``, and the empty-input shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many
from repro.geometry.hull import Hull
from repro.geometry.raster import flat_indices_in_hulls, integer_points_in_hulls
from repro.perf.bitmap import DEFAULT_BITMAP_MAX_CELLS
from tests.oracles import raster_points as oracle


def _random_hulls(rng, d, n_hulls, extent, spread=5.0):
    hulls = []
    for _ in range(n_hulls):
        c = rng.uniform(-2, extent + 2, size=d)
        m = int(rng.integers(1, 7))
        hulls.append(Hull.from_points(c + rng.uniform(-spread, spread, (m, d))))
    return hulls


def _oracle_flat(hulls, dims, tol=0.5):
    return flatten_many(oracle.integer_points_in_hulls(hulls, dims, tol=tol),
                        dims)


class TestEmptyInput:
    def test_dims_fallback(self):
        out = integer_points_in_hulls([], (4, 5))
        assert out.shape == (0, 2)
        assert out.dtype == np.int64
        # The fixed shape must survive the downstream flat encode.
        assert flatten_many(out, (4, 5)).shape == (0,)

    def test_flat_union_of_nothing(self):
        assert flat_indices_in_hulls([], (4, 4)).size == 0

    def test_hull_fully_outside_window(self):
        h = Hull.from_points(np.array([[50.0, 50.0], [52.0, 51.0]]))
        assert integer_points_in_hulls([h], (4, 4)).shape == (0, 2)
        assert flat_indices_in_hulls([h], (4, 4)).size == 0


class TestBitmapEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        d=st.sampled_from([2, 3]),
        n_hulls=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_union(self, seed, d, n_hulls):
        rng = np.random.default_rng(seed)
        dims = (14,) * d
        hulls = _random_hulls(rng, d, n_hulls, extent=14)
        reference = oracle.integer_points_in_hulls(hulls, dims)
        points = integer_points_in_hulls(hulls, dims)
        assert points.dtype == reference.dtype
        assert np.array_equal(points, reference)
        assert np.array_equal(flat_indices_in_hulls(hulls, dims),
                              flatten_many(reference, dims))

    def test_key_accumulator_beyond_bitmap_cutoff(self):
        """Small hulls in offset spaces past the dense-bitmap cutoff go
        through the sorted-key accumulator, with the same answer: 20
        random hull sets each in 1024^3 and 16384^2."""
        for dims in ((1024, 1024, 1024), (16384, 16384)):
            assert int(np.prod(dims)) > DEFAULT_BITMAP_MAX_CELLS
            for seed in range(20):
                rng = np.random.default_rng(seed)
                # Near one corner half the time, so the window clip is
                # exercised too.
                extent = 40 if seed % 2 else dims[0]
                hulls = _random_hulls(rng, len(dims),
                                      int(rng.integers(1, 5)),
                                      extent=extent, spread=6.0)
                assert np.array_equal(flat_indices_in_hulls(hulls, dims),
                                      _oracle_flat(hulls, dims)), (dims, seed)

    def test_covered_hull_skip_keeps_union_exact(self):
        """A hull nested in an already-rasterized hull changes nothing."""
        big = Hull.from_points(
            np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0], [12.0, 12.0]])
        )
        small = Hull.from_points(np.array([[4.0, 4.0], [6.0, 5.0], [5.0, 7.0]]))
        dims = (16, 16)
        both = flat_indices_in_hulls([big, small], dims)
        alone = flat_indices_in_hulls([big], dims)
        assert np.array_equal(both, alone)
        # And in the other order the shortcut can't fire, same answer.
        assert np.array_equal(flat_indices_in_hulls([small, big], dims), both)


#: Degenerate hulls: a point, segments, a flat triangle and a plane in
#: 3-D, collinear runs — every rank below the ambient dimension.
DEGENERATE = [
    [[3.0, 5.0]],
    [[0.0, 0.0], [3.0, 3.0]],
    [[1.0, 2.0], [7.0, 4.0]],
    [[2.0, 1.0], [2.0, 9.0], [2.0, 5.0]],
    [[1.0, 1.0, 1.0]],
    [[0.0, 0.0, 0.0], [5.0, 3.0, 1.0]],
    [[1.0, 1.0, 2.0], [6.0, 1.0, 2.0], [1.0, 7.0, 2.0]],
    [[x, y, 2.0 + 0.5 * x] for x in range(4) for y in range(3)],
]


class TestSingleHull:
    """``flat_indices_in_hulls([h], dims)`` is the per-point raster of
    one hull — what the simple-convex carver rasterizes."""

    @pytest.mark.parametrize("tol", [0.0, 0.5])
    @pytest.mark.parametrize("points", DEGENERATE,
                             ids=[f"degenerate{i}" for i in range(len(DEGENERATE))])
    def test_degenerate_hulls(self, points, tol):
        h = Hull.from_points(np.array(points))
        dims = (12,) * h.ndim
        expect = flatten_many(oracle.integer_points_in_hull(h, dims, tol=tol),
                              dims)
        assert np.array_equal(flat_indices_in_hulls([h], dims, tol=tol),
                              expect)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        d=st.sampled_from([2, 3]),
        n_points=st.integers(min_value=1, max_value=8),
        tol=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_hulls(self, seed, d, n_points, tol):
        rng = np.random.default_rng(seed)
        # Integer points (as the carver sees them) make low ranks common.
        pts = rng.integers(0, 12, size=(n_points, d)).astype(np.float64)
        h = Hull.from_points(pts)
        dims = (12,) * d
        expect = flatten_many(oracle.integer_points_in_hull(h, dims, tol=tol),
                              dims)
        assert np.array_equal(flat_indices_in_hulls([h], dims, tol=tol),
                              expect)


class TestBoxShortcut:
    def test_box_hull_needs_no_contains_calls(self):
        """A box hull's whole lattice window passes the corner shortcut —
        the result still matches the per-point path."""
        box = Hull.from_points(
            np.array([[1.0, 1.0], [9.0, 1.0], [1.0, 9.0], [9.0, 9.0]])
        )
        pts = integer_points_in_hulls([box], (12, 12), tol=0.0)
        xs = np.arange(1, 10)
        expect = np.array([[x, y] for x in xs for y in xs])
        assert np.array_equal(pts, expect)
