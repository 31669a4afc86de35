"""Regression: observed points that round out of the index window.

A fuzz-discovered point sitting numerically on the array boundary (e.g.
``dims - 1 + eps`` after float round-tripping) used to be rounded out of
the window and crash the flat-index encode.  The carver now clips the
rounded observed points into ``[0, dims)`` — keeping the nearest
in-window index — before unioning them with the rasterized hulls.
"""

import numpy as np

from repro.arraymodel.layout import flatten_many
from repro.carving import Carver, SimpleConvexCarver
from repro.carving.carver import observed_flat_indices
from repro.fuzzing import CarveConfig


class TestObservedFlatIndices:
    def test_in_window_points_unchanged(self):
        pts = np.array([[1.2, 2.8], [0.0, 0.0]])
        got = observed_flat_indices(pts, (8, 8))
        expect = flatten_many(np.array([[1, 3], [0, 0]]), (8, 8))
        assert np.array_equal(got, expect)

    def test_boundary_round_up_clips(self):
        # 7 + 0.4 rounds to 7 (in); 7 + 0.6 rounds to 8 (out) -> clip to 7.
        pts = np.array([[7.4, 7.6]])
        got = observed_flat_indices(pts, (8, 8))
        assert np.array_equal(got, flatten_many(np.array([[7, 7]]), (8, 8)))

    def test_negative_round_clips_to_zero(self):
        pts = np.array([[-0.6, 3.0]])
        got = observed_flat_indices(pts, (8, 8))
        assert np.array_equal(got, flatten_many(np.array([[0, 3]]), (8, 8)))


class TestCarverBoundaryPoints:
    def test_carve_survives_boundary_observations(self):
        carver = Carver((16, 16), CarveConfig(cell_size=8))
        pts = np.array([[15.51, 15.49], [14.0, 15.0], [-0.49, 0.2]])
        result = carver.carve_points(pts)
        corner = flatten_many(np.array([[15, 15]]), (16, 16))[0]
        origin_row = flatten_many(np.array([[0, 0]]), (16, 16))[0]
        assert corner in result.flat_indices
        assert origin_row in result.flat_indices
        assert result.flat_indices.min() >= 0
        assert result.flat_indices.max() < 16 * 16

    def test_simple_convex_survives_boundary_observations(self):
        carver = SimpleConvexCarver((16, 16))
        pts = np.array([[15.51, 15.49], [8.0, 8.0]])
        result = carver.carve_points(pts)
        assert result.flat_indices.max() < 16 * 16
