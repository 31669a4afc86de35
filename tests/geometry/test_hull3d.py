"""Unit + property tests for the from-scratch incremental 3-D hull.

The hull is a test oracle (:mod:`tests.oracles.hull3d`); production
hulls every rank >= 3 with Qhull.  Cross-checked against scipy's Qhull
on random point clouds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as QhullHull

from repro.errors import GeometryError
from tests.oracles.hull3d import (
    hull3d_halfspaces,
    hull3d_vertices,
    hull3d_volume,
    incremental_hull3d,
)

points_3d = st.lists(
    st.tuples(*[st.integers(0, 20)] * 3),
    min_size=4, max_size=40,
).map(lambda pts: np.asarray(pts, dtype=float))


def full_rank(pts):
    c = pts - pts.mean(axis=0)
    return np.linalg.matrix_rank(c, tol=1e-8) == 3


class TestIncrementalHull3D:
    def test_tetrahedron(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        out_pts, faces = incremental_hull3d(pts)
        assert len(faces) == 4
        assert hull3d_volume(out_pts, faces) == pytest.approx(1 / 6)

    def test_cube_with_interior_points(self):
        corners = np.array(
            [[x, y, z] for x in (0, 4) for y in (0, 4) for z in (0, 4)],
            dtype=float,
        )
        interior = np.array([[2, 2, 2], [1, 1, 3], [3, 2, 1]], dtype=float)
        pts, faces = incremental_hull3d(np.vstack([corners, interior]))
        assert hull3d_volume(pts, faces) == pytest.approx(64.0)
        verts = {tuple(v) for v in hull3d_vertices(pts, faces)}
        assert verts == {tuple(c) for c in corners}

    def test_too_few_points(self):
        with pytest.raises(GeometryError):
            incremental_hull3d(np.zeros((3, 3)))

    def test_coplanar_rejected(self):
        pts = np.array(
            [[x, y, 1] for x in range(3) for y in range(3)], dtype=float
        )
        with pytest.raises(GeometryError):
            incremental_hull3d(pts)

    def test_collinear_rejected(self):
        pts = np.array([[i, i, i] for i in range(6)], dtype=float)
        with pytest.raises(GeometryError):
            incremental_hull3d(pts)

    def test_coincident_rejected(self):
        with pytest.raises(GeometryError):
            incremental_hull3d(np.ones((5, 3)))

    @given(points_3d)
    @settings(max_examples=60, deadline=None)
    def test_volume_matches_qhull(self, pts):
        pts = np.unique(pts, axis=0)
        if pts.shape[0] < 4 or not full_rank(pts):
            return
        own_pts, faces = incremental_hull3d(pts)
        own_vol = hull3d_volume(own_pts, faces)
        ref_vol = QhullHull(pts).volume
        assert own_vol == pytest.approx(ref_vol, rel=1e-6, abs=1e-9)

    @given(points_3d)
    @settings(max_examples=60, deadline=None)
    def test_all_points_satisfy_halfspaces(self, pts):
        pts = np.unique(pts, axis=0)
        if pts.shape[0] < 4 or not full_rank(pts):
            return
        own_pts, faces = incremental_hull3d(pts)
        normals, offsets = hull3d_halfspaces(own_pts, faces)
        slack = pts @ normals.T - offsets
        assert (slack <= 1e-6).all()

    @given(points_3d)
    @settings(max_examples=40, deadline=None)
    def test_vertices_subset_of_qhull_vertices(self, pts):
        pts = np.unique(pts, axis=0)
        if pts.shape[0] < 4 or not full_rank(pts):
            return
        own_pts, faces = incremental_hull3d(pts)
        own_verts = {tuple(v) for v in hull3d_vertices(own_pts, faces)}
        ref = QhullHull(pts)
        ref_verts = {tuple(pts[i]) for i in ref.vertices}
        # Our hull may keep coplanar boundary vertices Qhull drops, but
        # every Qhull vertex (a true extreme point) must be present.
        assert ref_verts <= own_verts
