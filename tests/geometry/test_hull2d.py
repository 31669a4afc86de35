"""Unit + property tests for the from-scratch 2-D monotone-chain hull.

The chain is a test oracle (:mod:`tests.oracles.hull2d`); production
hulls every full rank >= 2 with Qhull.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from tests.oracles.hull2d import (
    cross2,
    monotone_chain,
    polygon_area,
    polygon_halfspaces,
)

points_2d = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    min_size=1, max_size=60,
).map(lambda pts: np.asarray(pts, dtype=float))


def is_ccw(verts):
    n = len(verts)
    total = 0.0
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        total += (x2 - x1) * (y2 + y1)
    return total < 0


class TestCross2:
    def test_left_turn_positive(self):
        assert cross2(np.array([0, 0]), np.array([1, 0]), np.array([1, 1])) > 0

    def test_right_turn_negative(self):
        assert cross2(np.array([0, 0]), np.array([1, 0]), np.array([1, -1])) < 0

    def test_collinear_zero(self):
        assert cross2(np.array([0, 0]), np.array([1, 1]), np.array([2, 2])) == 0


class TestMonotoneChain:
    def test_square(self):
        pts = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [2, 2], [1, 1]], dtype=float)
        hull = monotone_chain(pts)
        assert {tuple(v) for v in hull} == {(0, 0), (4, 0), (4, 4), (0, 4)}
        assert is_ccw(hull)

    def test_collinear_points_dropped(self):
        pts = np.array([[0, 0], [2, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        hull = monotone_chain(pts)
        assert (2, 0) not in {tuple(v) for v in hull}

    def test_single_point(self):
        hull = monotone_chain(np.array([[3.0, 7.0]]))
        assert hull.shape == (1, 2)

    def test_two_points(self):
        hull = monotone_chain(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert hull.shape == (2, 2)

    def test_all_collinear(self):
        pts = np.array([[i, 2 * i] for i in range(5)], dtype=float)
        hull = monotone_chain(pts)
        assert hull.shape == (2, 2)
        assert {tuple(v) for v in hull} == {(0, 0), (4, 8)}

    def test_duplicates_removed(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=float)
        hull = monotone_chain(pts)
        assert hull.shape == (3, 2)

    @given(points_2d)
    @settings(max_examples=120)
    def test_hull_vertices_are_input_points(self, pts):
        hull = monotone_chain(pts)
        input_set = {tuple(p) for p in pts}
        assert all(tuple(v) in input_set for v in hull)

    @given(points_2d)
    @settings(max_examples=120)
    def test_all_points_inside_hull(self, pts):
        hull = monotone_chain(pts)
        if hull.shape[0] < 3:
            return  # degenerate; containment handled by Hull facade
        normals, offsets = polygon_halfspaces(hull)
        slack = pts @ normals.T - offsets
        assert (slack <= 1e-7).all()

    @given(points_2d)
    @settings(max_examples=80)
    def test_hull_is_convex_ccw(self, pts):
        hull = monotone_chain(pts)
        if hull.shape[0] < 3:
            return
        assert is_ccw(hull)
        # Strict convexity: every consecutive triple turns left.
        n = hull.shape[0]
        for i in range(n):
            o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            assert cross > 0


class TestPolygonArea:
    def test_unit_square(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_area(sq) == pytest.approx(1.0)

    def test_triangle(self):
        tri = np.array([[0, 0], [4, 0], [0, 3]], dtype=float)
        assert polygon_area(tri) == pytest.approx(6.0)

    def test_degenerate_zero(self):
        assert polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    @given(points_2d)
    @settings(max_examples=60)
    def test_area_nonnegative_and_bounded_by_bbox(self, pts):
        hull = monotone_chain(pts)
        area = polygon_area(hull)
        assert area >= 0
        spans = pts.max(axis=0) - pts.min(axis=0)
        assert area <= spans[0] * spans[1] + 1e-9


class TestPolygonHalfspaces:
    def test_square_halfspaces(self):
        sq = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        normals, offsets = polygon_halfspaces(sq)
        assert normals.shape == (4, 2)
        # Center strictly inside, outside point violating one constraint.
        center = np.array([1.0, 1.0])
        assert (normals @ center <= offsets).all()
        outside = np.array([3.0, 1.0])
        assert not (normals @ outside <= offsets).all()

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            polygon_halfspaces(np.array([[0.0, 0.0], [1.0, 1.0]]))
