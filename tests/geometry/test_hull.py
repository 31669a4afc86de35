"""Unit + property tests for the rank-aware Hull facade."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Hull

points_2d = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=1, max_size=40,
).map(lambda pts: np.asarray(pts, dtype=float))


@st.composite
def coplanar_rectangles(draw):
    """Two integer rectangles side by side in an axis-aligned plane of 3-D.

    Both span the same interval along one in-plane axis, like two cells
    of one face, so the merged hull has collinear points on two edges.
    """
    axis = draw(st.integers(0, 2))
    level = draw(st.integers(0, 200))
    free = [k for k in range(3) if k != axis]
    shared = draw(st.integers(0, 1))
    span = draw(st.tuples(st.integers(0, 40), st.integers(1, 40)))
    rects = []
    for _ in range(2):
        lo = [draw(st.integers(0, 40)) for _ in free]
        hi = [a + draw(st.integers(1, 40)) for a in lo]
        lo[shared], hi[shared] = span[0], span[0] + span[1]
        corners = np.full((4, 3), float(level))
        for row, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            corners[row, free[0]] = (lo[0], hi[0])[i]
            corners[row, free[1]] = (lo[1], hi[1])[j]
        rects.append(corners)
    return rects


class TestConstruction:
    def test_point_hull(self):
        h = Hull.from_points([[5.0, 7.0]])
        assert h.rank == 0
        assert h.volume == 0.0
        assert h.contains_point((5, 7))
        assert not h.contains_point((5, 8))

    def test_segment_hull(self):
        h = Hull.from_points([[0.0, 0.0], [4.0, 4.0], [2.0, 2.0]])
        assert h.rank == 1
        assert h.is_degenerate
        assert h.contains_point((1, 1))
        assert h.contains_point((3, 3))
        assert not h.contains_point((1, 2))
        assert not h.contains_point((5, 5))

    def test_full_rank_2d(self):
        h = Hull.from_points([[0, 0], [4, 0], [4, 4], [0, 4]])
        assert h.rank == 2
        assert not h.is_degenerate
        assert h.volume == pytest.approx(16.0)
        assert np.allclose(h.centroid, [2, 2])

    def test_full_rank_3d(self):
        corners = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        h = Hull.from_points(corners)
        assert h.rank == 3
        assert h.volume == pytest.approx(8.0)
        assert h.contains_point((1, 1, 1))
        assert not h.contains_point((3, 1, 1))

    def test_plane_in_3d(self):
        plane = [[x, y, 5] for x in range(4) for y in range(4)]
        h = Hull.from_points(plane)
        assert h.rank == 2
        assert h.ndim == 3
        assert h.contains_point((1.5, 2.0, 5.0))
        assert not h.contains_point((1.5, 2.0, 5.5))

    def test_4d_hull_via_qhull(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 5, size=(40, 4)).astype(float)
        h = Hull.from_points(pts)
        assert h.ndim == 4
        assert h.contains(pts).all()

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Hull.from_points(np.empty((0, 2)))

    def test_bounding_box(self):
        h = Hull.from_points([[1, 2], [5, 2], [3, 9]])
        lo, hi = h.bounding_box()
        assert lo.tolist() == [1, 2]
        assert hi.tolist() == [5, 9]


class TestDistances:
    def test_center_distance(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[10, 0], [12, 0], [12, 2], [10, 2]])
        assert a.center_distance(b) == pytest.approx(10.0)

    def test_boundary_distance_is_min_vertex_pair(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[5, 0], [7, 0], [7, 2], [5, 2]])
        assert a.boundary_distance(b) == pytest.approx(3.0)

    def test_degenerate_distances(self):
        a = Hull.from_points([[0.0, 0.0]])
        b = Hull.from_points([[3.0, 4.0]])
        assert a.center_distance(b) == pytest.approx(5.0)
        assert a.boundary_distance(b) == pytest.approx(5.0)


class TestMerge:
    def test_merge_covers_both(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[4, 4], [6, 4], [6, 6], [4, 6]])
        m = a.merge(b)
        assert m.contains_point((1, 1))
        assert m.contains_point((5, 5))
        assert m.contains_point((3, 3))  # sandwiched space now included

    def test_lifted_rank2_corners_kept(self):
        # Two merged rectangles in the plane x = 168 as a PRL3D 192^3
        # run hands them over: the affine lift leaves last-bit noise.
        pts = np.array([
            [168.0, 48.0, 71.0], [168.0, 48.00000000000001, 27.000000000000004],
            [168.0, 71.0, 27.0], [168.0, 71.0, 71.0],
            [168.0, 95.0, 71.0], [168.0, 95.0, 26.999999999999993],
            [168.0, 72.0, 26.999999999999993], [168.0, 72.0, 71.00000000000001],
        ])
        h = Hull.from_points(pts)
        assert h.rank == 2
        assert h.volume == pytest.approx(2068.0)
        assert h.contains(pts).all()

    @given(coplanar_rectangles())
    @settings(max_examples=200, deadline=None)
    def test_merge_of_coplanar_rectangles_keeps_vertices(self, rects):
        a, b = (Hull.from_points(r) for r in rects)
        m = a.merge(b)
        assert m.contains(a.vertices).all()
        assert m.contains(b.vertices).all()

    def test_merge_point_into_polygon(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[10.0, 10.0]])
        m = a.merge(b)
        assert m.rank == 2
        assert m.contains_point((5, 5))

    def test_merge_dimension_mismatch(self):
        a = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        b = Hull.from_points([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(GeometryError):
            a.merge(b)

    def test_merge_two_segments_makes_polygon(self):
        a = Hull.from_points([[0.0, 0.0], [4.0, 0.0]])
        b = Hull.from_points([[0.0, 3.0], [4.0, 3.0]])
        m = a.merge(b)
        assert m.rank == 2
        assert m.contains_point((2.0, 1.5))

    @given(points_2d, points_2d)
    @settings(max_examples=60, deadline=None)
    def test_merge_equivalent_to_union_hull(self, pa, pb):
        """Paper: merging via vertex union == hull of all original points."""
        a = Hull.from_points(pa)
        b = Hull.from_points(pb)
        merged = a.merge(b)
        direct = Hull.from_points(np.vstack([pa, pb]))
        probe = np.array(
            [[x, y] for x in range(0, 31, 3) for y in range(0, 31, 3)],
            dtype=float,
        )
        assert np.array_equal(
            merged.contains(probe, tol=1e-6), direct.contains(probe, tol=1e-6)
        )


class TestContainsProperties:
    @given(points_2d)
    @settings(max_examples=80, deadline=None)
    def test_input_points_always_contained(self, pts):
        h = Hull.from_points(pts)
        assert h.contains(pts, tol=1e-6).all()

    @given(points_2d)
    @settings(max_examples=60, deadline=None)
    def test_centroid_contained(self, pts):
        h = Hull.from_points(pts)
        assert h.contains(h.centroid.reshape(1, -1), tol=1e-6)[0]

    def test_hash_and_eq(self):
        a = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        b = Hull.from_points([[0, 0], [1, 0], [0, 1]])
        c = Hull.from_points([[0, 0], [2, 0], [0, 2]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


@st.composite
def ranked_clouds(draw):
    """Integer clouds of a chosen rank (0-3) in 2-D or 3-D: an integer
    origin plus integer combinations of independent integer directions."""
    d = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(0, d))
    origin = np.array([draw(st.integers(-20, 20)) for _ in range(d)])
    dirs = np.array([[draw(st.integers(-3, 3)) for _ in range(d)]
                     for _ in range(rank)]).reshape(rank, d)
    assume(np.linalg.matrix_rank(dirs) == rank if rank else True)
    n = draw(st.integers(rank + 1, 40))
    coefs = np.array([[draw(st.integers(-6, 6)) for _ in range(rank)]
                      for _ in range(n)]).reshape(n, rank)
    pts = (origin + coefs @ dirs).astype(float)
    assume(np.linalg.matrix_rank(pts - pts[0]) == rank if rank else True)
    return pts, rank


class TestCanonicalForm:
    """A hull depends only on its point set's hull, never on which
    superset of its vertices it was built from, or in which order."""

    @staticmethod
    def _assert_same(a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert a.centroid.tobytes() == b.centroid.tobytes()

    @given(ranked_clouds(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_permutations_and_vertex_supersets(self, cloud, rnd):
        pts, rank = cloud
        hull = Hull.from_points(pts)
        assert hull.rank == rank
        # Vertices are input rows in lexicographic order.
        rows = {tuple(p) for p in pts.tolist()}
        assert all(tuple(v) in rows for v in hull.vertices.tolist())
        assert hull.vertices.tolist() == sorted(hull.vertices.tolist())
        order = list(range(pts.shape[0]))
        rnd.shuffle(order)
        self._assert_same(hull, Hull.from_points(pts[order]))
        keep = [rnd.random() < 0.5 for _ in order]
        subset = np.vstack([pts[keep], hull.vertices])
        self._assert_same(hull, Hull.from_points(subset[::-1]))
        self._assert_same(hull, Hull.from_points(hull.vertices))

    def test_merge_is_symmetric(self):
        a = Hull.from_points([[0, 0, 0], [4, 0, 0], [0, 4, 0], [0, 0, 4]])
        b = Hull.from_points([[9, 9, 1], [9, 1, 9], [1, 9, 9]])
        self._assert_same(a.merge(b), b.merge(a))

    def test_2d_vertices_are_lexicographic(self):
        h = Hull.from_points([[3, 0], [4, 4], [0, 3], [1, 1], [2, 2], [0, 1]])
        assert h.vertices.tolist() == [[0, 1], [0, 3], [3, 0], [4, 4]]
