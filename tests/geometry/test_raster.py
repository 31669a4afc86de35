"""Unit + property tests for hull rasterization back to lattice indices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull, integer_points_in_hulls


def _raster(hull, dims=None, tol=0.5):
    """One hull's lattice points within ``dims`` (a window wide enough
    for every hull below when omitted)."""
    if dims is None:
        dims = (32,) * hull.ndim
    return integer_points_in_hulls([hull], dims, tol=tol)


class TestRaster2D:
    def test_square_exact(self):
        h = Hull.from_points([[0, 0], [4, 0], [4, 4], [0, 4]])
        pts = _raster(h)
        assert pts.shape == (25, 2)

    def test_point(self):
        h = Hull.from_points([[3.0, 5.0]])
        assert _raster(h).tolist() == [[3, 5]]

    def test_segment_covers_its_lattice(self):
        h = Hull.from_points([[0.0, 0.0], [3.0, 3.0]])
        assert _raster(h).tolist() == [
            [0, 0], [1, 1], [2, 2], [3, 3]
        ]

    def test_dims_clipping(self):
        h = Hull.from_points([[0, 0], [9, 0], [9, 9], [0, 9]])
        pts = _raster(h, dims=(5, 5))
        assert pts.shape == (25, 2)
        assert pts.max() == 4

    def test_hull_outside_dims(self):
        h = Hull.from_points([[20, 20], [22, 20], [22, 22], [20, 22]])
        assert _raster(h, dims=(5, 5)).shape == (0, 2)

    def test_sorted_lexicographically(self):
        h = Hull.from_points([[0, 0], [3, 0], [3, 3], [0, 3]])
        pts = _raster(h)
        flat = [tuple(p) for p in pts]
        assert flat == sorted(flat)

    def test_tol_zero_excludes_boundary_slack(self):
        tri = Hull.from_points([[0, 0], [2, 0], [0, 2]])
        strict = _raster(tri, tol=0.0)
        fat = _raster(tri, tol=0.5)
        assert len(fat) >= len(strict)
        assert {tuple(p) for p in strict} <= {tuple(p) for p in fat}


class TestRaster3D:
    def test_cube(self):
        corners = [[x, y, z] for x in (0, 4) for y in (0, 4) for z in (0, 4)]
        h = Hull.from_points(corners)
        pts = _raster(h)
        assert pts.shape == (125, 3)

    def test_plane_in_3d(self):
        plane = [[x, y, 2] for x in range(3) for y in range(3)]
        h = Hull.from_points(plane)
        pts = _raster(h)
        assert pts.shape == (9, 3)
        assert (pts[:, 2] == 2).all()


class TestRasterUnion:
    def test_disjoint_union(self):
        a = Hull.from_points([[0, 0], [2, 0], [2, 2], [0, 2]])
        b = Hull.from_points([[10, 10], [12, 10], [12, 12], [10, 12]])
        pts = integer_points_in_hulls([a, b], (16, 16))
        assert pts.shape == (18, 2)

    def test_overlapping_deduplicated(self):
        a = Hull.from_points([[0, 0], [4, 0], [4, 4], [0, 4]])
        b = Hull.from_points([[2, 2], [6, 2], [6, 6], [2, 6]])
        pts = integer_points_in_hulls([a, b], (16, 16))
        flats = {tuple(p) for p in pts}
        assert len(flats) == len(pts)
        assert (2, 2) in flats and (0, 0) in flats and (6, 6) in flats

    def test_empty_list(self):
        assert integer_points_in_hulls([], (4, 5)).shape == (0, 2)


@given(st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)),
    min_size=1, max_size=25,
))
@settings(max_examples=60, deadline=None)
def test_raster_superset_of_inputs(pts):
    """Every input lattice point must appear in its own hull's raster."""
    arr = np.asarray(pts, dtype=float)
    h = Hull.from_points(arr)
    raster = {tuple(p) for p in _raster(h)}
    assert {tuple(map(int, p)) for p in pts} <= raster


@given(st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=3, max_size=25,
))
@settings(max_examples=40, deadline=None)
def test_raster_matches_containment(pts):
    """The raster is the lattice points passing contains(), clipped to the
    hull's padded bounding box (halfspace slack can leak past acute
    vertices; the bbox clip deliberately cuts that off)."""
    arr = np.asarray(pts, dtype=float)
    h = Hull.from_points(arr)
    raster = {tuple(p) for p in _raster(h, dims=(13, 13))}
    lo, hi = h.bounding_box()
    grid = np.array([[x, y] for x in range(13) for y in range(13)], dtype=float)
    inside = h.contains(grid, tol=0.5)
    in_bbox = ((grid >= np.floor(lo - 0.5)) & (grid <= np.ceil(hi + 0.5))).all(axis=1)
    expect = {
        tuple(map(int, g)) for g, m, b in zip(grid, inside, in_bbox) if m and b
    }
    assert raster == expect
