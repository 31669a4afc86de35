"""Unit + property tests for the lattice reduction of sorted flat keys."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many, sorted_unique, unflatten_many
from repro.geometry import Hull
from repro.geometry.lattice import lattice_boundary_points
from tests.oracles import carve_front


def _reduce(pts, dims, cell_size=64.0, **kw):
    """Surviving points of ``pts`` as a set of tuples."""
    flat = sorted_unique(flatten_many(np.asarray(sorted(pts)), dims))
    kept = lattice_boundary_points(flat, dims, cell_size, **kw)
    return {tuple(p) for p in unflatten_many(kept, dims).tolist()}


class TestLatticeBoundary:
    def test_dense_square_keeps_ring(self):
        pts = [[x, y] for x in range(5) for y in range(5)]
        kept = _reduce(pts, (8, 8))
        # Every non-corner is the midpoint of two neighbours along some
        # axis, so only the 4 corners survive.
        assert kept == {(0, 0), (0, 4), (4, 0), (4, 4)}

    def test_sparse_points_all_kept(self):
        pts = [[0, 0], [5, 5], [10, 0]]
        assert _reduce(pts, (16, 16)) == {(0, 0), (5, 5), (10, 0)}

    def test_tiny_input_passthrough(self):
        assert _reduce([[0, 0], [1, 1]], (4, 4)) == {(0, 0), (1, 1)}

    def test_dense_cube_3d(self):
        pts = [[x, y, z] for x in range(4) for y in range(4) for z in range(4)]
        assert len(_reduce(pts, (8, 8, 8))) == 8  # the cube's corners

    def test_neighbours_in_other_cells_do_not_count(self):
        # A row 0..9 across cells of 4: each cell keeps its own ends.
        kept = _reduce([[3, x] for x in range(10)], (8, 16), cell_size=4.0)
        assert kept == {(3, 0), (3, 3), (3, 4), (3, 7), (3, 8), (3, 9)}

    def test_rows_do_not_wrap_at_the_window_edge(self):
        # (0, 7) and (1, 0) are adjacent keys but not axis neighbours.
        pts = [[0, 6], [0, 7], [1, 0], [1, 1]]
        assert _reduce(pts, (2, 8)) == {tuple(p) for p in pts}

    def test_fractional_cell_size(self):
        kept = _reduce([[0, x] for x in range(6)], (1, 8), cell_size=2.5)
        # Cells [0, 2.5) and [2.5, 5) hold 0..2 and 3..4; 5 is alone.
        assert kept == {(0, 0), (0, 2), (0, 3), (0, 4), (0, 5)}

    @given(st.sets(
        st.tuples(st.integers(0, 10), st.integers(0, 10)),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=80, deadline=None)
    def test_hull_unchanged_by_stripping(self, pts):
        """The reduction must never change the resulting hull."""
        dims = (11, 11)
        arr = np.asarray(sorted(pts), dtype=float)
        full = Hull.from_points(arr)
        stripped = Hull.from_points(np.asarray(sorted(_reduce(pts, dims)),
                                               dtype=float))
        assert stripped == full
        probe = np.array(
            [[x, y] for x in range(-1, 12) for y in range(-1, 12)],
            dtype=float,
        )
        assert np.array_equal(
            full.contains(probe, tol=1e-6),
            stripped.contains(probe, tol=1e-6),
        )

    @given(st.sets(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=80,
    ), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_extreme_points_never_stripped_3d(self, pts, bitmap):
        arr = np.asarray(sorted(pts), dtype=float)
        kept = _reduce(pts, (9, 9, 9), max_cells=729 if bitmap else 0)
        # Componentwise extremes are always boundary points.
        for axis in range(3):
            lo = arr[arr[:, axis].argmin()]
            hi = arr[arr[:, axis].argmax()]
            assert tuple(lo) in kept
            assert tuple(hi) in kept


class TestFloatRowOracle:
    """The float-row reference in ``tests/oracles/carve_front.py``."""

    def test_non_integer_passthrough(self):
        pts = np.array([[0.5, 0.5], [1.5, 1.5], [0.5, 1.5], [2.5, 0.5],
                        [3.5, 3.5], [2.5, 2.5]], dtype=float)
        assert carve_front.lattice_boundary_points(pts).shape == pts.shape

    def test_dense_square_keeps_ring(self):
        pts = np.array([[x, y] for x in range(5) for y in range(5)],
                       dtype=float)
        assert carve_front.lattice_boundary_points(pts).shape[0] == 25 - 9
