"""Cross-check the Hull facade's Qhull path against the own hulls.

``Hull.from_points`` hulls every full rank >= 2 with Qhull.  The
from-scratch hulls it replaced live on as :mod:`tests.oracles.hull2d`
(monotone chain) and :mod:`tests.oracles.hull3d` (incremental); these
properties hold the production facade to the oracles on exact integer
clouds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Hull
from tests.oracles.hull2d import monotone_chain, polygon_area, polygon_halfspaces
from tests.oracles.hull3d import (
    hull3d_halfspaces,
    hull3d_volume,
    incremental_hull3d,
)

points_3d = st.lists(
    st.tuples(*[st.integers(0, 12)] * 3),
    min_size=4, max_size=30,
).map(lambda pts: np.asarray(sorted(set(pts)), dtype=float))


points_2d = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    min_size=3, max_size=40,
).map(lambda pts: np.asarray(pts, dtype=float))


def full_rank(pts):
    centered = pts - pts.mean(axis=0)
    return (pts.shape[0] >= 4
            and np.linalg.matrix_rank(centered, tol=1e-8) == 3)


def oracle_contains(pts, probe, tol):
    """Containment mask of ``probe`` in the oracle hull of ``pts``."""
    hull_pts, faces = incremental_hull3d(pts)
    normals, offsets = hull3d_halfspaces(hull_pts, faces)
    return (probe @ normals.T - offsets[None, :] <= tol).all(axis=1)


class TestBackendEquivalence:
    def test_own_backend_selected(self):
        # The own (oracle) hull and the facade agree on a cube.
        corners = np.array(
            [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)],
            dtype=float,
        )
        pts, faces = incremental_hull3d(corners)
        assert hull3d_volume(pts, faces) == pytest.approx(8.0)
        assert Hull.from_points(corners).volume == pytest.approx(8.0)

    @given(points_3d)
    @settings(max_examples=40, deadline=None)
    def test_same_containment_both_backends(self, pts):
        if not full_rank(pts):
            return
        probe = np.array(
            [[x, y, z] for x in range(0, 13, 3)
             for y in range(0, 13, 3) for z in range(0, 13, 3)],
            dtype=float,
        )
        facade = Hull.from_points(pts).contains(probe, tol=1e-6)
        assert np.array_equal(facade, oracle_contains(pts, probe, 1e-6))

    @given(points_3d)
    @settings(max_examples=30, deadline=None)
    def test_same_volume_both_backends(self, pts):
        if not full_rank(pts):
            return
        own_pts, faces = incremental_hull3d(pts)
        assert Hull.from_points(pts).volume == pytest.approx(
            hull3d_volume(own_pts, faces), rel=1e-6, abs=1e-9)


class TestChainEquivalence:
    @given(points_2d)
    @settings(max_examples=120, deadline=None)
    def test_same_vertices_area_and_containment(self, pts):
        chain = monotone_chain(pts)
        if chain.shape[0] < 3:
            return  # collinear: the facade's rank-1 branch, no chain hull
        hull = Hull.from_points(pts)
        assert hull.rank == 2
        assert ({tuple(v) for v in np.round(hull.vertices, 6)}
                == {tuple(v) for v in chain})
        assert hull.volume == pytest.approx(polygon_area(chain), rel=1e-9)
        probe = np.array(
            [[x, y] for x in np.arange(-21, 21.5, 1.5)
             for y in np.arange(-21, 21.5, 1.5)],
        )
        normals, offsets = polygon_halfspaces(chain)
        expect = (probe @ normals.T - offsets[None, :] <= 1e-6).all(axis=1)
        assert np.array_equal(hull.contains(probe, tol=1e-6), expect)
