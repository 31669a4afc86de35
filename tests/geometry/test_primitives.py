"""Unit tests for geometric primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.primitives import (
    affine_basis,
    as_points,
    bounding_box,
    dedupe_points,
    min_pairwise_distance,
    project_to_subspace,
    subspace_residual,
)


class TestAsPoints:
    def test_1d_promoted(self):
        assert as_points([1.0, 2.0]).shape == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            as_points(np.empty((0, 2)))

    def test_ndim_enforced(self):
        with pytest.raises(GeometryError):
            as_points([[1, 2, 3]], ndim=2)

    def test_3d_array_rejected(self):
        with pytest.raises(GeometryError):
            as_points(np.zeros((2, 2, 2)))


class TestAffineBasis:
    def test_single_point_rank0(self):
        origin, basis, rank = affine_basis([[3.0, 4.0]])
        assert rank == 0
        assert basis.shape == (0, 2)
        assert origin.tolist() == [3.0, 4.0]

    def test_collinear_rank1(self):
        pts = [[0, 0], [1, 1], [2, 2], [5, 5]]
        _, basis, rank = affine_basis(pts)
        assert rank == 1
        # Basis direction parallel to (1, 1).
        d = basis[0] / np.linalg.norm(basis[0])
        assert abs(abs(d @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-9

    def test_full_rank_2d(self):
        _, basis, rank = affine_basis([[0, 0], [1, 0], [0, 1]])
        assert rank == 2
        # Orthonormal rows.
        assert np.allclose(basis @ basis.T, np.eye(2))

    def test_plane_in_3d_rank2(self):
        pts = [[x, y, 7.0] for x in range(3) for y in range(3)]
        _, basis, rank = affine_basis(pts)
        assert rank == 2

    def test_projection_roundtrip(self):
        pts = np.array([[x, y, 7.0] for x in range(3) for y in range(3)])
        origin, basis, rank = affine_basis(pts)
        coords = project_to_subspace(pts, origin, basis)
        recon = origin + coords @ basis
        assert np.allclose(recon, pts)

    def test_residual_zero_on_subspace(self):
        pts = np.array([[x, 2.0 * x] for x in range(5)], dtype=float)
        origin, basis, _ = affine_basis(pts)
        assert np.allclose(subspace_residual(pts, origin, basis), 0.0)

    def test_residual_positive_off_subspace(self):
        pts = np.array([[x, 2.0 * x] for x in range(5)], dtype=float)
        origin, basis, _ = affine_basis(pts)
        off = np.array([[0.0, 1.0]])
        assert subspace_residual(off, origin, basis)[0] > 0.1


class TestDistances:
    def test_min_pairwise_known(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[4.0, 0.0], [10.0, 0.0]])
        assert min_pairwise_distance(a, b) == pytest.approx(3.0)

    def test_min_pairwise_zero_on_shared_point(self):
        a = np.array([[0.0, 0.0], [5.0, 5.0]])
        b = np.array([[5.0, 5.0]])
        assert min_pairwise_distance(a, b) == 0.0

    @given(
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                 min_size=1, max_size=15),
        st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                 min_size=1, max_size=15),
    )
    @settings(max_examples=60)
    def test_min_pairwise_matches_bruteforce(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        expect = min(
            float(np.linalg.norm(p - q)) for p in a for q in b
        )
        assert min_pairwise_distance(a, b) == pytest.approx(expect)


class TestMisc:
    def test_dedupe(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        assert dedupe_points(pts).shape == (2, 2)

    def test_bounding_box(self):
        lo, hi = bounding_box(np.array([[1.0, 9.0], [5.0, 2.0]]))
        assert lo.tolist() == [1.0, 2.0]
        assert hi.tolist() == [5.0, 9.0]


#: Coordinates that collide often, include both signed zeros, and are
#: not all integers.
_COORDS = st.sampled_from([0.0, -0.0, 0.5, -1.25, 1e-9, 3.0, -7.0])


@st.composite
def float_cloud(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=40))
    rows = [[draw(_COORDS) for _ in range(d)] for _ in range(n)]
    rows.append([0.5] * d)  # at least one non-integer coordinate
    order = draw(st.permutations(range(len(rows))))
    return np.asarray([rows[i] for i in order], dtype=np.float64)


class TestRowDedupe:
    @given(pts=float_cloud())
    @settings(max_examples=120, deadline=None)
    def test_matches_np_unique_axis0(self, pts):
        expect = np.unique(pts, axis=0)
        got = dedupe_points(pts)
        assert got.dtype == expect.dtype
        assert np.array_equal(got, expect)

    @given(pts=float_cloud())
    @settings(max_examples=40, deadline=None)
    def test_integer_cloud_matches_np_unique_axis0(self, pts):
        ints = np.round(pts * 4)
        assert np.array_equal(dedupe_points(ints), np.unique(ints, axis=0))

    def test_signed_zeros_collapse_to_one_row(self):
        pts = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, -0.0]])
        assert dedupe_points(pts).tolist() == [[0.0, 0.0], [0.0, 0.5]]

    def test_empty_and_single_row(self):
        assert dedupe_points(np.empty((0, 3))).shape == (0, 3)
        assert dedupe_points(np.array([[1.5, 2.0]])).tolist() == [[1.5, 2.0]]
