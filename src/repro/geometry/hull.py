"""The ``Hull`` facade: dimension-agnostic convex hulls with degeneracy.

Fuzz-discovered index points routinely form rank-deficient clouds — a
single point, a row of indices, a flat plane inside a 3-D array.  The
carving algorithm (paper Alg 2) must still treat them as hulls: they have
centroids, boundary distances, and can merge with neighbors.  ``Hull``
handles every rank:

* rank 0 — a point,
* rank = d — a full-dimensional hull in ambient coordinates (closed form
  for rank 1, Qhull for every rank >= 2),
* 0 < rank < d — points projected into their affine subspace, hulled there,
  with containment requiring membership of the subspace too.

Every hull is canonical: its vertices are input rows in lexicographic
order, so two hulls of the same point set compare, hash and merge alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.hullnd import qhull_index
from repro.geometry.primitives import (
    affine_basis,
    as_points,
    dedupe_points,
    min_pairwise_distance,
    project_to_subspace,
    subspace_residual,
)

#: Containment slack: an index point within this distance of the hull
#: boundary (or its affine subspace) counts as inside.  Half a grid cell is
#: the natural unit — hull vertices *are* accessed integer indices.
DEFAULT_TOL = 1e-7


@dataclass(frozen=True)
class Hull:
    """An immutable convex hull in ambient dimension ``ndim``.

    Attributes:
        vertices: ``(m, ndim)`` hull vertex coordinates.
        rank: affine rank of the hull (0 = point, ndim = full).
    """

    vertices: np.ndarray
    rank: int
    # Full-rank halfspace form (in subspace coordinates when rank < ndim).
    _normals: np.ndarray = field(repr=False)
    _offsets: np.ndarray = field(repr=False)
    _origin: np.ndarray = field(repr=False)
    _basis: np.ndarray = field(repr=False)
    _volume: float = field(repr=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_points(cls, points) -> "Hull":
        """Build the convex hull of a point cloud, at whatever rank it has.

        The vertices are input rows (only the bounding-box fallback makes
        new ones) in lexicographic order, so the result does not depend
        on which superset of them was given, or in which order.
        """
        pts = dedupe_points(as_points(points))  # sorted rows
        origin, basis, rank = affine_basis(pts)
        if rank == 0:
            return cls(
                vertices=pts[:1].copy(), rank=0,
                _normals=np.empty((0, 0)), _offsets=np.empty(0),
                _origin=origin, _basis=basis, _volume=0.0,
            )
        if rank == pts.shape[1]:
            # Full rank: hull in ambient coordinates, with no lift.
            origin, basis, coords = np.zeros(rank), np.eye(rank), pts
        else:
            coords = project_to_subspace(pts, origin, basis)  # (n, rank)
        try:
            index, normals, offsets, volume = cls._full_rank_hull(coords)
            vertices = pts[np.sort(index)]
        except GeometryError:
            # Numerically marginal rank (affine_basis said full rank, the
            # hull code disagreed): fall back to the conservative axis-
            # aligned bounding box, which over- rather than under-covers.
            corners, normals, offsets, volume = cls._bbox_hull(coords)
            vertices = dedupe_points(origin + corners @ basis)
        return cls(
            vertices=vertices, rank=rank,
            _normals=normals, _offsets=offsets,
            _origin=origin, _basis=basis, _volume=volume,
        )

    @staticmethod
    def _full_rank_hull(coords: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Hull of full-rank ``coords``; returns (vertex rows, A, b, volume)."""
        if coords.shape[1] == 1:
            lo, hi = int(coords.argmin()), int(coords.argmax())
            a, b = float(coords[lo, 0]), float(coords[hi, 0])
            normals = np.array([[-1.0], [1.0]])
            return np.array([lo, hi]), normals, np.array([-a, b]), b - a
        return qhull_index(coords)

    @staticmethod
    def _bbox_hull(coords: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Axis-aligned bounding box in halfspace form; returns (corners,
        A, b, volume)."""
        r = coords.shape[1]
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        eye = np.eye(r)
        normals = np.vstack([eye, -eye])
        offsets = np.concatenate([hi, -lo])
        volume = float(np.prod(hi - lo))
        return corners, normals, offsets, volume

    # -- basic geometry ------------------------------------------------------

    @property
    def ndim(self) -> int:
        """Ambient dimension."""
        return self.vertices.shape[1]

    @cached_property
    def centroid(self) -> np.ndarray:
        """Centroid of the hull vertices — the paper's "hull center".

        Cached: the merge loop's CLOSE predicate evaluates it O(n) times
        per hull, and ``Hull`` is immutable.
        """
        return self.vertices.mean(axis=0)

    @property
    def volume(self) -> float:
        """rank-dimensional measure (length/area/volume); 0 for points."""
        return self._volume

    @property
    def is_degenerate(self) -> bool:
        """True when the hull spans fewer dimensions than the ambient space."""
        return self.rank < self.ndim

    @cached_property
    def _bbox(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """Componentwise (min, max) corners of the hull vertices (cached)."""
        return self._bbox

    # -- containment -----------------------------------------------------------

    def contains(self, points, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Boolean mask: which ``points`` lie in the hull (within ``tol``).

        For degenerate hulls a point must additionally lie within ``tol``
        of the hull's affine subspace.
        """
        pts = as_points(points, ndim=self.ndim)
        mask = np.ones(pts.shape[0], dtype=bool)
        if self.rank < self.ndim:
            mask &= subspace_residual(pts, self._origin, self._basis) <= tol
            if self.rank == 0:
                return mask
        coords = project_to_subspace(pts, self._origin, self._basis)
        # All halfspaces: A @ x <= b (+ tol).
        slack = coords @ self._normals.T - self._offsets[None, :]
        mask &= (slack <= tol).all(axis=1)
        return mask

    def contains_point(self, point, tol: float = DEFAULT_TOL) -> bool:
        """Scalar convenience for :meth:`contains`."""
        return bool(self.contains(np.asarray(point).reshape(1, -1), tol)[0])

    # -- the paper's closeness measures -----------------------------------------

    def center_distance(self, other: "Hull") -> float:
        """Distance between hull centroids (Alg 2's center distance)."""
        return float(np.linalg.norm(self.centroid - other.centroid))

    def boundary_distance(self, other: "Hull") -> float:
        """Minimum vertex-to-vertex distance (Alg 2's boundary distance)."""
        return min_pairwise_distance(self.vertices, other.vertices)

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "Hull") -> "Hull":
        """Hull of the union of both hulls' vertices.

        Paper Section IV-B: "The merge is achieved by considering the union
        of vertices of both hulls as the points in space around which a new
        convex hull is desired.  This merge is equivalent to computing a
        hull with all respective points on which the original hulls were
        computed."
        """
        if other.ndim != self.ndim:
            raise GeometryError(
                f"cannot merge hulls of dimension {self.ndim} and {other.ndim}"
            )
        return Hull.from_points(np.vstack([self.vertices, other.vertices]))

    def __hash__(self) -> int:
        return hash((self.vertices.tobytes(), self.rank))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hull)
            and self.rank == other.rank
            and self.vertices.shape == other.vertices.shape
            and np.array_equal(self.vertices, other.vertices)
        )
