"""Geometric primitives behind the ``Hull`` facade and the Qhull wrapper.

Points are numpy float64 arrays of shape ``(n, d)``.  Rank tests take a
relative tolerance because hull inputs are integer array indices scaled by
fuzzing — exact arithmetic is unnecessary, but rank decisions must be
stable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError


def as_points(points, ndim: int = None) -> np.ndarray:
    """Validate and normalize input into an ``(n, d)`` float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise GeometryError(f"points must be 2-D, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise GeometryError("empty point set")
    if ndim is not None and pts.shape[1] != ndim:
        raise GeometryError(
            f"expected {ndim}-dimensional points, got {pts.shape[1]}"
        )
    return pts


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Distinct rows of an ``(n, d)`` array in lexicographic order.

    Equal to ``np.unique(points, axis=0)`` (under ``np.array_equal``;
    of ``-0.0`` and ``0.0`` either may survive), but by one ``lexsort``
    over the columns instead of a sort of a void-dtype row view.
    """
    pts = np.asarray(points)
    rows = pts[np.lexsort(pts.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def affine_basis(points: np.ndarray, tol: float = 1e-8
                 ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Orthonormal basis of the affine hull of ``points``.

    Returns ``(origin, basis, rank)`` where ``basis`` is ``(rank, d)`` with
    orthonormal rows; every input point satisfies
    ``p ≈ origin + coords @ basis``.  ``rank`` may be 0 (single point).
    """
    pts = as_points(points)
    origin = pts.mean(axis=0)
    centered = pts - origin
    if centered.shape[0] == 1:
        return origin, np.empty((0, pts.shape[1])), 0
    # SVD gives the principal directions; singular values below a scale-
    # relative threshold mean the points are flat along that direction.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    rank = int(np.sum(s > tol * scale))
    return origin, vt[:rank], rank


def project_to_subspace(points: np.ndarray, origin: np.ndarray,
                        basis: np.ndarray) -> np.ndarray:
    """Coordinates of ``points`` in the affine subspace (origin, basis)."""
    return (as_points(points) - origin) @ basis.T


def subspace_residual(points: np.ndarray, origin: np.ndarray,
                      basis: np.ndarray) -> np.ndarray:
    """Per-point distance from the affine subspace (origin, basis)."""
    pts = as_points(points)
    centered = pts - origin
    if basis.shape[0] == 0:
        return np.linalg.norm(centered, axis=1)
    proj = (centered @ basis.T) @ basis
    return np.linalg.norm(centered - proj, axis=1)


def min_pairwise_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum euclidean distance between two point sets.

    This is the paper's "hull boundary" distance: "hull boundary is defined
    as the minimum distance between hull vertices" (Section IV-B).
    """
    a = as_points(a)
    b = as_points(b, ndim=a.shape[1])
    # (n, m) distance matrix in blocks to bound memory for large hulls.
    best = np.inf
    block = 4096
    for i in range(0, a.shape[0], block):
        chunk = a[i:i + block]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        m = float(d2.min())
        if m < best:
            best = m
    return float(np.sqrt(best))


def bounding_box(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Componentwise ``(min, max)`` corners of a point set."""
    pts = as_points(points)
    return pts.min(axis=0), pts.max(axis=0)
