"""2-D convex hulls from scratch: Andrew's monotone chain.

Produces counter-clockwise vertices from the lexicographic minimum,
outward halfspace normals, and the shoelace area.  Production hulls
every full rank >= 2 with Qhull; on exact (integer) input this chain
is the plain reference the facade is compared with.  On inexact input
(coordinates with last-bit noise) its ``cross2 <= EPS`` pop can drop a
real corner, which is why it left the library.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import as_points, dedupe_points

#: Absolute tolerance of the orientation test and the edge-length check.
EPS = 1e-9


def cross2(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """2-D cross product (o->a) x (o->b); positive = left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points, CCW order, no repeated endpoint.

    O(n log n); collinear points on the boundary are dropped (strict
    turns only), so the result is the minimal vertex description.
    Degenerate inputs (all points equal / collinear) return the 1- or
    2-point degenerate "hull".
    """
    pts = dedupe_points(as_points(points, ndim=2))
    n = pts.shape[0]
    if n <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2 and cross2(chain[-2], chain[-1], p) <= EPS:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # All points collinear: keep the two extremes.
        return np.vstack([pts[0], pts[-1]])
    return np.asarray(hull)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a CCW polygon."""
    v = as_points(vertices, ndim=2)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.abs(
        np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
    ))


def polygon_halfspaces(vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Outward halfspace form ``A @ x <= b`` of a CCW polygon.

    Each edge ``(v_i, v_{i+1})`` contributes one row: the outward unit
    normal and its support offset.
    """
    v = as_points(vertices, ndim=2)
    if v.shape[0] < 3:
        raise GeometryError(
            f"halfspaces need a full-rank polygon, got {v.shape[0]} vertices"
        )
    edges = np.roll(v, -1, axis=0) - v
    # CCW polygon: outward normal of edge (dx, dy) is (dy, -dx).
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    lengths = np.linalg.norm(normals, axis=1)
    if np.any(lengths < EPS):
        raise GeometryError("degenerate (zero-length) polygon edge")
    normals = normals / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets
