"""Full-rank convex hulls of rank >= 2 via Qhull.

Every full-rank hull the :class:`~repro.geometry.hull.Hull` facade builds
above rank 1 — the 2-D programs' cells, the faces of 3-D cells, the 3-D
programs' volumes — goes through scipy's Qhull bindings behind one
(vertex rows, halfspaces, volume) interface.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.errors import GeometryError
from repro.geometry.primitives import as_points, dedupe_points


def qhull_index(pts: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Full-rank hull of the ``(n, r)`` rows ``pts``, r >= 2.

    Returns ``(index, normals, offsets, volume)``: the row numbers of the
    hull vertices in Qhull's order, and outward unit normals such that
    interior points satisfy ``normals @ x <= offsets``.
    """
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise GeometryError(f"Qhull failed (degenerate input?): {exc}") from exc
    eqs = hull.equations  # rows: [normal..., offset], normal @ x + offset <= 0
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 1e-12
    normals = normals[keep] / norms[keep, None]
    offsets = offsets[keep] / norms[keep]
    return hull.vertices, normals, offsets, float(hull.volume)


def qhull_hull(points: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Full-rank hull in any dimension >= 2.

    Returns ``(vertices, normals, offsets, volume)`` as
    :func:`qhull_index` does, with the vertex rows themselves.  2-D
    vertices run counter-clockwise from the lexicographically smallest
    one; higher-rank vertices keep the (lexicographic) row order of the
    deduplicated input.
    """
    pts = dedupe_points(as_points(points))
    index, normals, offsets, volume = qhull_index(pts)
    if pts.shape[1] == 2:
        # Qhull lists 2-D vertices counter-clockwise from an arbitrary
        # one; the rows are sorted, so the smallest index is the
        # lexicographic minimum.
        index = np.roll(index, -int(index.argmin()))
    return pts[index], normals, offsets, volume
