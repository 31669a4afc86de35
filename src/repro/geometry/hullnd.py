"""Full-rank convex hulls of rank >= 2 via Qhull.

Every full-rank hull the :class:`~repro.geometry.hull.Hull` facade builds
above rank 1 — the 2-D programs' cells, the faces of 3-D cells, the 3-D
programs' volumes — goes through scipy's Qhull bindings behind one
(vertex row numbers, halfspaces, volume) interface.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from repro.errors import GeometryError


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

