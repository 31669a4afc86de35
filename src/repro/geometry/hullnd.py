"""Convex hulls of rank >= 3 via Qhull.

Rank-2 hulls use the from-scratch monotone chain
(:mod:`~repro.geometry.hull2d`); every higher rank — the paper's 3-D
programs included — delegates to scipy's Qhull bindings behind the same
(vertices, halfspaces, volume) interface.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import as_points, dedupe_points

try:  # scipy is a declared dependency; guard anyway for partial installs.
    from scipy.spatial import ConvexHull as _QhullHull
    from scipy.spatial import QhullError as _QhullError
except ImportError:  # pragma: no cover - scipy is installed in this env
    _QhullHull = None
    _QhullError = Exception


def qhull_hull(points: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Full-rank hull in any dimension.

    Returns ``(vertices, normals, offsets, volume)`` with outward unit
    normals such that interior points satisfy ``normals @ x <= offsets``.
    """
    if _QhullHull is None:  # pragma: no cover
        raise GeometryError("scipy unavailable; rank >= 3 hulls unsupported")
    pts = dedupe_points(as_points(points))
    try:
        hull = _QhullHull(pts)
    except _QhullError as exc:
        raise GeometryError(f"Qhull failed (degenerate input?): {exc}") from exc
    vertices = pts[hull.vertices]
    eqs = hull.equations  # rows: [normal..., offset], normal @ x + offset <= 0
    normals = eqs[:, :-1]
    offsets = -eqs[:, -1]
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 1e-12
    normals = normals[keep] / norms[keep, None]
    offsets = offsets[keep] / norms[keep]
    return vertices, normals, offsets, float(hull.volume)
