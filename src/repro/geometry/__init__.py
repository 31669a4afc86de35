"""Computational-geometry substrate for the carver.

From-scratch 2-D (monotone chain) and 3-D (incremental) convex hulls, a
Qhull-backed path for d >= 4, a rank-aware :class:`~repro.geometry.hull.Hull`
facade implementing the paper's center/boundary distances and vertex-union
merge, and lattice rasterization back to array indices.
"""

from repro.geometry.hull import DEFAULT_TOL, Hull
from repro.geometry.hull2d import monotone_chain, polygon_area, polygon_halfspaces
from repro.geometry.hull3d import hull3d_volume, incremental_hull3d
from repro.geometry.primitives import (
    EPS,
    affine_basis,
    as_points,
    bounding_box,
    dedupe_points,
    min_pairwise_distance,
)
from repro.geometry.raster import flat_indices_in_hulls, integer_points_in_hulls

__all__ = [
    "Hull",
    "DEFAULT_TOL",
    "EPS",
    "monotone_chain",
    "polygon_area",
    "polygon_halfspaces",
    "incremental_hull3d",
    "hull3d_volume",
    "affine_basis",
    "as_points",
    "bounding_box",
    "dedupe_points",
    "min_pairwise_distance",
    "flat_indices_in_hulls",
    "integer_points_in_hulls",
]
