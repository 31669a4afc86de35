"""Computational-geometry substrate for the carver.

Qhull for every full-rank hull of rank >= 2, a rank-aware
:class:`~repro.geometry.hull.Hull` facade in canonical form (vertices
are sorted input rows) implementing the paper's center/boundary
distances and vertex-union merge, the flat-key lattice reduction that
feeds it, and lattice rasterization back to array indices.
"""

from repro.geometry.hull import DEFAULT_TOL, Hull
from repro.geometry.primitives import (
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
    "affine_basis",
    "as_points",
    "bounding_box",
    "dedupe_points",
    "min_pairwise_distance",
    "flat_indices_in_hulls",
    "integer_points_in_hulls",
]
