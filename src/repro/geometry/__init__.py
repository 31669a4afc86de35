"""Computational-geometry substrate for the carver.

A from-scratch 2-D (monotone chain) convex hull, Qhull for every rank
>= 3, a rank-aware :class:`~repro.geometry.hull.Hull` facade implementing
the paper's center/boundary distances and vertex-union merge, and lattice
rasterization back to array indices.
"""

from repro.geometry.hull import DEFAULT_TOL, Hull
from repro.geometry.hull2d import monotone_chain, polygon_area, polygon_halfspaces
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
    "affine_basis",
    "as_points",
    "bounding_box",
    "dedupe_points",
    "min_pairwise_distance",
    "flat_indices_in_hulls",
    "integer_points_in_hulls",
]
