"""Simple Convex (SC) baseline carver.

Section V-C: "we use Kondo's Fuzzer with a regular convex hull computation
procedure [22]" — i.e. one global convex hull over all discovered points,
no cell split, no bottom-up merging.  On disjoint or holed subsets this
over-covers badly (paper Figure 6(b) and the SC bars in Figure 8), which
is precisely what motivates Kondo's merge-based carver.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.arraymodel.layout import flatten_many, sorted_unique, unflatten_many
from repro.carving.carver import CarveResult, observed_flat_indices
from repro.carving.merge import MergeStats
from repro.errors import GeometryError
from repro.fuzzing.config import CarveConfig
from repro.geometry.hull import Hull
from repro.geometry.lattice import lattice_boundary_points
from repro.geometry.raster import integer_points_in_hull


class SimpleConvexCarver:
    """One global hull over all points — the paper's SC baseline."""

    def __init__(self, dims: Sequence[int], config: Optional[CarveConfig] = None):
        self.dims = tuple(int(d) for d in dims)
        self.config = config if config is not None else CarveConfig()

    def carve_points(self, points: np.ndarray) -> CarveResult:
        start = time.perf_counter()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != len(self.dims):
            raise GeometryError(
                f"expected (n, {len(self.dims)}) points, got {points.shape}"
            )
        if points.shape[0] == 0:
            return CarveResult(
                hulls=[], flat_indices=np.empty(0, dtype=np.int64),
                merge_stats=MergeStats(0, 0, 0, 0),
                elapsed_seconds=time.perf_counter() - start,
            )
        hull = Hull.from_points(lattice_boundary_points(points))
        raster = integer_points_in_hull(
            hull, dims=self.dims, tol=self.config.raster_tol
        )
        carved_flat = (
            flatten_many(raster, self.dims)
            if raster.size
            else np.empty(0, dtype=np.int64)
        )
        observed_flat = observed_flat_indices(points, self.dims)
        flat = sorted_unique(np.concatenate((carved_flat, observed_flat)))
        return CarveResult(
            hulls=[hull],
            flat_indices=flat.astype(np.int64),
            merge_stats=MergeStats(1, 1, 0, 0),
            elapsed_seconds=time.perf_counter() - start,
        )

    def carve_flat(self, flat_indices: np.ndarray) -> CarveResult:
        flat = np.asarray(flat_indices, dtype=np.int64).reshape(-1)
        if flat.size == 0:
            return self.carve_points(np.empty((0, len(self.dims))))
        return self.carve_points(
            unflatten_many(flat, self.dims).astype(np.float64)
        )
