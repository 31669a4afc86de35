"""The Carver: from fuzz-discovered index points to the carved subset.

Combines SPLIT (per-cell hulls), the bottom-up merge (Algorithm 2), and
rasterization back to integer indices.  It runs on sorted flat keys:
the lattice reduction drops the keys that cannot be hull vertices, and
only the survivors are unflattened into cell points.  The carved subset
always includes every directly-observed index, so carving can only *add*
(interior/sandwiched) indices on top of what fuzzing proved accessible —
precision may drop, recall never does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import flatten_many, sorted_unique
from repro.carving.cells import split_into_cells
from repro.carving.merge import MergeStats, merge_hulls
from repro.errors import GeometryError, LayoutError
from repro.fuzzing.config import CarveConfig
from repro.geometry.hull import Hull
from repro.geometry.lattice import lattice_boundary_points
from repro.geometry.raster import flat_indices_in_hulls
# Unused here, but imported so perfbench's tracer, which wraps
# ``carver.integer_points_in_hulls``, still finds the name.
from repro.geometry.raster import integer_points_in_hulls  # noqa: F401
from repro.perf.bitmap import union_flat


def observed_flat_indices(points: np.ndarray,
                          dims: Sequence[int]) -> np.ndarray:
    """Flat offsets of the rounded observed points, clipped into ``dims``.

    Observed points sit on (or numerically next to) lattice points, but a
    boundary index like ``dims - 1 + 1e-9`` rounds out of the window and
    the flat-index encode would reject it — the carved subset must keep
    the nearest in-window index instead of crashing on it.
    """
    dims_arr = np.asarray(tuple(dims), dtype=np.int64)
    rounded = np.round(np.asarray(points, dtype=np.float64)).astype(np.int64)
    return flatten_many(np.clip(rounded, 0, dims_arr - 1), dims)


@dataclass
class CarveResult:
    """Output of one carving run.

    Attributes:
        hulls: the final set of merged hulls (the paper's ``H``).
        flat_indices: sorted flat indices of the carved subset
            ``I'_Theta`` (hull interiors plus all observed points).
        merge_stats: diagnostics from the merge loop.
        elapsed_seconds: wall-clock carving time.
    """

    hulls: List[Hull]
    flat_indices: np.ndarray
    merge_stats: MergeStats
    elapsed_seconds: float

    @property
    def n_hulls(self) -> int:
        return len(self.hulls)

    @property
    def n_indices(self) -> int:
        return int(self.flat_indices.size)


class Carver:
    """Convex-hull-set carver over a d-dimensional index space.

    Args:
        dims: array extents (defines both the flat<->tuple index mapping
            and the clip window for rasterization).
        config: carve configuration (cell size, merge thresholds, ...).
    """

    def __init__(self, dims: Sequence[int], config: Optional[CarveConfig] = None):
        self.dims = tuple(int(d) for d in dims)
        self.config = config if config is not None else CarveConfig()

    def hull_set(self, flat: np.ndarray) -> Tuple[List[Hull], MergeStats]:
        """The hull set ``H`` of sorted flat keys, with merge diagnostics."""
        return merge_hulls(self.build_cell_hulls(flat), self.config)

    def build_cell_hulls(self, flat: np.ndarray) -> List[Hull]:
        """SPLIT sorted flat keys into cells and hull each cell (Alg 2,
        l. 3-5).

        Keys that cannot be hull vertices of their cell are dropped
        first, so only the few survivors are unflattened to points.
        """
        size = self.config.cell_size
        cells = split_into_cells(
            lattice_boundary_points(flat, self.dims, size), self.dims, size)
        return [Hull.from_points(points) for points in cells.values()]

    def carve_points(self, points: np.ndarray) -> CarveResult:
        """Carve from an ``(n, d)`` array of index points, rounded and
        clipped into the window (:func:`observed_flat_indices`)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != len(self.dims):
            raise GeometryError(
                f"expected (n, {len(self.dims)}) points, got {points.shape}"
            )
        return self.carve_flat(observed_flat_indices(points, self.dims))

    def carve_flat(self, flat_indices: np.ndarray) -> CarveResult:
        """Carve from flat offsets (the fuzz campaign's native output)."""
        start = time.perf_counter()
        n_flat = int(np.prod(self.dims))
        flat = sorted_unique(flat_indices)
        if flat.size and (flat[0] < 0 or flat[-1] >= n_flat):
            raise LayoutError("one or more flat indices out of bounds")
        if flat.size == 0:
            return CarveResult(
                hulls=[],
                flat_indices=flat,
                merge_stats=MergeStats(0, 0, 0, 0),
                elapsed_seconds=time.perf_counter() - start,
            )
        hulls, stats = self.hull_set(flat)
        # Stay in flat-offset space end to end: hull rasterization and
        # the union with the observed keys both go through the bitmap.
        carved = union_flat(
            [flat_indices_in_hulls(hulls, self.dims,
                                   tol=self.config.raster_tol), flat],
            n_flat,
        )
        return CarveResult(
            hulls=hulls,
            flat_indices=carved,
            merge_stats=stats,
            elapsed_seconds=time.perf_counter() - start,
        )
