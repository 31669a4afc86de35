"""The carve front end on float rows: SPLIT, then per-cell stripping.

Production works on sorted flat keys: it drops each point that is the
midpoint of two cell points along some axis, then unflattens only the
survivors and groups them by one stable sort on an int64 cell key.
This is the reference it replaced: the observed set unflattened to
``(n, d)`` float rows, lexsorted into cells, and each cell stripped of
the points all of whose 2d axis neighbours are in it.  Both keep every
hull vertex, so under canonical hulls both give equal cell hulls.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import unflatten_many
from repro.errors import GeometryError
from repro.geometry.hull import Hull
from repro.geometry.primitives import as_points


def split_into_cells(points: np.ndarray, cell_size: float
                     ) -> Dict[Tuple[int, ...], np.ndarray]:
    """Group ``(n, d)`` points by their grid cell, in lexicographic cell
    order; empty cells do not appear."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise GeometryError(f"need a non-empty (n, d) point array, got {pts.shape}")
    if cell_size <= 0:
        raise GeometryError(f"cell_size must be positive, got {cell_size}")
    coords = np.floor(pts / cell_size).astype(np.int64)
    order = np.lexsort(coords.T[::-1])
    coords_sorted = coords[order]
    pts_sorted = pts[order]
    boundaries = np.flatnonzero((np.diff(coords_sorted, axis=0) != 0).any(axis=1))
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [pts_sorted.shape[0]]))
    out: Dict[Tuple[int, ...], np.ndarray] = {}
    for s, e in zip(starts, ends):
        key = tuple(int(c) for c in coords_sorted[s])
        out[key] = pts_sorted[s:e]
    return out


def lattice_boundary_points(points: np.ndarray) -> np.ndarray:
    """Drop integer points all of whose 2d axis neighbours are in the set;
    non-integer and tiny clouds pass through."""
    pts = as_points(points)
    ints = np.round(pts).astype(np.int64)
    if not np.allclose(pts, ints):
        return pts
    n, d = ints.shape
    if n <= 2 * d + 1:
        return pts
    lo = ints.min(axis=0)
    local = ints - lo
    extents = local.max(axis=0) + 3  # +3: room for the +/-1 neighbor probes
    strides = np.empty(d, dtype=np.int64)
    strides[-1] = 1
    for k in range(d - 2, -1, -1):
        strides[k] = strides[k + 1] * extents[k + 1]
    keys = (local + 1) @ strides
    key_set = np.sort(keys)
    interior = np.ones(n, dtype=bool)
    for k in range(d):
        for sign in (-1, 1):
            probe = keys + sign * strides[k]
            pos = np.searchsorted(key_set, probe)
            pos = np.clip(pos, 0, key_set.size - 1)
            interior &= key_set[pos] == probe
    return pts[~interior]


def cell_hulls(flat: np.ndarray, dims: Sequence[int],
               cell_size: float) -> List[Hull]:
    """Cell hulls of sorted flat keys through the float-row front end."""
    points = unflatten_many(flat, dims).astype(np.float64)
    return [Hull.from_points(lattice_boundary_points(cell))
            for cell in split_into_cells(points, cell_size).values()]
