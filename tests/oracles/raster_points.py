"""The per-point raster: containment-test every lattice point of a box.

Reference for :func:`repro.geometry.raster.flat_indices_in_hulls`, whose
output must equal the flattened :func:`integer_points_in_hulls` here bit
for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.geometry.hull import Hull

#: Candidate lattice points per containment batch.
_BATCH = 262_144


def _iter_box_points(lo: np.ndarray, hi: np.ndarray) -> Iterator[np.ndarray]:
    """Lattice points of the closed box ``[lo, hi]``, batched, in
    ascending row-major order."""
    d = lo.shape[0]
    extents = (hi - lo + 1).astype(np.int64)
    total = int(np.prod(extents))
    for start in range(0, total, _BATCH):
        flat = np.arange(start, min(start + _BATCH, total), dtype=np.int64)
        pts = np.empty((flat.size, d), dtype=np.int64)
        rem = flat
        for axis in range(d - 1, -1, -1):
            pts[:, axis] = rem % extents[axis] + lo[axis]
            rem = rem // extents[axis]
        yield pts


def integer_points_in_hull(
    hull: Hull,
    dims: Optional[Sequence[int]] = None,
    tol: float = 0.5,
) -> np.ndarray:
    """All integer points inside ``hull``, optionally clipped to ``dims``,
    as an ``(n, d)`` int64 array in lexicographic order."""
    d = hull.ndim
    lo, hi = hull.bounding_box()
    lo = np.floor(lo - tol).astype(np.int64)
    hi = np.ceil(hi + tol).astype(np.int64)
    if dims is not None:
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.asarray(dims, dtype=np.int64) - 1)
    out = []
    if not (lo > hi).any():
        for pts in _iter_box_points(lo, hi):
            mask = hull.contains(pts.astype(np.float64), tol=tol)
            if mask.any():
                out.append(pts[mask])
    if not out:
        return np.empty((0, d), dtype=np.int64)
    return np.concatenate(out, axis=0)


def integer_points_in_hulls(
    hulls: Iterable[Hull],
    dims: Sequence[int],
    tol: float = 0.5,
) -> np.ndarray:
    """Union of :func:`integer_points_in_hull` over several hulls, as
    unique rows in lexicographic order."""
    parts = [integer_points_in_hull(h, dims=dims, tol=tol) for h in hulls]
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty((0, len(dims)), dtype=np.int64)
    return np.unique(np.concatenate(parts, axis=0), axis=0)
