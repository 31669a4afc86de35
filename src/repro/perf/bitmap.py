"""Flat-index bitmap set operations over lattice point batches.

The pipeline repeatedly needs "sorted unique union" over large batches of
integer index points — deduplicating a workload's accessed cells, and
unioning the flat keys of overlapping hulls at the end of rasterization.
The seed implementation used ``np.unique(..., axis=0)`` on row-stacked
``(n, d)`` points, which sorts a void-dtype view and dominates the 3-D
pipelines.  Because every point lives in a known box ``[0, dims)``, the
same result is a dense ``np.bool_`` bitmap over the flat offset space:
scatter, then ``np.flatnonzero`` — ascending flat order *is* the
lexicographic row order of the unflattened points, so outputs are
bit-identical to the ``np.unique`` path.

A bitmap costs O(n_flat) whatever the input size, so it only pays when
the space is dense enough: :func:`unique_flat` scatters when
``n_flat <= 8 * len(flat)`` (and ``n_flat <= bitmap_max_cells``, the
memory cap) and otherwise hands the offsets to the sorted-set kernel
:func:`repro.arraymodel.layout.sorted_unique`.  Offsets outside
``[0, n_flat)`` raise :class:`~repro.errors.LayoutError` on either path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arraymodel.layout import row_major_strides, sorted_unique, unflatten_many
from repro.errors import LayoutError

#: Largest flat offset space (in elements) for which rasterization and
#: deduplication use a dense ``np.bool_`` bitmap.  Beyond it they sort
#: int64 keys, which needs no allocation proportional to the array
#: volume.  2**26 bools = 64 MiB.
DEFAULT_BITMAP_MAX_CELLS = 1 << 26

#: A dense bitmap is used only when ``n_flat <= DENSE_RATIO * len(flat)``:
#: its O(n_flat) clear-and-scan beats an O(m log m) sort of ``m`` offsets
#: only while the space is within about 8x of ``m`` (at 7 M cells a
#: bitmap took 9.4 ms against 2.5 ms for a sort of 256 k offsets; the
#: two met near m = 900 k).
DENSE_RATIO = 8


def unique_flat(
    flat: np.ndarray,
    n_flat: int,
    max_cells: int = DEFAULT_BITMAP_MAX_CELLS,
) -> np.ndarray:
    """Sorted unique flat offsets, via bitmap when the space is dense.

    Raises :class:`LayoutError` if any offset lies outside
    ``[0, n_flat)``.
    """
    flat = np.asarray(flat, dtype=np.int64).reshape(-1)
    if flat.size == 0:
        return flat
    if flat.min() < 0 or flat.max() >= n_flat:
        raise LayoutError(f"flat offsets outside [0, {n_flat})")
    if n_flat <= min(max_cells, DENSE_RATIO * flat.size):
        bitmap = np.zeros(n_flat, dtype=bool)
        bitmap[flat] = True
        return np.flatnonzero(bitmap).astype(np.int64)
    return sorted_unique(flat)


def union_flat(
    parts: Sequence[np.ndarray],
    n_flat: int,
    max_cells: int = DEFAULT_BITMAP_MAX_CELLS,
) -> np.ndarray:
    """Sorted union of several flat offset arrays."""
    parts = [np.asarray(p, dtype=np.int64).reshape(-1) for p in parts]
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return unique_flat(parts[0], n_flat, max_cells)
    return unique_flat(np.concatenate(parts), n_flat, max_cells)


def unique_lattice_points(
    points: np.ndarray,
    dims: Sequence[int],
    max_cells: int = DEFAULT_BITMAP_MAX_CELLS,
) -> np.ndarray:
    """Lexicographically-sorted unique rows of in-bounds integer points.

    Drop-in replacement for ``np.unique(points, axis=0)`` when every row
    lies in ``[0, dims)``; a row outside raises :class:`LayoutError` (the
    workload access paths and the rasterizer clip first).

    Args:
        points: ``(n, d)`` integer points inside ``[0, dims)``.
        dims: array extents defining the flat offset space.
        max_cells: dense-bitmap memory cap; larger spaces sort int64 keys.

    Returns:
        ``(m, d)`` int64 array of unique rows in lexicographic order —
        bit-identical to the ``np.unique(..., axis=0)`` output.
    """
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != len(dims):
        raise ValueError(
            f"expected (n, {len(dims)}) points, got shape {pts.shape}"
        )
    if pts.shape[0] == 0:
        return pts.copy()
    # One unsigned max per axis: a negative coordinate reads as >= 2**63,
    # so a row outside the box raises instead of wrapping to another cell.
    cols = pts.view(np.uint64)
    if any(int(cols[:, k].max()) >= d for k, d in enumerate(dims)):
        raise LayoutError(f"lattice points outside [0, {tuple(dims)})")
    strides = np.asarray(row_major_strides(dims), dtype=np.int64)
    flat = unique_flat(pts @ strides, int(np.prod(dims)), max_cells)
    return unflatten_many(flat, dims)
