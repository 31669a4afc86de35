"""Lattice reduction of sorted flat keys before hulling.

A lattice point whose -1 and +1 neighbours along some axis are both in
its cell is the midpoint of two cell points, so it is never a hull
vertex at any rank.  Dropping such points works on the keys one axis
(one n-vector) at a time, never on the unflattened cloud; a solid box
keeps only its corners.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arraymodel.layout import row_major_strides
from repro.perf.bitmap import DEFAULT_BITMAP_MAX_CELLS


def lattice_boundary_points(flat: np.ndarray, dims: Sequence[int],
                            cell_size: float,
                            max_cells: int = DEFAULT_BITMAP_MAX_CELLS
                            ) -> np.ndarray:
    """Drop keys whose two neighbours along some axis share their cell.

    Args:
        flat: ascending distinct flat offsets in ``[0, prod(dims))``.
        dims: array extents (the row-major layout of the keys).
        cell_size: SPLIT cell edge; point ``c`` lies in cell
            ``floor(c / cell_size)`` on every axis.
        max_cells: neighbour lookups use a bitmap over the offset space
            up to this many cells and ``searchsorted`` on ``flat``
            beyond it.

    Returns:
        The ascending subset of ``flat`` that can be hull vertices of
        its cell — every non-empty cell keeps at least its
        lexicographic minimum.
    """
    flat = np.asarray(flat, dtype=np.int64)
    n_flat = int(np.prod(dims))
    if n_flat <= max_cells:
        bitmap = np.zeros(n_flat, dtype=bool)
        bitmap[flat] = True
        member = bitmap.__getitem__
    else:
        def member(keys: np.ndarray) -> np.ndarray:
            pos = np.minimum(np.searchsorted(flat, keys), flat.size - 1)
            return flat[pos] == keys
    keep = np.ones(flat.size, dtype=bool)
    for dim, stride in zip(dims, row_major_strides(dims)):
        # inner[c]: both c - 1 and c + 1 lie in the window (so neither
        # neighbour key wraps a row) and in the cell of c.
        cell = np.floor(np.arange(dim) / cell_size)
        inner = np.zeros(dim, dtype=bool)
        inner[1:-1] = (cell[:-2] == cell[1:-1]) & (cell[2:] == cell[1:-1])
        idx = np.flatnonzero(keep & inner[flat // stride % dim])
        key = flat[idx]
        keep[idx[member(key - stride) & member(key + stride)]] = False
    return flat[keep]
