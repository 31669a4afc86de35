"""SPLIT: partition discovered index points into fixed-size cells.

Algorithm 2, line 3: "The d-dimensional offset space is divided into fixed
size cells.  Given a set of points that fall in cell i, a hull h_i is
computed.  If no points fall in a cell, it is discarded."

Computing several small per-cell hulls first (instead of one global hull)
is what lets the carver approximate non-convex, disjoint, or holed subsets
(paper Figure 6).  The points arrive as ascending row-major flat keys,
so ascending key order is lexicographic point order, and one stable sort
on an int64 cell key groups them with each cell's points still in that
order.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import row_major_strides
from repro.errors import GeometryError


def split_into_cells(flat: np.ndarray, dims: Sequence[int], cell_size: float
                     ) -> Dict[Tuple[int, ...], np.ndarray]:
    """Group flat keys by the fixed-size grid cell their point falls into.

    Args:
        flat: ascending distinct flat offsets in ``[0, prod(dims))``.
        dims: array extents (the row-major layout of the keys).
        cell_size: edge length of the (hyper-cubic) cells; point ``c``
            lies in cell ``floor(c / cell_size)`` on every axis.

    Returns:
        Mapping from cell grid coordinate, in lexicographic cell order,
        to the ``(m, d)`` float64 points inside it in lexicographic
        order.  Empty cells simply do not appear (they are "discarded").
    """
    flat = np.asarray(flat, dtype=np.int64)
    if flat.ndim != 1 or flat.size == 0:
        raise GeometryError(f"need non-empty flat keys, got {flat.shape}")
    if cell_size <= 0:
        raise GeometryError(f"cell_size must be positive, got {cell_size}")
    pts = np.empty((flat.size, len(dims)), dtype=np.float64)
    cells = np.empty((flat.size, len(dims)), dtype=np.int64)
    key = np.zeros(flat.size, dtype=np.int64)
    for k, (dim, stride) in enumerate(zip(dims, row_major_strides(dims))):
        pts[:, k] = flat // stride % dim
        cells[:, k] = np.floor(pts[:, k] / cell_size)
        key = key * (int(np.floor((dim - 1) / cell_size)) + 1) + cells[:, k]
    order = np.argsort(key, kind="stable")
    key, pts, cells = key[order], pts[order], cells[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], flat.size)
    return {tuple(cells[s].tolist()): pts[s:e] for s, e in zip(starts, ends)}
