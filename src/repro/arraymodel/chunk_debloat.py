"""Chunk-granular debloating (paper Section VI).

"In general, chunks form the unit of access in a data file instead of
single values" — real HDF5/NetCDF readers fetch whole chunks, so a
debloated file that keeps partial chunks would still fault on a chunk
fetch.  This module rounds a carved element subset *up* to whole chunks:
every chunk containing at least one carved element is kept in full.

The trade-off is measurable: chunk granularity can only improve the
effective recall (a superset is kept) at the cost of extra bytes — the
``chunk_granularity_report`` quantifies both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.arraymodel.chunked import ChunkedLayout
from repro.arraymodel.layout import sorted_unique, unflatten_many
from repro.errors import SchemaError


def chunks_for_flat_indices(
    layout: ChunkedLayout, flat_logical: np.ndarray, dims: Sequence[int]
) -> np.ndarray:
    """Ordinals of every chunk containing a carved logical element.

    Args:
        layout: the file's chunked layout.
        flat_logical: row-major *logical* flat element numbers (the carve
            result's native form).
        dims: logical array dims (must match ``layout.schema.dims``).
    """
    if tuple(dims) != layout.schema.dims:
        raise SchemaError(
            f"dims {tuple(dims)} != layout dims {layout.schema.dims}"
        )
    flat_logical = np.asarray(flat_logical, dtype=np.int64).reshape(-1)
    if flat_logical.size == 0:
        return np.empty(0, dtype=np.int64)
    idx = unflatten_many(flat_logical, dims)
    cs = np.asarray(layout.chunk_shape, dtype=np.int64)
    coords = idx // cs
    strides = np.asarray(
        [int(np.prod(layout.grid[k + 1:])) for k in range(len(layout.grid))],
        dtype=np.int64,
    )
    return sorted_unique(coords @ strides)


def chunk_keep_extents(
    layout: ChunkedLayout, chunk_ordinals: np.ndarray
) -> List[Tuple[int, int]]:
    """Payload byte extents of whole chunks, merged when adjacent."""
    ordinals = sorted_unique(chunk_ordinals)
    size = layout.chunk_elems * layout.schema.itemsize
    extents: List[Tuple[int, int]] = []
    for o in ordinals:
        start = int(o) * size
        if extents and start == extents[-1][0] + extents[-1][1]:
            extents[-1] = (extents[-1][0], extents[-1][1] + size)
        else:
            extents.append((start, size))
    return extents


def chunk_aligned_extents(
    layout: ChunkedLayout, extents: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Round payload byte extents outward to whole-chunk extents.

    Chunks are the unit of access (Section VI), so when ``kondo
    repair`` re-fetches a corrupt byte range from a chunked origin it
    plans the reads at chunk granularity: the origin would transfer the
    whole chunk regardless, and one aligned read replaces several
    sub-chunk seeks.  The result is merged and clipped to the payload.
    """
    ordinals: List[int] = []
    for start, size in extents:
        ordinals.extend(layout.chunks_overlapping_range(start, size))
    return chunk_keep_extents(layout, np.asarray(ordinals, dtype=np.int64))


@dataclass
class ChunkGranularityReport:
    """Element-vs-chunk granularity comparison for one carve result."""

    n_elements_carved: int
    n_chunks_kept: int
    n_chunks_total: int
    element_nbytes: int
    chunk_nbytes: int

    @property
    def chunk_fraction_kept(self) -> float:
        return self.n_chunks_kept / self.n_chunks_total if self.n_chunks_total else 0.0

    @property
    def inflation(self) -> float:
        """Bytes kept at chunk granularity relative to element granularity."""
        if self.element_nbytes == 0:
            return 0.0
        return self.chunk_nbytes / self.element_nbytes


def chunk_granularity_report(
    layout: ChunkedLayout, flat_logical: np.ndarray, dims: Sequence[int]
) -> ChunkGranularityReport:
    """Quantify the cost of rounding a carve result up to whole chunks."""
    chunks = chunks_for_flat_indices(layout, flat_logical, dims)
    chunk_bytes = sum(z for _s, z in chunk_keep_extents(layout, chunks))
    n_elems = sorted_unique(flat_logical).size
    return ChunkGranularityReport(
        n_elements_carved=int(n_elems),
        n_chunks_kept=int(chunks.size),
        n_chunks_total=layout.n_chunks,
        element_nbytes=int(n_elems) * layout.schema.itemsize,
        chunk_nbytes=int(chunk_bytes),
    )
