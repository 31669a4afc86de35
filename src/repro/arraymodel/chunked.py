"""Chunked array layout.

Section VI of the paper: "In general, chunks form the unit of access in a
data file instead of single values. ... Kondo applies to this setting as
well since using the metadata, the byte offset of each chunk can also be
described in terms of the d-dimensions of the dataset and array index."

A :class:`ChunkedLayout` stores the array as a row-major grid of chunks;
every chunk is stored at its full nominal size (edge chunks are padded with
fill), which keeps the index<->offset map a clean bijection:

    offset(i) = (chunk_number(i) * chunk_elems + within_chunk_flat(i)) * itemsize
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import (
    Layout,
    element_runs,
    flatten_index,
    row_major_strides,
    unflatten_index,
)
from repro.arraymodel.schema import ArraySchema
from repro.errors import LayoutError, SchemaError


class ChunkedLayout(Layout):
    """Index<->offset bijection for a chunk-padded array file."""

    def __init__(self, schema: ArraySchema):
        if schema.chunks is None:
            raise SchemaError("ChunkedLayout requires a schema with chunks")
        super().__init__(schema)
        self.chunk_shape = schema.chunks
        self.grid = schema.chunk_grid
        self.chunk_elems = math.prod(self.chunk_shape)
        self.n_chunks = math.prod(self.grid)
        self._grid_strides = row_major_strides(self.grid)
        self._within_strides = row_major_strides(self.chunk_shape)

    @property
    def payload_nbytes(self) -> int:
        return self.n_chunks * self.chunk_elems * self.schema.itemsize

    def chunk_of(self, index: Sequence[int]) -> Tuple[int, ...]:
        """Chunk-grid coordinate containing ``index``."""
        return tuple(i // c for i, c in zip(index, self.chunk_shape))

    def chunk_number(self, chunk_coord: Sequence[int]) -> int:
        """Row-major ordinal of a chunk-grid coordinate."""
        return flatten_index(chunk_coord, self.grid)

    def chunk_byte_range(self, chunk_coord: Sequence[int]) -> Tuple[int, int]:
        """``(start, size)`` byte extent of a whole chunk in the payload."""
        num = self.chunk_number(chunk_coord)
        size = self.chunk_elems * self.schema.itemsize
        return num * size, size

    def offset_of(self, index: Sequence[int]) -> int:
        if not self.schema.contains_index(tuple(index)):
            raise LayoutError(
                f"index {tuple(index)} out of bounds for dims {self.schema.dims}"
            )
        coord = self.chunk_of(index)
        within = tuple(i % c for i, c in zip(index, self.chunk_shape))
        flat = (
            self.chunk_number(coord) * self.chunk_elems
            + flatten_index(within, self.chunk_shape)
        )
        return flat * self.schema.itemsize

    def index_of(self, offset: int) -> Tuple[int, ...]:
        item = self.schema.itemsize
        if offset % item != 0:
            raise LayoutError(f"offset {offset} is not element-aligned")
        flat = offset // item
        if not 0 <= flat < self.n_chunks * self.chunk_elems:
            raise LayoutError(f"offset {offset} beyond payload")
        coord = unflatten_index(flat // self.chunk_elems, self.grid)
        within = unflatten_index(flat % self.chunk_elems, self.chunk_shape)
        index = tuple(
            c * cs + w for c, cs, w in zip(coord, self.chunk_shape, within)
        )
        if not self.schema.contains_index(index):
            raise LayoutError(
                f"offset {offset} falls in chunk padding (index {index})"
            )
        return index

    def chunks_overlapping_range(self, start: int, size: int) -> range:
        """Ordinals of every chunk intersecting payload bytes
        ``[start, start + size)``.

        The chunk is the unit of access *and* of damage: the durability
        layer uses this to round a corrupt byte range outward to the
        whole chunks an origin fetch would transfer anyway.
        """
        if size <= 0 or start >= self.payload_nbytes:
            return range(0)
        chunk_nbytes = self.chunk_elems * self.schema.itemsize
        first = max(0, start) // chunk_nbytes
        last = min(self.payload_nbytes, start + size)
        return range(first, -(-last // chunk_nbytes))

    def is_padding(self, offset: int) -> bool:
        """Whether ``offset`` lies in edge-chunk padding (no logical element)."""
        try:
            self.index_of(offset - offset % self.schema.itemsize)
            return False
        except LayoutError:
            return True

    def offsets_of(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim == 1:
            indices = indices.reshape(1, -1)
        dims = np.asarray(self.schema.dims, dtype=np.int64)
        if (indices < 0).any() or (indices >= dims).any():
            raise LayoutError("one or more indices out of bounds")
        cs = np.asarray(self.chunk_shape, dtype=np.int64)
        coord = indices // cs
        within = indices % cs
        chunk_num = coord @ np.asarray(self._grid_strides, dtype=np.int64)
        within_flat = within @ np.asarray(self._within_strides, dtype=np.int64)
        return (chunk_num * self.chunk_elems + within_flat) * self.schema.itemsize

    def indices_in_range(self, start: int, size: int) -> np.ndarray:
        if size <= 0:
            return np.empty((0, self.schema.ndim), dtype=np.int64)
        item = self.schema.itemsize
        first = max(0, start // item)
        last = min(self.n_chunks * self.chunk_elems, -(-(start + size) // item))
        if first >= last:
            return np.empty((0, self.schema.ndim), dtype=np.int64)
        return self._logical_indices(np.arange(first, last, dtype=np.int64))

    def indices_in_ranges(self, starts: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        flats = element_runs(starts, sizes, self.schema.itemsize,
                             self.n_chunks * self.chunk_elems)
        return self._logical_indices(flats)

    def _logical_indices(self, flats: np.ndarray) -> np.ndarray:
        """``(n, d)`` indices of stored element numbers, padding dropped."""
        out = np.empty((flats.size, self.schema.ndim), dtype=np.int64)
        rem_c = flats // self.chunk_elems
        rem_w = flats % self.chunk_elems
        for axis in range(self.schema.ndim - 1, -1, -1):
            c = rem_c % self.grid[axis]
            w = rem_w % self.chunk_shape[axis]
            out[:, axis] = c * self.chunk_shape[axis] + w
            rem_c //= self.grid[axis]
            rem_w //= self.chunk_shape[axis]
        # Drop padding elements that fall outside the logical dims.
        dims = np.asarray(self.schema.dims, dtype=np.int64)
        keep = (out < dims).all(axis=1)
        return out[keep]


def make_layout(schema: ArraySchema) -> Layout:
    """Pick the layout implied by the schema (chunked iff chunks set)."""
    from repro.arraymodel.layout import RowMajorLayout

    if schema.chunks is not None:
        return ChunkedLayout(schema)
    return RowMajorLayout(schema)
