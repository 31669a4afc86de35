"""Index <-> byte-offset bijections for array files.

Kondo "must maintain a mapping between index tuples and byte offsets as
fuzzing and carving happen in the d-dimensional space of the index tuples
but data accesses happen at byte offset space" (Section IV-C).  A *layout*
is that one-one mapping.  Two layouts are provided:

* :class:`RowMajorLayout` — C-order contiguous elements.
* :class:`ChunkedLayout` — see :mod:`repro.arraymodel.chunked`; chunks are
  the unit of access in real HDF5/NetCDF files (Section VI).

Both also provide vectorized (numpy) variants of the maps, which the audit
and carving layers use to translate large event batches cheaply.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.arraymodel.schema import ArraySchema
from repro.errors import LayoutError


def row_major_strides(dims: Sequence[int]) -> Tuple[int, ...]:
    """Element strides of a C-ordered array with extents ``dims``."""
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    return tuple(strides)


def flatten_index(index: Sequence[int], dims: Sequence[int]) -> int:
    """Map a d-dimensional index to its row-major flat element number."""
    if len(index) != len(dims):
        raise LayoutError(f"index rank {len(index)} != array rank {len(dims)}")
    flat = 0
    for i, d in zip(index, dims):
        if not 0 <= i < d:
            raise LayoutError(f"index {tuple(index)} out of bounds for dims {tuple(dims)}")
        flat = flat * d + i
    return flat


def unflatten_index(flat: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`flatten_index`."""
    n = 1
    for d in dims:
        n *= d
    if not 0 <= flat < n:
        raise LayoutError(f"flat index {flat} out of bounds for dims {tuple(dims)}")
    out = []
    for d in reversed(dims):
        out.append(flat % d)
        flat //= d
    return tuple(reversed(out))


def flatten_many(indices: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`flatten_index` over an ``(n, d)`` int array."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim == 1:
        indices = indices.reshape(1, -1)
    if indices.shape[1] != len(dims):
        raise LayoutError(
            f"index rank {indices.shape[1]} != array rank {len(dims)}"
        )
    lo_ok = (indices >= 0).all()
    hi_ok = (indices < np.asarray(dims, dtype=np.int64)).all()
    if not (lo_ok and hi_ok):
        raise LayoutError("one or more indices out of bounds")
    strides = np.asarray(row_major_strides(dims), dtype=np.int64)
    return indices @ strides


def unflatten_many(flat: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`unflatten_index`; returns an ``(n, d)`` array."""
    flat = np.asarray(flat, dtype=np.int64).reshape(-1)
    n = int(np.prod(dims))
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        raise LayoutError("one or more flat indices out of bounds")
    out = np.empty((flat.size, len(dims)), dtype=np.int64)
    rem = flat.copy()
    for axis in range(len(dims) - 1, -1, -1):
        out[:, axis] = rem % dims[axis]
        rem //= dims[axis]
    return out


def sorted_unique(values) -> np.ndarray:
    """Ascending distinct int64 values of ``values`` — the set kernel.

    Equal to ``np.unique(values)`` for integer input, but never takes
    numpy's hash-table path (numpy >= 2.3), which is tens of times
    slower than a sort on the million-element flat-index sets of the
    carve and the KNDS write.  Strictly increasing input (a bitmap
    read-out, an earlier kernel result) returns after one O(n) check,
    without a copy, so the result may alias ``values``.  Otherwise it
    sorts and keeps each value that differs from its left neighbour.
    Unions go through here too: ``sorted_unique(np.concatenate(parts))``.
    """
    arr = np.asarray(values, dtype=np.int64).reshape(-1)
    if arr.size < 2 or bool((arr[1:] > arr[:-1]).all()):
        return arr
    arr = np.sort(arr)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def element_runs(starts: np.ndarray, sizes: np.ndarray, itemsize: int,
                 n_elements: int) -> np.ndarray:
    """Payload element numbers whose bytes overlap each byte range.

    Range ``r`` is ``[starts[r], starts[r] + sizes[r])``, clamped to the
    ``n_elements`` stored elements; empty and out-of-payload ranges
    contribute nothing.  Returns the concatenation of every range's
    ascending run, built with one segmented ``arange`` (repeat +
    cumulative-offset subtraction) — no per-range Python work.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    firsts = np.maximum(starts // itemsize, 0)
    lasts = np.minimum(-(-(starts + sizes) // itemsize), n_elements)
    counts = np.maximum(lasts - firsts, 0)
    counts[sizes <= 0] = 0
    keep = counts > 0
    firsts, counts = firsts[keep], counts[keep]
    # Element k of run r is firsts[r] + k.
    run_offsets = np.cumsum(counts) - counts
    return (np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(firsts - run_offsets, counts))


class Layout:
    """Abstract index<->offset bijection over an :class:`ArraySchema`."""

    def __init__(self, schema: ArraySchema):
        self.schema = schema

    @property
    def payload_nbytes(self) -> int:
        """Total stored payload size in bytes (including any padding)."""
        raise NotImplementedError

    def offset_of(self, index: Sequence[int]) -> int:
        """Byte offset (within the payload) of the element at ``index``."""
        raise NotImplementedError

    def index_of(self, offset: int) -> Tuple[int, ...]:
        """Index of the element whose storage begins at byte ``offset``."""
        raise NotImplementedError

    def offsets_of(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`offset_of`."""
        raise NotImplementedError

    def indices_in_range(self, start: int, size: int) -> np.ndarray:
        """All element indices whose bytes overlap ``[start, start+size)``.

        This is the audit-side inverse map: given an I/O event's offset
        range, return the ``(n, d)`` array of touched indices.
        """
        raise NotImplementedError

    def indices_in_ranges(self, starts: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        """Batched :meth:`indices_in_range` over many offset ranges.

        Returns one ``(n, d)`` array equal to the concatenation of the
        per-range results (duplicates across overlapping ranges are the
        caller's concern, exactly as with per-range resolution), built
        vectorized from :func:`element_runs`.
        """
        raise NotImplementedError


class RowMajorLayout(Layout):
    """Contiguous C-order storage: element ``i`` lives at ``flat(i)*itemsize``."""

    def __init__(self, schema: ArraySchema):
        super().__init__(schema)
        self._strides = row_major_strides(schema.dims)

    @property
    def payload_nbytes(self) -> int:
        return self.schema.nbytes

    def offset_of(self, index: Sequence[int]) -> int:
        return flatten_index(index, self.schema.dims) * self.schema.itemsize

    def index_of(self, offset: int) -> Tuple[int, ...]:
        item = self.schema.itemsize
        if offset % item != 0:
            raise LayoutError(f"offset {offset} is not element-aligned (itemsize {item})")
        return unflatten_index(offset // item, self.schema.dims)

    def offsets_of(self, indices: np.ndarray) -> np.ndarray:
        return flatten_many(indices, self.schema.dims) * self.schema.itemsize

    def indices_in_range(self, start: int, size: int) -> np.ndarray:
        if size <= 0:
            return np.empty((0, self.schema.ndim), dtype=np.int64)
        item = self.schema.itemsize
        first = max(0, start // item)
        last = min(self.schema.n_elements, -(-(start + size) // item))
        if first >= last:
            return np.empty((0, self.schema.ndim), dtype=np.int64)
        return unflatten_many(np.arange(first, last, dtype=np.int64), self.schema.dims)

    def indices_in_ranges(self, starts: np.ndarray,
                          sizes: np.ndarray) -> np.ndarray:
        flat = element_runs(starts, sizes, self.schema.itemsize,
                            self.schema.n_elements)
        return unflatten_many(flat, self.schema.dims)


def extents_for_indices(
    layout: Layout, indices: Iterable[Sequence[int]]
) -> list:
    """Merge per-element byte extents of ``indices`` into ``(start, size)`` runs.

    Used when building a debloated file: contiguous elements collapse into a
    single extent, which is what makes the sparse KNDS payload compact.
    """
    offsets = sorted(layout.offset_of(i) for i in indices)
    item = layout.schema.itemsize
    runs = []
    for off in offsets:
        if runs and off == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + item)
        elif runs and off < runs[-1][0] + runs[-1][1]:
            continue  # duplicate index
        else:
            runs.append((off, item))
    return runs
