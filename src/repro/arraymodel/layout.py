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

from typing import Sequence, Tuple

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


def ragged_aranges(starts, lengths) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` for all i.

    The segmented arange: one ``arange`` over the total plus each run's
    start shifted by its output offset, repeated over the run — no
    per-run Python work.  Zero and negative lengths contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    keep = lengths > 0
    if not keep.all():
        starts, lengths = starts[keep], lengths[keep]
    offsets = np.cumsum(lengths) - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + np.repeat(starts - offsets, lengths))


def flat_runs(flat) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive values in the set of ``flat``.

    Returns ``(starts, lengths)``, ascending, with
    ``ragged_aranges(starts, lengths) == sorted_unique(flat)``.
    """
    arr = sorted_unique(flat)
    if arr.size == 0:
        return arr, arr
    heads = np.append(0, np.flatnonzero(np.diff(arr) != 1) + 1)
    return arr[heads], np.diff(heads, append=arr.size)


def merge_ranges_arrays(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized coalescing of half-open ``[start, end)`` ranges.

    Sorts by ``(start, end)``, runs a cumulative max over the ends, and
    keeps exactly the group heads where a start exceeds every earlier
    end.  Touching ranges coalesce (``s <= prev_end``) and empty ranges
    are dropped, exactly as the interval B-tree's ``merged()`` does: the
    paper's event merge, and the merge of KNDS extents.

    Returns the merged ``(starts, ends)`` pair, sorted ascending.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    ends = np.asarray(ends, dtype=np.int64).reshape(-1)
    keep = ends > starts
    if not keep.all():
        starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.lexsort((ends, starts))
    starts, ends = starts[order], ends[order]
    running_end = np.maximum.accumulate(ends)
    # A new merged group begins wherever this start lies strictly past the
    # max end of everything before it (touching ranges stay merged).
    heads = np.empty(starts.size, dtype=bool)
    heads[0] = True
    np.greater(starts[1:], running_end[:-1], out=heads[1:])
    # Each group's end is the running max just before the next group head.
    tails = np.append(np.flatnonzero(heads)[1:] - 1, starts.size - 1)
    return starts[heads], running_end[tails]


def element_runs(starts: np.ndarray, sizes: np.ndarray, itemsize: int,
                 n_elements: int) -> np.ndarray:
    """Payload element numbers whose bytes overlap each byte range.

    Range ``r`` is ``[starts[r], starts[r] + sizes[r])``, clamped to the
    ``n_elements`` stored elements; empty and out-of-payload ranges
    contribute nothing.  Returns the concatenation of every range's
    ascending run (:func:`ragged_aranges`).
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    firsts = np.maximum(starts // itemsize, 0)
    lasts = np.minimum(-(-(starts + sizes) // itemsize), n_elements)
    return ragged_aranges(firsts, np.where(sizes > 0, lasts - firsts, 0))


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

