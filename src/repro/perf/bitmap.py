"""Flat-index bitmap set operations over lattice point batches.

The pipeline repeatedly needs "sorted unique union" over large batches of
integer index points — deduplicating a workload's accessed cells, and
unioning the lattice points of overlapping hulls during rasterization.
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
:func:`repro.arraymodel.layout.sorted_unique`, which is also what the
sorted-key accumulator reads out through.  Offsets outside
``[0, n_flat)`` raise :class:`~repro.errors.LayoutError` on either path.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.arraymodel.layout import row_major_strides, sorted_unique, unflatten_many
from repro.errors import LayoutError

#: Largest flat offset space (in elements) for which rasterization and
#: deduplication use a dense ``np.bool_`` bitmap.  Beyond it they fall
#: back to sorted-int64-key unions, which need no allocation proportional
#: to the array volume.  2**26 bools = 64 MiB.
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


def ragged_aranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` for all i.

    Fully vectorized; zero lengths contribute nothing.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(lengths.sum())
    bases = np.repeat(starts, lengths)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return bases + offsets


class FlatBitmap:
    """A growable-free dense membership set over ``[0, n_flat)`` offsets.

    Thin wrapper used by the rasterizer: scatter batches of flat offsets,
    read the sorted members out once at the end.
    """

    def __init__(self, n_flat: int):
        self.n_flat = int(n_flat)
        self._bits = np.zeros(self.n_flat, dtype=bool)

    def add(self, flat: np.ndarray) -> None:
        if flat.size:
            self._bits[flat] = True

    def add_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Set every offset of the inclusive spans ``[starts_i, ends_i]``.

        Boundary-delta trick: +1 at each span start, -1 past each span
        end, cumulative-sum — one O(n_flat) pass sets any number of spans
        without per-span Python work.
        """
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        keep = ends >= starts
        starts, ends = starts[keep], ends[keep]
        if starts.size == 0:
            return
        delta = np.zeros(self.n_flat + 1, dtype=np.int32)
        np.add.at(delta, starts, 1)
        np.add.at(delta, ends + 1, -1)
        self._bits |= np.cumsum(delta[:-1]) > 0

    def to_sorted(self) -> np.ndarray:
        return np.flatnonzero(self._bits).astype(np.int64)


def box_flat_indices(lo: Sequence[int], hi: Sequence[int],
                     strides: np.ndarray) -> np.ndarray:
    """Flat offsets of every lattice point in the closed box ``[lo, hi]``.

    Built by progressive broadcasting, so the result is already in
    ascending (row-major) order.
    """
    out = np.zeros(1, dtype=np.int64)
    for k in range(len(strides)):
        axis = np.arange(int(lo[k]), int(hi[k]) + 1, dtype=np.int64)
        out = (out[:, None] + (axis * strides[k])[None, :]).reshape(-1)
    return out


def make_accumulator(
    n_flat: int,
    max_cells: int = DEFAULT_BITMAP_MAX_CELLS,
    dims: Optional[Sequence[int]] = None,
) -> "FlatAccumulator":
    """Pick the dense-bitmap or sorted-key accumulator for a space size.

    Passing ``dims`` enables :meth:`FlatAccumulator.add_box`, which sets a
    whole axis-aligned lattice box at once (an nd-slice assignment on the
    dense bitmap — no per-point work at all).
    """
    if n_flat <= max_cells:
        return _BitmapAccumulator(n_flat, dims)
    return _KeyAccumulator(dims)


class FlatAccumulator:
    """Accumulates flat offsets; yields them sorted-unique at the end."""

    def add(self, flat: np.ndarray) -> None:
        raise NotImplementedError

    def add_box(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        """Add every lattice point of the closed box ``[lo, hi]``."""
        raise NotImplementedError

    def add_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """Add every offset of the inclusive flat spans ``[s_i, e_i]``."""
        raise NotImplementedError

    def to_sorted(self) -> np.ndarray:
        raise NotImplementedError


class _BitmapAccumulator(FlatAccumulator):
    def __init__(self, n_flat: int, dims: Optional[Sequence[int]] = None):
        self._bitmap = FlatBitmap(n_flat)
        self._dims = tuple(int(d) for d in dims) if dims is not None else None

    def add(self, flat: np.ndarray) -> None:
        self._bitmap.add(flat)

    def add_box(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        if self._dims is None:
            raise ValueError("add_box requires dims")
        view = self._bitmap._bits.reshape(self._dims)
        view[tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))] = True

    def add_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        self._bitmap.add_spans(starts, ends)

    def to_sorted(self) -> np.ndarray:
        return self._bitmap.to_sorted()


class _KeyAccumulator(FlatAccumulator):
    def __init__(self, dims: Optional[Sequence[int]] = None):
        self._parts = []
        self._strides = (
            np.asarray(row_major_strides(dims), dtype=np.int64)
            if dims is not None else None
        )

    def add(self, flat: np.ndarray) -> None:
        if flat.size:
            self._parts.append(np.asarray(flat, dtype=np.int64))

    def add_box(self, lo: Sequence[int], hi: Sequence[int]) -> None:
        if self._strides is None:
            raise ValueError("add_box requires dims")
        self._parts.append(box_flat_indices(lo, hi, self._strides))

    def add_spans(self, starts: np.ndarray, ends: np.ndarray) -> None:
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        self._parts.append(ragged_aranges(starts, ends - starts + 1))

    def to_sorted(self) -> np.ndarray:
        if not self._parts:
            return np.empty(0, dtype=np.int64)
        return sorted_unique(np.concatenate(self._parts))
