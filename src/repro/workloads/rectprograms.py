"""Rectangle-family programs: PRL, LDC, RDC (2-D and 3-D).

These reproduce the remaining h5bench-style stencil idioms of Table I:

* **PRL** — a peripheral ring (2-D) / shell (3-D): a rectangular shape
  with a hole.  The hole is proportionally larger in 3-D ("the hole
  enlarges in PRL3D", Section V-D2).
* **LDC** — two disjoint solid blocks in the main-diagonal corners.
* **RDC** — two disjoint solid blocks in the anti-diagonal corners.

LDC/RDC have "clear separation of the two subsets present in the
program", which is why Kondo's precision on them is 1 across all runs
(Section V-D2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import row_major_strides
from repro.fuzzing.parameters import ParameterSpace
from repro.perf.bitmap import unique_lattice_points
from repro.workloads.base import Program


def _box_cells(lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    """All integer cells of the half-open box [lo, hi)."""
    axes = [np.arange(a, b, dtype=np.int64) for a, b in zip(lo, hi)]
    if any(ax.size == 0 for ax in axes):
        return np.empty((0, len(axes)), dtype=np.int64)
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grid], axis=1)


def _box_flat(lo: Sequence[int], hi: Sequence[int],
              dims: Sequence[int]) -> np.ndarray:
    """Flat offsets of the in-bounds box [lo, hi), ascending.

    One strided ``arange`` per axis, broadcast-added: the flat form of
    :func:`_box_cells` without building its ``(n, d)`` rows.
    """
    flat = np.zeros((), dtype=np.int64)
    for a, b, stride in zip(lo, hi, row_major_strides(dims)):
        flat = flat[..., None] + np.arange(a * stride, b * stride, stride,
                                           dtype=np.int64)
    return flat.reshape(-1)


def _box_surface_flat(lo: Sequence[int], hi: Sequence[int],
                      dims: Sequence[int]) -> np.ndarray:
    """Flat offsets of the surface of the in-bounds box [lo, hi) — its
    cells with some coordinate on the box's first or last layer of that
    axis — ascending and unique, with no sort.

    Row-major order visits the first axis outermost: its end layers are
    full boxes of the other axes, and every layer between them is the
    surface of the other axes.
    """
    first, last = lo[0], hi[0] - 1
    if len(dims) == 1:
        return np.asarray(sorted({first, last}), dtype=np.int64)
    stride = row_major_strides(dims)[0]
    full = _box_flat(lo[1:], hi[1:], dims[1:])
    if first == last:
        return first * stride + full
    inner = _box_surface_flat(lo[1:], hi[1:], dims[1:])
    n, layers = full.size, last - first - 1
    # Filled in place: the surface is most of a PRL run's offsets, and
    # each temporary of its size costs fresh pages.
    out = np.empty(2 * n + layers * inner.size, dtype=np.int64)
    np.add(full, first * stride, out=out[:n])
    np.add(np.arange(first + 1, last, dtype=np.int64)[:, None] * stride,
           inner, out=out[n:out.size - n].reshape(layers, inner.size))
    np.add(full, last * stride, out=out[out.size - n:])
    return out


class PeripheralRing(Program):
    """PRL — reads the border ring/shell of a centered rectangle.

    Parameters are per-axis half-extents; a run with half-extents
    ``(w_1, ..., w_d)`` reads every cell on the *surface* of the box
    centered at the array center.  The guard restricts the supported
    half-extents to ``[D/8, 3D/8]``, so the union over Theta is a thick
    rectangular annulus with a central hole of half-extent ``D/8``.
    """

    def __init__(self, ndim: int = 2):
        self.ndim = ndim
        self.name = f"PRL{ndim}D"
        self.description = f"{ndim}-D peripheral ring with central hole"
        super().__init__()

    def _valid_band(self, dims: Sequence[int]) -> List[Tuple[int, int]]:
        """Per-axis supported half-extent range [lo, hi].

        The hole (everything closer to the center than the band's lower
        edge) is proportionally larger in 3-D — the paper observes that
        "the hole enlarges in PRL3D", which is what depresses PRL3D's
        precision below PRL2D's.
        """
        if self.ndim >= 3:
            return [(d // 4, (3 * d) // 8) for d in dims]
        return [(d // 8, (3 * d) // 8) for d in dims]

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        return ParameterSpace.of(
            *[(0, d // 2 - 1) for d in dims], integer=True
        )

    def _center(self, dims: Sequence[int]) -> Tuple[int, ...]:
        return tuple(d // 2 for d in dims)

    def valid_step(self, v: Sequence[int], dims: Sequence[int]) -> bool:
        band = self._valid_band(dims)
        return all(lo <= x <= hi for x, (lo, hi) in zip(v, band))

    def _half_extents(self, v: Sequence[float], dims: Tuple[int, ...]
                      ) -> Optional[Tuple[int, ...]]:
        """The run's half-extents, or ``None`` when ``v`` is not useful."""
        if not self._space_for(dims).contains(tuple(v)):
            return None
        half = tuple(int(x) for x in v)
        return half if self.valid_step(half, dims) else None

    def _faces(self, half: Tuple[int, ...], dims: Tuple[int, ...]
               ) -> List[Tuple[List[int], List[int]]]:
        """The ``2 * ndim`` faces of the run's box, as [lo, hi) boxes."""
        c = self._center(dims)
        faces = []
        # One pair of faces per axis: coordinate pinned to c +/- w, the
        # remaining axes spanning their full [-w, +w] band.
        for axis in range(self.ndim):
            for sign in (-1, 1):
                lo = [c[k] - half[k] for k in range(self.ndim)]
                hi = [c[k] + half[k] + 1 for k in range(self.ndim)]
                pinned = c[axis] + sign * half[axis]
                lo[axis], hi[axis] = pinned, pinned + 1
                faces.append((lo, hi))
        return faces

    def _access_flat(self, v: Sequence[float], dims: Sequence[int]
                     ) -> np.ndarray:
        # A valid box lies inside the array: c + w <= D/2 + 3D/8 < D.
        dims = self.check_dims(dims)
        half = self._half_extents(v, dims)
        if half is None:
            return np.empty(0, dtype=np.int64)
        # The union of the faces is the surface of the run's box.
        c = self._center(dims)
        return _box_surface_flat([ck - w for ck, w in zip(c, half)],
                                 [ck + w + 1 for ck, w in zip(c, half)],
                                 dims)

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        half = self._half_extents(v, dims)
        if half is None:
            return np.empty((0, self.ndim), dtype=np.int64)
        cells = np.concatenate(
            [_box_cells(lo, hi) for lo, hi in self._faces(half, dims)],
            axis=0,
        )
        dims_arr = np.asarray(dims, dtype=np.int64)
        keep = ((cells >= 0) & (cells < dims_arr)).all(axis=1)
        # Flat-key dedup instead of the void-dtype lexicographic sort of
        # ``np.unique(..., axis=0)`` (bit-identical output, ~10x cheaper
        # on dense 3-D shapes).
        return unique_lattice_points(cells[keep], dims)

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        band = self._valid_band(dims)
        c = self._center(dims)
        # Per-axis |x_k - c_k| grids.
        dists = np.meshgrid(
            *[np.abs(np.arange(d) - ck) for d, ck in zip(dims, c)],
            indexing="ij",
        )
        mask = np.zeros(dims, dtype=bool)
        # A cell is on some supported surface iff for one axis its distance
        # lies inside the supported band while every other axis' distance
        # is <= that axis' maximum half-extent.
        for axis in range(self.ndim):
            lo, hi = band[axis]
            cond = (dists[axis] >= lo) & (dists[axis] <= hi)
            for other in range(self.ndim):
                if other != axis:
                    cond &= dists[other] <= band[other][1]
            mask |= cond
        return mask


class CornerBlocks(Program):
    """LDC/RDC — two disjoint corner blocks selected by anchor parameters.

    A run's parameter value is a candidate block anchor; the guard accepts
    anchors inside one of two small corner windows, and the run reads the
    ``B``-cube anchored there.  The union over Theta is two solid corner
    regions, clearly separated.
    """

    def __init__(self, ndim: int = 2, anti_diagonal: bool = False):
        self.ndim = ndim
        self.anti_diagonal = anti_diagonal
        self.name = ("RDC" if anti_diagonal else "LDC") + f"{ndim}D"
        self.description = (
            f"two disjoint {ndim}-D corner blocks, "
            + ("anti-diagonal" if anti_diagonal else "main-diagonal")
        )
        super().__init__()

    def _block(self, dims: Sequence[int]) -> int:
        return max(2, min(dims) // 8)

    def _windows(self, dims: Sequence[int]
                 ) -> List[List[Tuple[int, int]]]:
        """Two per-axis anchor windows [lo, hi] (inclusive)."""
        b = self._block(dims)
        # 3-D anchor windows are proportionally wider: the valid fraction
        # of Theta shrinks with the cube of the window width, and a window
        # that is discoverable in 2-D becomes a needle in 3-D.
        frac = 4 if self.ndim >= 3 else 8
        low = [(0, d // frac) for d in dims]
        high = [(d - d // frac - b, d - b) for d in dims]
        if not self.anti_diagonal:
            return [low, high]
        # Anti-diagonal: flip the window on the first axis.
        first_low, first_high = low[0], high[0]
        win_a = [first_high] + low[1:]
        win_b = [first_low] + high[1:]
        return [win_a, win_b]

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        return ParameterSpace.of(
            *[(0, d - 1) for d in dims], integer=True
        )

    def _window_of(self, v: Sequence[int], dims: Sequence[int]) -> int:
        for w, window in enumerate(self._windows(dims)):
            if all(lo <= x <= hi for x, (lo, hi) in zip(v, window)):
                return w
        return -1

    def _block_box(self, v: Sequence[float], dims: Tuple[int, ...]
                   ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """The run's block as a [lo, hi) box, or ``None`` when ``v`` is
        not useful."""
        if not self._space_for(dims).contains(tuple(v)):
            return None
        anchor = tuple(int(x) for x in v)
        if self._window_of(anchor, dims) < 0:
            return None
        b = self._block(dims)
        return anchor, tuple(min(a + b, d) for a, d in zip(anchor, dims))

    def _access_flat(self, v: Sequence[float], dims: Sequence[int]
                     ) -> np.ndarray:
        dims = self.check_dims(dims)
        box = self._block_box(v, dims)
        if box is None:
            return np.empty(0, dtype=np.int64)
        return _box_flat(*box, dims)

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        box = self._block_box(v, dims)
        if box is None:
            return np.empty((0, self.ndim), dtype=np.int64)
        return _box_cells(*box)

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        b = self._block(dims)
        mask = np.zeros(dims, dtype=bool)
        for window in self._windows(dims):
            # Union of B-blocks over all anchors in the window is the box
            # [lo, hi + B) per axis.
            sl = tuple(
                slice(lo, min(hi + b, d))
                for (lo, hi), d in zip(window, dims)
            )
            mask[sl] = True
        return mask
