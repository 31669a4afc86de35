"""Rasterization: enumerate the integer index points covered by hulls.

The carver's output hulls live in the continuous index space, but the data
subset ``I'_Theta`` is a set of *array indices*.  This module converts back:
all integer lattice points inside a hull (clipped to the array dims) — the
indices Kondo will keep in the debloated file.

Each hull contributes arrays of flat keys, and one
:func:`~repro.perf.bitmap.union_flat` at the end makes them the sorted
union (ascending flat order is exactly the lexicographic row order);
containment tests are mostly skipped.  Full-rank hulls are filled by
per-column last-axis intervals computed from the halfspace form
(:func:`_fill_column_spans`), expanded to keys with one
:func:`~repro.arraymodel.layout.ragged_aranges`, with only a thin
uncertainty band handed to exact point tests; lattice batches whose
bounding box passes the 2^d corner containment check skip point tests
(a box lies in a convex hull iff its corners do); and hulls whose padded
window lies inside an already-rasterized hull are skipped outright.

The result equals, bit for bit, the plain per-point raster (containment-
test every lattice point of each hull's padded box, then
``np.unique(..., axis=0)`` over the union) kept as the reference in
``tests/oracles/raster_points.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import ragged_aranges, row_major_strides, unflatten_many
from repro.geometry.hull import Hull
from repro.perf.bitmap import union_flat

#: Rasterize in batches of this many candidate lattice points to bound
#: peak memory on large 3-D boxes.
_BATCH = 262_144

IntBox = Tuple[np.ndarray, np.ndarray]


def _lattice_bounds(hull: Hull, dims: Sequence[int],
                    pad: float) -> Optional[IntBox]:
    lo, hi = hull.bounding_box()
    lo = np.maximum(np.floor(lo - pad).astype(np.int64), 0)
    hi = np.minimum(np.ceil(hi + pad).astype(np.int64),
                    np.asarray(dims, dtype=np.int64) - 1)
    if (lo > hi).any():
        return None
    return lo, hi


def _iter_box_points(lo: np.ndarray, hi: np.ndarray) -> Iterator[np.ndarray]:
    """Lattice points of the closed box ``[lo, hi]``, batched, in
    ascending row-major order."""
    d = lo.shape[0]
    extents = (hi - lo + 1).astype(np.int64)
    total = int(np.prod(extents))
    for start in range(0, total, _BATCH):
        stop = min(start + _BATCH, total)
        flat = np.arange(start, stop, dtype=np.int64)
        pts = np.empty((flat.size, d), dtype=np.int64)
        rem = flat
        for axis in range(d - 1, -1, -1):
            pts[:, axis] = rem % extents[axis] + lo[axis]
            rem = rem // extents[axis]
        yield pts


def _box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 2^d corner points of the box ``[lo, hi]`` as float64."""
    d = lo.shape[0]
    corners = np.stack(
        np.meshgrid(*[[lo[k], hi[k]] for k in range(d)], indexing="ij"),
        axis=-1,
    ).reshape(-1, d)
    return corners.astype(np.float64)


def _box_inside(hull: Hull, lo: np.ndarray, hi: np.ndarray,
                tol: float) -> bool:
    """Whether the whole box ``[lo, hi]`` lies inside ``hull``.

    By convexity a box is contained iff its corners are: the halfspace
    slack is affine in the point and the subspace residual is convex, so
    both attain their maximum over the box at a corner.
    """
    return bool(hull.contains(_box_corners(lo, hi), tol=tol).all())


#: Margin around the containment slack inside which a lattice point is
#: handed to the exact ``Hull.contains`` instead of being classified by
#: the column-interval arithmetic.  Far above accumulated float error
#: (~1e-11 at index magnitudes), far below typical slack gaps — it only
#: sizes the "uncertain" band, never correctness (see _fill_column_spans).
_SPAN_EPS = 1e-8

#: Column-grid ceiling for the span engine; windows with more columns
#: fall back to batched point scatter to bound the per-column arrays.
_MAX_COLUMNS = 4_194_304


def _ambient_halfspaces(hull: Hull) -> Tuple[np.ndarray, np.ndarray]:
    """The hull's halfspaces in ambient coordinates: ``p @ W.T <= c``.

    ``Hull.contains`` evaluates ``((p - o) @ B.T) @ A.T <= b``; folding
    the affine projection gives ``W = A @ B`` and ``c = b + W @ o`` —
    equal up to float rounding, which the span engine's uncertainty
    margin absorbs.
    """
    W = hull._normals @ hull._basis
    c = hull._offsets + W @ hull._origin
    return W, c


def _fill_column_spans(hull: Hull, lo: np.ndarray, hi: np.ndarray,
                       tol: float, strides: np.ndarray,
                       parts: List[np.ndarray]) -> bool:
    """Rasterize a full-rank hull by per-column last-axis intervals.

    Convexity means every lattice column (fixed leading coordinates)
    meets the hull in one contiguous interval of the last axis, computed
    directly from the halfspace form instead of testing every point.
    Each halfspace bound is evaluated twice — with the slack tightened
    and loosened by ``_SPAN_EPS`` — giving a *conservative* interval
    (certainly inside: every key of it is kept) nested in a
    *liberal* one (certainly outside beyond it: dropped).  Only lattice
    points between the two, plus whole columns sitting within the margin
    of a column-constant halfspace, are handed to the exact
    ``Hull.contains`` — so the result is bit-identical to the per-point
    path no matter how the float arithmetic rounds.

    Returns False when this engine does not apply (degenerate hull,
    1-D window, or an oversized column grid).
    """
    d = lo.shape[0]
    if hull.rank != d or d < 2:
        return False
    n_cols = int(np.prod((hi[:-1] - lo[:-1] + 1)))
    if n_cols > _MAX_COLUMNS:
        return False
    W, c = _ambient_halfspaces(hull)
    icols = np.stack(
        np.meshgrid(
            *[np.arange(lo[k], hi[k] + 1, dtype=np.int64)
              for k in range(d - 1)],
            indexing="ij",
        ),
        axis=-1,
    ).reshape(n_cols, d - 1)
    cols = icols.astype(np.float64)
    z_lo, z_hi = float(lo[-1]), float(hi[-1])
    lib_lo = np.full(n_cols, z_lo)
    con_lo = np.full(n_cols, z_lo)
    lib_hi = np.full(n_cols, z_hi)
    con_hi = np.full(n_cols, z_hi)
    dead = np.zeros(n_cols, dtype=bool)       # liberally infeasible
    uncertain = np.zeros(n_cols, dtype=bool)  # near-margin flat halfspace
    for j in range(W.shape[0]):
        a, az, cj = W[j, :-1], float(W[j, -1]), float(c[j])
        partial = cols @ a
        if abs(az) > 1e-12:
            loose = (cj + tol + _SPAN_EPS - partial) / az
            tight = (cj + tol - _SPAN_EPS - partial) / az
            if az > 0.0:  # z <= bound
                np.minimum(lib_hi, loose, out=lib_hi)
                np.minimum(con_hi, tight, out=con_hi)
            else:  # division by negative az flips: z >= bound
                np.maximum(lib_lo, loose, out=lib_lo)
                np.maximum(con_lo, tight, out=con_lo)
        else:
            s = partial - cj
            dead |= s > tol + _SPAN_EPS
            uncertain |= (s > tol - _SPAN_EPS) & ~(s > tol + _SPAN_EPS)
    lib_lo_i = np.ceil(lib_lo).astype(np.int64)
    lib_hi_i = np.floor(lib_hi).astype(np.int64)
    con_lo_i = np.ceil(con_lo).astype(np.int64)
    con_hi_i = np.floor(con_hi).astype(np.int64)
    # Uncertain columns get no bulk fill — everything liberal is a
    # candidate for the exact test.
    empty = dead | uncertain | (con_lo_i > con_hi_i)
    fill_lo = np.where(empty, np.int64(0), con_lo_i)
    fill_hi = np.where(empty, np.int64(-1), con_hi_i)
    live = ~dead & (lib_lo_i <= lib_hi_i)
    base = (icols @ strides[:-1])[live]
    parts.append(ragged_aranges(base + fill_lo[live],
                                fill_hi[live] - fill_lo[live] + 1))
    # Candidate z values: liberal minus filled, below and above the fill.
    # Columns with no fill put their whole liberal interval in the first
    # part and nothing in the second.
    cand_parts = []
    for starts, stops in (
        (lib_lo_i, np.minimum(lib_hi_i, np.where(empty, lib_hi_i,
                                                 fill_lo - 1))),
        (np.maximum(lib_lo_i, np.where(empty, lib_hi_i + 1, fill_hi + 1)),
         lib_hi_i),
    ):
        lengths = np.where(live, np.maximum(stops - starts + 1, 0), 0)
        total = int(lengths.sum())
        if total == 0:
            continue
        pts = np.empty((total, d), dtype=np.int64)
        pts[:, :-1] = np.repeat(icols, lengths, axis=0)
        pts[:, -1] = ragged_aranges(starts, lengths)
        cand_parts.append(pts)
    if cand_parts:
        cand = np.concatenate(cand_parts, axis=0)
        # Both passes above cover the whole liberal interval for empty
        # columns; overlap is impossible because the first stops before
        # fill_lo and the second starts after fill_hi.
        mask = hull.contains(cand.astype(np.float64), tol=tol)
        parts.append(cand[mask] @ strides)
    return True


def _scatter_box_points(hull: Hull, lo: np.ndarray, hi: np.ndarray,
                        tol: float, strides: np.ndarray,
                        parts: List[np.ndarray]) -> None:
    """Containment-test the lattice points of ``[lo, hi]``; append the
    flat keys of those inside to ``parts``."""
    total = int(np.prod((hi - lo + 1).astype(np.int64)))
    for pts in _iter_box_points(lo, hi):
        # Batch shortcut: a batch whose own bounding box sits inside the
        # hull needs no per-point containment tests.
        if total > pts.shape[0] and _box_inside(
            hull, pts.min(axis=0), pts.max(axis=0), tol
        ):
            parts.append(pts @ strides)
            continue
        mask = hull.contains(pts.astype(np.float64), tol=tol)
        parts.append(pts[mask] @ strides)


def flat_indices_in_hulls(
    hulls: Iterable[Hull],
    dims: Sequence[int],
    tol: float = 0.5,
) -> np.ndarray:
    """Sorted flat offsets of the union of the hulls' lattice points.

    Each hull contributes the integer points of ``[0, dims)`` within
    ``tol`` of it.  The default of half a lattice step makes degenerate
    hulls (points, segments, planes) still cover the integer points they
    were built from, and fattens full-rank hulls by half a cell —
    matching the carver's intent that hull vertices are accessed
    indices, not exclusive boundaries.
    """
    dims = tuple(int(d) for d in dims)
    n_flat = int(np.prod(dims))
    strides = np.asarray(row_major_strides(dims), dtype=np.int64)
    parts: List[np.ndarray] = []
    done: List[Tuple[Hull, np.ndarray, np.ndarray]] = []
    for hull in hulls:
        bounds = _lattice_bounds(hull, dims, pad=tol)
        if bounds is None:
            continue
        lo, hi = bounds
        # Hull shortcut: if an earlier hull already covers this hull's
        # whole padded window, every point it could contribute is in the
        # union already.
        if any(
            (p_lo <= lo).all() and (hi <= p_hi).all()
            and _box_inside(prev, lo, hi, tol)
            for prev, p_lo, p_hi in done
        ):
            continue
        if not _fill_column_spans(hull, lo, hi, tol, strides, parts):
            _scatter_box_points(hull, lo, hi, tol, strides, parts)
        done.append((hull, lo, hi))
    return union_flat(parts, n_flat)


def integer_points_in_hulls(
    hulls: Iterable[Hull],
    dims: Sequence[int],
    tol: float = 0.5,
) -> np.ndarray:
    """:func:`flat_indices_in_hulls` as ``(n, d)`` int64 points in
    lexicographic order."""
    return unflatten_many(flat_indices_in_hulls(hulls, dims, tol=tol), dims)
