"""Bottom-up hull merging — Algorithm 2 of the paper.

Starting from per-cell hulls, repeatedly merge any two hulls that are
CLOSE until no close pair remains.  CLOSE combines two measures
(Section IV-B):

* center distance — euclidean distance between hull centroids, and
* boundary distance — minimum distance between the hulls' vertices.

The paper's discussion motivates an asymmetric role: "Initially the small
hulls are merged and boundary distance suffices, but as one hull keeps
becoming larger, merging with small hulls can still continue since center
distances are close."  The default ``close_mode="or"`` implements exactly
that (either criterion triggers a merge); ``"and"`` is provided as an
ablation.

The merge itself is the union-of-vertices hull (paper: "equivalent to
computing a hull with all respective points on which the original hulls
were computed" [22]) — which makes the procedure output-sensitive, unlike
classical divide-and-conquer hull merging.

The fixed point is Algorithm 2's pair scan: walk the hull list in order,
and whenever hull ``i`` is CLOSE to a later hull ``j``, replace both by
their merge appended at the end and rescan from ``i``; repeat passes
until one makes no merge.  Done naively every pass re-evaluates CLOSE
over all O(n^2) pairs.  :func:`merge_hulls` replays that exact scan
order but skips the pairs whose CLOSE value is already known to be
False:

* hulls are bucketed by bounding box into a uniform spatial grid whose
  cell edge is the CLOSE reach limit
  ``max(center_d_thresh, bound_d_thresh)``, so each hull only tests the
  hulls in its 3^d cell neighborhood — outside it some axis gap exceeds
  the reach limit, which forces CLOSE's bounding-box reject;
* pairs once evaluated as not-CLOSE are cached and never re-evaluated
  (hulls are immutable, so a rejected pair stays rejected).

So the merge sequence and final hull list are those of the naive loop,
whose reference copy lives in ``tests/oracles/merge_scan.py``; the
equivalence is asserted property-style in
``tests/carving/test_merge_equivalence.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.fuzzing.config import CarveConfig
from repro.geometry.hull import Hull


def close(h1: Hull, h2: Hull, config: CarveConfig) -> bool:
    """The CLOSE predicate of Algorithm 2."""
    # Cheap reject: if even the bounding boxes are farther apart than any
    # threshold could bridge, skip the exact distance computations.
    lo1, hi1 = h1.bounding_box()
    lo2, hi2 = h2.bounding_box()
    gap = np.maximum(0.0, np.maximum(lo1 - hi2, lo2 - hi1))
    bbox_gap = float(np.linalg.norm(gap))
    limit = max(config.center_d_thresh, config.bound_d_thresh)
    if bbox_gap > limit:
        # Boundary distance >= bbox gap always; center distance >= bbox gap
        # too (centers lie inside the boxes).  Nothing can be close.
        return False
    center_ok = h1.center_distance(h2) <= config.center_d_thresh
    boundary_ok = h1.boundary_distance(h2) <= config.bound_d_thresh
    if config.close_mode == "and":
        return center_ok and boundary_ok
    return center_ok or boundary_ok


@dataclass
class MergeStats:
    """Diagnostics from one merge run."""

    initial_hulls: int
    final_hulls: int
    merges: int
    passes: int
    #: How many exact CLOSE evaluations the run performed (diagnostics;
    #: the grid and the rejection cache keep this near-linear).
    close_calls: int = 0


@dataclass
class _SpatialGrid:
    """Uniform grid over hull bounding boxes.

    Cell edge = the CLOSE reach limit, so any two hulls whose bounding
    boxes are within the limit on every axis share or neighbor a cell.
    Hulls whose box would span more than ``max_cells_per_hull`` grid
    cells (large merged hulls over fine grids) go into a catch-all ``big``
    bucket that every query includes — correctness never depends on a
    hull fitting the grid.
    """

    cell: float
    max_cells_per_hull: int = 2048
    cells: Dict[Tuple[int, ...], Set[int]] = field(default_factory=dict)
    where: Dict[int, Optional[List[Tuple[int, ...]]]] = field(
        default_factory=dict
    )
    big: Set[int] = field(default_factory=set)

    def _cell_range(self, hull: Hull) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = hull.bounding_box()
        return (
            np.floor(lo / self.cell).astype(np.int64),
            np.floor(hi / self.cell).astype(np.int64),
        )

    @staticmethod
    def _keys(lo_c: np.ndarray, hi_c: np.ndarray
              ) -> Iterator[Tuple[int, ...]]:
        return itertools.product(
            *(range(int(a), int(b) + 1) for a, b in zip(lo_c, hi_c))
        )

    def insert(self, hid: int, hull: Hull) -> None:
        lo_c, hi_c = self._cell_range(hull)
        span = int(np.prod(hi_c - lo_c + 1))
        if span > self.max_cells_per_hull:
            self.big.add(hid)
            self.where[hid] = None
            return
        keys = list(self._keys(lo_c, hi_c))
        for key in keys:
            self.cells.setdefault(key, set()).add(hid)
        self.where[hid] = keys

    def remove(self, hid: int) -> None:
        keys = self.where.pop(hid)
        if keys is None:
            self.big.discard(hid)
            return
        for key in keys:
            bucket = self.cells[key]
            bucket.discard(hid)
            if not bucket:
                del self.cells[key]

    def neighbors(self, hull: Hull) -> Set[int]:
        """Ids of hulls whose box could be within one reach limit.

        A strict superset of every CLOSE partner: outside the 3^d cell
        neighborhood some axis gap exceeds the cell edge (= reach limit),
        which forces the CLOSE bounding-box reject.
        """
        lo_c, hi_c = self._cell_range(hull)
        lo_c -= 1
        hi_c += 1
        out = set(self.big)
        span = int(np.prod(hi_c - lo_c + 1))
        if span > len(self.cells):
            # Query box covers more cells than are occupied: walk the
            # occupied cells instead.
            for key, ids in self.cells.items():
                if all(a <= k <= b for k, a, b in zip(key, lo_c, hi_c)):
                    out |= ids
            return out
        for key in self._keys(lo_c, hi_c):
            ids = self.cells.get(key)
            if ids:
                out |= ids
        return out


def merge_hulls(hulls: List[Hull], config: CarveConfig
                ) -> Tuple[List[Hull], MergeStats]:
    """Iteratively merge CLOSE hulls until a fixed point (Alg 2 lines 6-11).

    Each successful merge removes two hulls and inserts their union hull,
    so the loop terminates after at most ``len(hulls) - 1`` merges.  Only
    pair evaluations that are provably False are skipped (see the module
    docstring), so the merge sequence is the plain pair scan's.
    """
    initial = len(hulls)
    limit = max(config.center_d_thresh, config.bound_d_thresh)
    grid = _SpatialGrid(cell=max(limit, 1.0))
    work: List[Tuple[int, Hull]] = list(enumerate(hulls))
    for hid, hull in work:
        grid.insert(hid, hull)
    next_id = len(hulls)
    # CLOSE is deterministic and hulls are immutable, so a pair evaluated
    # to False once can never merge later — cache and never re-test.
    rejected: Set[Tuple[int, int]] = set()
    merges = 0
    passes = 0
    close_calls = 0
    changed = True
    while changed:
        changed = False
        passes += 1
        i = 0
        while i < len(work):
            hid_i, h_i = work[i]
            cand = grid.neighbors(h_i)
            j = i + 1
            while j < len(work):
                hid_j, h_j = work[j]
                if hid_j in cand:
                    pair = (
                        (hid_i, hid_j) if hid_i < hid_j else (hid_j, hid_i)
                    )
                    if pair not in rejected:
                        close_calls += 1
                        if close(h_i, h_j, config):
                            merged = h_i.merge(h_j)
                            grid.remove(hid_i)
                            grid.remove(hid_j)
                            work.pop(j)
                            work.pop(i)
                            mid = next_id
                            next_id += 1
                            grid.insert(mid, merged)
                            work.append((mid, merged))
                            merges += 1
                            changed = True
                            # Restart the inner scan for the (moved) hull
                            # at i.
                            hid_i, h_i = work[i]
                            cand = grid.neighbors(h_i)
                            j = i + 1
                            continue
                        rejected.add(pair)
                j += 1
            i += 1
    return [hull for _hid, hull in work], MergeStats(
        initial_hulls=initial,
        final_hulls=len(work),
        merges=merges,
        passes=passes,
        close_calls=close_calls,
    )
