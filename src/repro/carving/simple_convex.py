"""Simple Convex (SC) baseline carver.

Section V-C: "we use Kondo's Fuzzer with a regular convex hull computation
procedure [22]" — i.e. one global convex hull over all discovered points,
no cell split, no bottom-up merging.  On disjoint or holed subsets this
over-covers badly (paper Figure 6(b) and the SC bars in Figure 8), which
is precisely what motivates Kondo's merge-based carver.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.carving.carver import Carver
from repro.carving.merge import MergeStats
from repro.geometry.hull import Hull
from repro.geometry.lattice import lattice_boundary_points


class SimpleConvexCarver(Carver):
    """One global hull over all points — the paper's SC baseline.

    Rasterizes and unions with the observed points exactly like
    :class:`Carver`; only the hull set differs.
    """

    def hull_set(self, points: np.ndarray) -> Tuple[List[Hull], MergeStats]:
        hull = Hull.from_points(lattice_boundary_points(points))
        return [hull], MergeStats(1, 1, 0, 0)
