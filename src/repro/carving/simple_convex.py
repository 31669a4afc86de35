"""Simple Convex (SC) baseline carver.

Section V-C: "we use Kondo's Fuzzer with a regular convex hull computation
procedure [22]" — i.e. one global convex hull over all discovered points,
no cell split, no bottom-up merging.  On disjoint or holed subsets this
over-covers badly (paper Figure 6(b) and the SC bars in Figure 8), which
is precisely what motivates Kondo's merge-based carver.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.carving.carver import Carver
from repro.carving.merge import MergeStats
from repro.geometry.hull import Hull


class SimpleConvexCarver(Carver):
    """One global hull over all points — the paper's SC baseline.

    Reduces, rasterizes and unions with the observed points exactly like
    :class:`Carver`, with the whole window as its one cell; only the
    hull set differs.
    """

    def hull_set(self, flat: np.ndarray) -> Tuple[List[Hull], MergeStats]:
        window = replace(self.config, cell_size=max(self.dims))
        hulls = Carver(self.dims, window).build_cell_hulls(flat)
        return hulls, MergeStats(1, 1, 0, 0)
