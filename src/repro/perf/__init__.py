"""Flat-index set operations behind the raster's union and the dedupes.

Each picks a dense bitmap or a sort of int64 keys from the density of
its input and returns exactly what the ``np.unique`` form it replaced
returned — ascending flat order is the lexicographic row order of the
unflattened points.  The run primitives they sit beside (segmented
arange, run detection, range coalescing) live in
:mod:`repro.arraymodel.layout`.  See the "One engine per stage" section
of DESIGN.md.
"""

from repro.perf.bitmap import (
    DEFAULT_BITMAP_MAX_CELLS,
    union_flat,
    unique_flat,
    unique_lattice_points,
)

__all__ = [
    "DEFAULT_BITMAP_MAX_CELLS",
    "unique_flat",
    "union_flat",
    "unique_lattice_points",
]
