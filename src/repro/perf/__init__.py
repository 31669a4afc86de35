"""Flat-index bitmap set operations behind the raster and the dedupes.

Every operation here returns exactly what the ``np.unique`` form it
replaced returned — ascending flat order is the lexicographic row order
of the unflattened points.  See the "One engine per stage" section of
DESIGN.md.
"""

from repro.perf.bitmap import (
    DEFAULT_BITMAP_MAX_CELLS,
    FlatBitmap,
    make_accumulator,
    union_flat,
    unique_flat,
    unique_lattice_points,
)

__all__ = [
    "DEFAULT_BITMAP_MAX_CELLS",
    "FlatBitmap",
    "make_accumulator",
    "unique_flat",
    "union_flat",
    "unique_lattice_points",
]
