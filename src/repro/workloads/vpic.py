"""VPIC-style threshold subsetting (extension workload).

Tang et al. — the paper's source for real subsetting idioms — describe a
fourth, harder pattern: VPIC "subsets the 3D space where an attribute
value is greater than a given threshold.  This application can also yield
data subsetting savings if, for e.g., an index or sorted-map has been
built with the attribute value as the key."

:class:`VPICThreshold` reproduces that idiom on a 2-D field: a synthetic
smooth "energy" attribute is generated deterministically from the array
shape; a run with threshold parameter ``t`` reads exactly the cells with
``energy >= t`` (located via the pre-built sorted index, as the real
application would).  The union over the supported threshold range is the
super-level set of the *smallest* supported threshold — a blobby,
non-convex region that stresses the carver differently from the stencil
programs.

This is an extension beyond the paper's 11-program suite (it is not part
of Table II), wired into the registry under ``EXTENSION_PROGRAMS``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.fuzzing.parameters import ParameterSpace
from repro.workloads.base import Program

#: Threshold parameter is expressed in integer permille of the attribute's
#: value range, giving an integer Theta the fuzzer can walk.
_T_LO, _T_HI = 700, 980


def synthetic_energy_field(dims: Sequence[int]) -> np.ndarray:
    """A deterministic smooth attribute field in [0, 1].

    A sum of fixed Gaussian bumps — smooth enough that super-level sets
    are a few connected blobs, matching the physics-field setting.
    """
    dims = tuple(int(d) for d in dims)
    axes = [np.linspace(0.0, 1.0, d) for d in dims]
    grid = np.meshgrid(*axes, indexing="ij")
    bumps = [
        (0.25, 0.30, 0.12, 1.00),
        (0.70, 0.72, 0.10, 0.95),
        (0.75, 0.20, 0.07, 0.80),
    ]
    field = np.zeros(dims)
    for cx, cy, sigma, amp in bumps:
        d2 = (grid[0] - cx) ** 2 + (grid[1] - cy) ** 2
        field += amp * np.exp(-d2 / (2 * sigma ** 2))
    field /= field.max()
    return field


class VPICThreshold(Program):
    """Reads all cells whose attribute exceeds a threshold parameter."""

    name = "VPIC"
    description = "threshold subsetting: cells with energy >= t (permille)"
    ndim = 2

    def __init__(self):
        super().__init__()
        self._field_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    def _field(self, dims) -> np.ndarray:
        dims = tuple(dims)
        f = self._field_cache.get(dims)
        if f is None:
            f = synthetic_energy_field(dims)
            self._field_cache[dims] = f
        return f

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        return ParameterSpace.of((_T_LO, _T_HI), integer=True)

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self._space_for(dims)
        if not space.contains(tuple(v)):
            return np.empty((0, self.ndim), dtype=np.int64)
        threshold = float(v[0]) / 1000.0
        mask = self._field(dims) >= threshold
        return np.argwhere(mask).astype(np.int64)

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        # The union over Theta is the super-level set at the lowest
        # supported threshold.
        return self._field(dims) >= (_T_LO / 1000.0)
