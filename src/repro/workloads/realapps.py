"""Programs derived from real applications (paper Section V-D7, Table III).

Tang et al. [15] describe two real scientific workloads whose subsetting
idioms the paper reproduces:

* **ARD — Atmospheric River Detection**: "reads a block of data in which
  width and height are parameterized but the entire temporal dimension is
  read".
* **MSI — Mass Spectroscopy Imaging**: "reads a slice of data wherein two
  dimensions are entirely read but the third dimension is read between a
  start and end index".

The paper runs these on 217 GB / 405 GB HDF5 files; this reproduction
scales the arrays down while preserving the *relative* geometry — the same
fraction of the dataset is read, the parameterization is identical in kind,
and the parameter-space cardinality still dwarfs any brute-force budget
(DESIGN.md substitution #4).  Every parameter valuation is valid for both
programs (their Theta has no guard), so the challenge for Kondo here is
pure extent discovery rather than boundary detection.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.fuzzing.parameters import ParameterSpace
from repro.workloads.base import Program
from repro.workloads.rectprograms import _box_cells


class AtmosphericRiver(Program):
    """ARD — parameterized-width/height block x full temporal extent.

    Parameters ``(w, h, t)``: the run reads the block
    ``[0:w, 0:h, :]`` — ``t`` is the analysis timestep of interest, but
    (as in the real application) the whole temporal dimension is read
    regardless.  Enumerated brute force wastes almost its entire budget
    re-reading the same block for every ``t``.
    """

    name = "ARD"
    description = "atmospheric river detection: w x h block, full time axis"
    ndim = 3

    #: Default scaled-down array shape (paper: 1536 x 2304 x 4096).
    default_dims: Tuple[int, ...] = (64, 96, 128)

    def _w_range(self, dims) -> Tuple[int, int]:
        # Paper Theta_w = 50-200 of 1536.
        return max(2, dims[0] // 30), max(3, dims[0] // 8)

    def _h_range(self, dims) -> Tuple[int, int]:
        # Paper Theta_h = 100-500 of 2304.
        return max(2, dims[1] // 23), max(3, (2 * dims[1]) // 9)

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        # Theta_t is the paper's full 0-4095 temporal range, independent of
        # the (scaled) array extent — the redundancy is the point.
        return ParameterSpace.of(
            self._w_range(dims), self._h_range(dims), (0, 4095), integer=True
        )

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self._space_for(dims)
        if not space.contains(tuple(v)):
            return np.empty((0, 3), dtype=np.int64)
        w, h, _t = (int(x) for x in v)
        return _box_cells((0, 0, 0), (w, h, dims[2]))

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        mask = np.zeros(dims, dtype=bool)
        _, w_hi = self._w_range(dims)
        _, h_hi = self._h_range(dims)
        mask[:w_hi, :h_hi, :] = True
        return mask


class MassSpectroscopy(Program):
    """MSI — full 2-D image planes x parameterized spectral start.

    Parameters ``(s, r, c)``: the run reads ``[:, :, s:s+K]`` — the whole
    image extent across the first two dimensions, and a K-wide window of
    the spectral axis starting at ``s``.  ``r``/``c`` are the pixel of
    interest (they do not restrict the read, as in the real application).
    The spectral start ``s`` is deliberately the *first* parameter:
    lexicographic brute force must exhaust all ``r x c`` combinations
    before advancing ``s``, so its recall climbs very slowly (the paper
    measured BF recall 0.78 on MSI after 2 hours).
    """

    name = "MSI"
    description = "mass spectroscopy imaging: full planes, spectral window"
    ndim = 3

    #: Default scaled-down array shape (paper: 394 x 518 x 133092).
    default_dims: Tuple[int, ...] = (24, 24, 2048)

    #: Spectral window width per run.
    window: int = 8

    def _s_range(self, dims) -> Tuple[int, int]:
        # Paper Theta_s = 10000-15000 of 133092 (~7.5%-11%): keep the
        # window band a small interior fraction of the spectral axis.
        lo = int(dims[2] * 0.19)
        hi = int(dims[2] * 0.225)
        return lo, min(hi, dims[2] - self.window)

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        return ParameterSpace.of(
            self._s_range(dims), (0, dims[0] - 1), (0, dims[1] - 1),
            integer=True,
        )

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self._space_for(dims)
        if not space.contains(tuple(v)):
            return np.empty((0, 3), dtype=np.int64)
        s = int(v[0])
        return _box_cells((0, 0, s), (dims[0], dims[1], s + self.window))

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        mask = np.zeros(dims, dtype=bool)
        lo, hi = self._s_range(dims)
        mask[:, :, lo:hi + self.window] = True
        return mask
