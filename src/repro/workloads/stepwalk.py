"""Step-walk programs: the CS (cross-stencil) family.

Listing 1 of the paper: the program walks anchor positions
``(a*stepX, a*stepY)`` from the origin while the stencil block stays in
bounds, reading a 2x2 block at each anchor, guarded by a constraint on the
step parameters (``stepX <= stepY`` in the listing).  The synthetic
variants CS1/CS2/CS3/CS5 modify that constraint (Section V-A: "obtained by
modifying the stepX and stepY constraint in the cross-stencil program"),
producing the subset shapes the evaluation discusses: distant sparse
regions (CS1, CS5), bands (CS2), and a thin irregular strip with the
lowest recall (CS3).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProgramError
from repro.fuzzing.parameters import ParameterSpace
from repro.workloads.base import Program, dilate_mask
from repro.workloads.stencils import Stencil, solid_block


class StepWalkProgram(Program):
    """Base class for CS-style step-walk programs.

    Subclasses define the step constraint (:meth:`valid_step` for single
    checks and :meth:`valid_pairs` for the vectorized ground-truth
    enumeration) and optionally bound the walk length.
    """

    ndim = 2
    #: Maximum number of steps taken from the origin (None = until the
    #: stencil leaves the array, as in Listing 1).
    max_steps: Optional[int] = None

    def __init__(self, stencil: Optional[Stencil] = None):
        super().__init__()
        self.stencil = stencil if stencil is not None else solid_block(self.ndim)
        if self.stencil.ndim != self.ndim:
            raise ProgramError(
                f"{self.name}: stencil rank {self.stencil.ndim} != {self.ndim}"
            )

    # -- constraint interface ---------------------------------------------

    def valid_step(self, step: Sequence[int], dims: Sequence[int]) -> bool:
        """Whether a step vector passes the program's guard condition."""
        raise NotImplementedError

    def valid_pairs(self, dims: Sequence[int]) -> np.ndarray:
        """All valid step vectors as an ``(n, ndim)`` array.

        Default: test the guard on the full integer grid of Theta.
        Subclasses with structured constraints (e.g. diagonal bands)
        override this with a direct enumeration for large arrays.
        """
        space = self.parameter_space(dims)
        axes = [
            np.arange(int(r.lo), int(r.hi) + 1, dtype=np.int64)
            for r in space.ranges
        ]
        grid = np.stack(
            np.meshgrid(*axes, indexing="ij"), axis=-1
        ).reshape(-1, self.ndim)
        mask = self.valid_mask(grid, dims)
        return grid[mask]

    def valid_mask(self, steps: np.ndarray, dims: Sequence[int]) -> np.ndarray:
        """Vectorized guard over an ``(n, ndim)`` array of step vectors.

        Default falls back to the scalar :meth:`valid_step`; subclasses
        override with pure-numpy predicates.
        """
        return np.fromiter(
            (self.valid_step(tuple(s), dims) for s in steps),
            dtype=bool, count=steps.shape[0],
        )

    # -- program interface ---------------------------------------------------

    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        return ParameterSpace.of(
            *[(0, d - 2) for d in dims], integer=True
        )

    def _anchor_limits(self, dims: Sequence[int]) -> Tuple[int, ...]:
        """Largest anchor coordinate keeping the stencil in bounds."""
        ext = self.stencil.max_extent()
        return tuple(d - 1 - m for d, m in zip(dims, ext))

    def anchors_for(self, step: Sequence[int], dims: Sequence[int]
                    ) -> np.ndarray:
        """Walk anchors ``a * step`` while the stencil stays in bounds."""
        limits = self._anchor_limits(dims)
        step = np.asarray(step, dtype=np.int64)
        if (step == 0).all():
            a_max = 0
        else:
            per_dim = [
                (lim // s) for s, lim in zip(step, limits) if s > 0
            ]
            a_max = min(per_dim) if per_dim else 0
        if self.max_steps is not None:
            a_max = min(a_max, self.max_steps)
        a = np.arange(0, a_max + 1, dtype=np.int64)
        return a[:, None] * step[None, :]

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self._space_for(dims)
        if not space.contains(tuple(v)):
            return np.empty((0, self.ndim), dtype=np.int64)
        step = tuple(int(x) for x in v)
        if not self.valid_step(step, dims):
            return np.empty((0, self.ndim), dtype=np.int64)
        anchors = self.anchors_for(step, dims)
        return self.stencil.apply(anchors, dims)

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        pairs = self.valid_pairs(dims)
        base = np.zeros(dims, dtype=bool)
        if pairs.size == 0:
            return base
        limits = np.asarray(self._anchor_limits(dims), dtype=np.int64)
        # The origin anchor (a = 0) is visited by every valid run.
        base[tuple([0] * self.ndim)] = True
        # Zero-step runs contribute only the origin; drop them from the
        # multiplication loop (they would never shrink).
        moving = pairs[(pairs != 0).any(axis=1)]
        a = 1
        while moving.size:
            anchors = a * moving
            in_bounds = (anchors <= limits).all(axis=1)
            if self.max_steps is not None and a > self.max_steps:
                break
            moving = moving[in_bounds]
            anchors = anchors[in_bounds]
            if anchors.size:
                base[tuple(anchors.T)] = True
            a += 1
        return dilate_mask(base, self.stencil.offsets)


class CrossStencil(StepWalkProgram):
    """CS — Listing 1: lower-triangular subset via ``0 <= stepX <= stepY``."""

    name = "CS"
    description = "cross-stencil walk, stepX <= stepY (lower triangle)"

    def valid_step(self, step, dims) -> bool:
        sx, sy = step
        return 0 <= sx <= sy

    def valid_mask(self, steps, dims) -> np.ndarray:
        return (steps[:, 0] >= 0) & (steps[:, 0] <= steps[:, 1])


class CS1DistantSparse(StepWalkProgram):
    """CS1 — two distant regions, the far one sparse.

    A single-step variant: the step parameters are themselves the stencil
    anchor.  Small anchors (``stepY <= D/8``) form a dense triangle near
    the origin; large anchors (``stepX >= 5D/8``, on a stride-2 sublattice)
    form a *sparse* triangle in the far corner.  The two regions are far
    apart, which is what depresses carving precision (paper Section V-D2:
    "precision decreases for CS1 and CS5 since they have distant sparse
    regions" — the far hulls cover the sparse lattice solidly).
    """

    name = "CS1"
    description = "two distant regions; far region sparse (stride-2 lattice)"
    max_steps = 1

    def valid_step(self, step, dims) -> bool:
        sx, sy = step
        d = min(dims)
        if sx < 0 or sx > sy:
            return False
        near = sy <= d // 8
        far = sx >= (5 * d) // 8 and sx % 2 == 0 and sy % 2 == 0
        return near or far

    def valid_mask(self, steps, dims) -> np.ndarray:
        d = min(dims)
        sx, sy = steps[:, 0], steps[:, 1]
        tri = (sx >= 0) & (sx <= sy)
        near = sy <= d // 8
        far = (sx >= (5 * d) // 8) & (sx % 2 == 0) & (sy % 2 == 0)
        return tri & (near | far)


class CS2Band(StepWalkProgram):
    """CS2 — diagonal band: ``|stepX - stepY| <= D/16``, both positive.

    Single-step variant: the accessed region is the diagonal band of
    anchors itself — a convex strip, which carves cleanly.
    """

    name = "CS2"
    description = "diagonal band constraint |stepX - stepY| <= D/16"
    max_steps = 1

    def _width(self, dims) -> int:
        return max(2, min(dims) // 16)

    def valid_step(self, step, dims) -> bool:
        sx, sy = step
        return sx >= 1 and sy >= 1 and abs(sx - sy) <= self._width(dims)

    def valid_mask(self, steps, dims) -> np.ndarray:
        w = self._width(dims)
        sx, sy = steps[:, 0], steps[:, 1]
        return (sx >= 1) & (sy >= 1) & (np.abs(sx - sy) <= w)


class CS3ThinStrip(StepWalkProgram):
    """CS3 — thin irregular diagonal strip (the paper's lowest-recall case).

    ``|stepX - stepY| <= W`` with a small W: anchors fan out in a wedge
    around the diagonal whose boundary is a union of rational rays —
    ragged at every scale, so a time-boxed fuzz campaign always leaves
    boundary offsets undiscovered (paper Section V-D4 picks CS3 for the
    file-size scaling study for exactly this reason).
    """

    name = "CS3"
    description = "thin irregular diagonal wedge |stepX - stepY| <= W"

    def _width(self, dims) -> int:
        return max(2, min(dims) // 16)

    def valid_step(self, step, dims) -> bool:
        sx, sy = step
        return sx >= 1 and sy >= 1 and abs(sx - sy) <= self._width(dims)

    def valid_mask(self, steps, dims) -> np.ndarray:
        w = self._width(dims)
        sx, sy = steps[:, 0], steps[:, 1]
        return (sx >= 1) & (sy >= 1) & (np.abs(sx - sy) <= w)

    def valid_pairs(self, dims) -> np.ndarray:
        """Direct band enumeration — O(D * W) instead of O(D^2)."""
        dims = self.check_dims(dims)
        w = self._width(dims)
        hi = min(dims) - 2
        sx = np.arange(1, hi + 1, dtype=np.int64)
        off = np.arange(-w, w + 1, dtype=np.int64)
        pairs = np.stack(
            [np.repeat(sx, off.size), (sx[:, None] + off[None, :]).reshape(-1)],
            axis=1,
        )
        keep = (pairs[:, 1] >= 1) & (pairs[:, 1] <= hi)
        return pairs[keep]


class CS5SparseWithHole(StepWalkProgram):
    """CS5 — CS1's two distant regions with a hole punched in the near one."""

    name = "CS5"
    description = "distant sparse regions with an interior hole"
    max_steps = 1

    def valid_step(self, step, dims) -> bool:
        sx, sy = step
        d = min(dims)
        if sx < 0 or sx > sy:
            return False
        hole = d // 32 <= sx <= (3 * d) // 32 and sy <= (3 * d) // 32
        near = sy <= d // 8 and not hole
        far = sx >= (5 * d) // 8 and sx % 2 == 0 and sy % 2 == 0
        return near or far

    def valid_mask(self, steps, dims) -> np.ndarray:
        d = min(dims)
        sx, sy = steps[:, 0], steps[:, 1]
        tri = (sx >= 0) & (sx <= sy)
        hole = (sx >= d // 32) & (sx <= (3 * d) // 32) & (sy <= (3 * d) // 32)
        near = (sy <= d // 8) & ~hole
        far = (sx >= (5 * d) // 8) & (sx % 2 == 0) & (sy % 2 == 0)
        return tri & (near | far)
