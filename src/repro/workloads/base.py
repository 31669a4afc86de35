"""Workload program model.

A *program* is the paper's entry executable ``X``: it takes a parameter
value ``v`` from a parameter space Theta and accesses a set of indices
``I_v`` of a data array.  Programs here expose both execution styles the
reproduction needs:

* :meth:`Program.access_indices` — the audited "debloat test" path
  (Definition 2): return the indices a run with ``v`` would access,
  without touching real data.  This mirrors the paper's experimental
  methodology ("replaced each HDF5 library read call ... with an explicit
  iterative loop that just prints the datafile offsets"; Section V-C).
* :meth:`Program.run` — element-by-element execution through an
  ``access(index)`` callable, used against real files (audit-overhead
  experiments) and debloated subsets (user-impact experiments).

Every program also knows its analytic **ground truth** ``I_Theta``, which
the paper determined manually; tests cross-check these formulas against
brute-force enumeration on small arrays.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import flatten_many
from repro.errors import ProgramError
from repro.fuzzing.parameters import ParameterSpace

#: An element accessor: index tuple -> value (may be None under a runtime
#: that swallows data-missing events).
AccessFn = Callable[[Tuple[int, ...]], Optional[float]]


def dilate_mask(mask: np.ndarray, offsets: Sequence[Tuple[int, ...]]
                ) -> np.ndarray:
    """Dilate a boolean base mask by a set of relative stencil offsets.

    ``out[p + o] = True`` for every base point ``p`` and offset ``o`` that
    lands in bounds.  This turns "which stencil anchor positions are
    reachable" into "which array cells are accessed".
    """
    out = np.zeros_like(mask)
    dims = mask.shape
    for off in offsets:
        src = tuple(
            slice(max(0, -o), min(d, d - o)) for o, d in zip(off, dims)
        )
        dst = tuple(
            slice(max(0, o), min(d, d + o)) for o, d in zip(off, dims)
        )
        out[dst] |= mask[src]
    return out


class Program(abc.ABC):
    """Abstract workload program (the paper's ``X``)."""

    #: Short identifier (e.g. "CS", "PRL3D").
    name: str = "?"
    #: Human description of the subsetting idiom.
    description: str = ""
    #: Array rank this program operates on.
    ndim: int = 2

    def __init__(self):
        self._gt_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self._space_cache: Dict[Tuple[int, ...], ParameterSpace] = {}

    # -- interface ----------------------------------------------------------

    @abc.abstractmethod
    def _build_parameter_space(self, dims: Tuple[int, ...]
                               ) -> ParameterSpace:
        """Theta for a given (checked) data array shape."""

    @abc.abstractmethod
    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        """Indices ``I_v`` accessed by a run with parameter value ``v``.

        Returns an ``(n, ndim)`` int64 array (possibly empty).  Must not
        depend on any state other than ``v`` and ``dims`` (the paper's
        determinism assumption, Section III).
        """

    @abc.abstractmethod
    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        """Boolean mask over the array: the analytic ``I_Theta``."""

    # -- derived helpers -------------------------------------------------------

    def check_dims(self, dims: Sequence[int]) -> Tuple[int, ...]:
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.ndim:
            raise ProgramError(
                f"{self.name} expects {self.ndim}-D data, got dims {dims}"
            )
        if any(d < 8 for d in dims):
            raise ProgramError(f"{self.name}: dims {dims} too small (< 8)")
        return dims

    def parameter_space(self, dims: Sequence[int]) -> ParameterSpace:
        """Theta for a given data array shape (built once per shape)."""
        return self._space_for(self.check_dims(dims))

    def _space_for(self, dims: Tuple[int, ...]) -> ParameterSpace:
        """:meth:`parameter_space` of ``dims`` that :meth:`check_dims`
        already returned, so a debloat test validates its dims once."""
        space = self._space_cache.get(dims)
        if space is None:
            space = self._build_parameter_space(dims)
            self._space_cache[dims] = space
        return space

    def access_flat(self, v: Sequence[float], dims: Sequence[int]
                    ) -> np.ndarray:
        """Flat-offset form of :meth:`access_indices` (fuzzer interface).

        int64 flat offsets of ``I_v``; empty for a non-useful ``v``.  This
        is the one entry point of every direct-mode debloat test, so a
        wrapper installed on ``Program.access_flat`` sees every call;
        programs change how the offsets are computed by overriding
        :meth:`_access_flat`, never this method.
        """
        return self._access_flat(v, dims)

    def _access_flat(self, v: Sequence[float], dims: Sequence[int]
                     ) -> np.ndarray:
        """Hook behind :meth:`access_flat`: ``flatten_many`` of
        :meth:`access_indices`.  Override to compute the offsets directly;
        the result must stay equal to this default."""
        idx = self.access_indices(v, dims)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        return flatten_many(idx, dims)

    def ground_truth_flat(self, dims: Sequence[int]) -> np.ndarray:
        """Sorted flat offsets of the analytic ground truth (cached)."""
        dims = self.check_dims(dims)
        cached = self._gt_cache.get(dims)
        if cached is None:
            mask = self.ground_truth_mask(dims)
            cached = np.flatnonzero(mask.reshape(-1)).astype(np.int64)
            self._gt_cache[dims] = cached
        return cached

    def ground_truth_brute_force(self, dims: Sequence[int],
                                 max_valuations: Optional[int] = None
                                 ) -> np.ndarray:
        """Ground truth by exhaustive enumeration of Theta (small dims only).

        Used by tests to validate :meth:`ground_truth_mask`; this is the
        paper's BF oracle run to completion.
        """
        dims = self.check_dims(dims)
        space = self.parameter_space(dims)
        n_flat = int(np.prod(dims))
        bitmap = np.zeros(n_flat, dtype=bool)
        for v in space.grid(max_points=max_valuations):
            flat = self.access_flat(v, dims)
            if flat.size:
                bitmap[flat] = True
        return np.flatnonzero(bitmap).astype(np.int64)

    def run(self, access: AccessFn, v: Sequence[float],
            dims: Sequence[int]) -> int:
        """Execute the program, reading every accessed element via ``access``.

        Returns the number of element reads issued.  Subclasses may
        override to model a more faithful read pattern (e.g. row reads);
        the default replays :meth:`access_indices` point by point.
        """
        idx = self.access_indices(v, dims)
        for row in idx:
            access(tuple(int(x) for x in row))
        return int(idx.shape[0])

    def is_useful(self, v: Sequence[float], dims: Sequence[int]) -> bool:
        """Whether ``v`` passes the debloat test (``I_v`` non-empty)."""
        return self.access_indices(v, dims).size > 0

    def bloat_fraction(self, dims: Sequence[int]) -> float:
        """Ground-truth bloat: fraction of the array never accessed."""
        dims = self.check_dims(dims)
        n = int(np.prod(dims))
        return 1.0 - self.ground_truth_flat(dims).size / n

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.ndim}D>"


class MultiArrayProgram:
    """A program reading several named data arrays (paper Section VI).

    The multi-file generalization of :class:`Program`.  Subclasses define:

    * :attr:`name` and :attr:`arrays` — ``{array_name: dims}``;
    * :meth:`parameter_space`;
    * :meth:`access_indices_multi` — per-array ``I_v`` for a valuation.

    Analyzed by :class:`repro.core.multifile.MultiKondo`.
    """

    name: str = "?"
    arrays: Dict[str, Tuple[int, ...]] = {}

    def parameter_space(self) -> ParameterSpace:
        raise NotImplementedError

    def access_indices_multi(
        self, v: Sequence[float]
    ) -> Dict[str, np.ndarray]:
        """Per-array accessed indices; omit (or empty) untouched arrays."""
        raise NotImplementedError

    def ground_truth_multi(self) -> Dict[str, np.ndarray]:
        """Per-array analytic ground-truth flat offsets (for evaluation)."""
        raise NotImplementedError
