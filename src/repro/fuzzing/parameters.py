"""Parameter spaces and seeds.

Section III: the entry executable has m input parameter variables; a
*parameter value* is a vector ``v = (v_1, ..., v_m)`` and the *parameter
space* ``Theta = (Theta_1, ..., Theta_m)`` gives per-variable ranges the
container creator supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FuzzConfigError, ProgramError


@dataclass(frozen=True)
class ParameterRange:
    """One ``Theta_i``: an inclusive [lo, hi] range, integer or real."""

    lo: float
    hi: float
    integer: bool = True

    def __post_init__(self):
        if self.hi < self.lo:
            raise FuzzConfigError(f"range hi {self.hi} < lo {self.lo}")

    @property
    def extent(self) -> float:
        return self.hi - self.lo

    @property
    def cardinality(self) -> int:
        """Number of distinct values (integer ranges only)."""
        if not self.integer:
            raise FuzzConfigError("real-valued range has no cardinality")
        return int(self.hi) - int(self.lo) + 1

    def clip(self, x: float) -> float:
        """Clamp ``x`` into the range (and round for integer ranges)."""
        x = min(max(x, self.lo), self.hi)
        return float(round(x)) if self.integer else float(x)

    def contains(self, x: float) -> bool:
        if not self.lo <= x <= self.hi:
            return False
        return not self.integer or float(x).is_integer()

    def sample(self, rng: np.random.Generator) -> float:
        if self.integer:
            return float(rng.integers(int(self.lo), int(self.hi) + 1))
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class ParameterSpace:
    """The full ``Theta``: one :class:`ParameterRange` per parameter."""

    ranges: Tuple[ParameterRange, ...]
    #: Per-dimension bounds and integer flags as arrays, built once for
    #: the vectorized :meth:`clip`; equality and hashing use ``ranges``.
    lo: np.ndarray = field(init=False, compare=False, repr=False)
    hi: np.ndarray = field(init=False, compare=False, repr=False)
    integer: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.ranges:
            raise FuzzConfigError("parameter space must have >= 1 dimension")
        ranges = tuple(self.ranges)
        object.__setattr__(self, "ranges", ranges)
        for name, values, dtype in (
            ("lo", [r.lo for r in ranges], np.float64),
            ("hi", [r.hi for r in ranges], np.float64),
            ("integer", [r.integer for r in ranges], bool),
        ):
            arr = np.asarray(values, dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def of(cls, *bounds: Sequence[float], integer: bool = True
           ) -> "ParameterSpace":
        """Shorthand: ``ParameterSpace.of((0, 30), (0, 50))``."""
        return cls(tuple(ParameterRange(lo, hi, integer) for lo, hi in bounds))

    @property
    def ndim(self) -> int:
        return len(self.ranges)

    @property
    def cardinality(self) -> int:
        """|Theta| — number of distinct parameter valuations."""
        return math.prod(r.cardinality for r in self.ranges)

    @property
    def max_extent(self) -> float:
        return max(r.extent for r in self.ranges)

    def contains(self, v: Sequence[float]) -> bool:
        """The paper's ``v in Theta`` check."""
        return len(v) == self.ndim and all(
            r.contains(x) for r, x in zip(self.ranges, v)
        )

    def clip(self, v: Sequence[float]) -> Tuple[float, ...]:
        """Clamp ``v`` into Theta, rounding integer dimensions.

        Equal, float for float, to :meth:`ParameterRange.clip` applied
        per dimension.
        """
        return self.clip_rows(np.asarray(v, dtype=np.float64)[None])[0]

    def clip_rows(self, rows: np.ndarray) -> List[Tuple[float, ...]]:
        """:meth:`clip` of every row of an ``(n, ndim)`` array at once.

        The two ``where`` calls keep the operand choice of Python's
        ``min(max(x, lo), hi)``, down to the sign of a zero.  ``np.rint``
        rounds half to even, as ``round`` does, and ``+ 0.0`` turns its
        ``-0.0`` into the ``0.0`` that ``float(round(x))`` gives.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.ndim:
            raise ProgramError(
                f"parameter values of shape {rows.shape}, expected "
                f"(n, {self.ndim})"
            )
        rows = np.where(self.lo > rows, self.lo, rows)
        rows = np.where(self.hi < rows, self.hi, rows)
        rows = np.where(self.integer, np.rint(rows) + 0.0, rows)
        return [tuple(row) for row in rows.tolist()]

    def sample(self, rng: np.random.Generator) -> Tuple[float, ...]:
        """One uniform sample from Theta."""
        return tuple(r.sample(rng) for r in self.ranges)

    def sample_many(self, rng: np.random.Generator, n: int
                    ) -> List[Tuple[float, ...]]:
        return [self.sample(rng) for _ in range(n)]

    def grid(self, max_points: Optional[int] = None
             ) -> Iterator[Tuple[float, ...]]:
        """Exhaustive enumeration of integer Theta (for the BF baseline).

        Real-valued ranges are stepped at integer granularity — the closest
        meaningful analogue of "all valuations" for a continuous range.
        """
        axes = []
        for r in self.ranges:
            lo, hi = int(math.ceil(r.lo)), int(math.floor(r.hi))
            axes.append(range(lo, hi + 1))
        count = 0
        for combo in _product(axes):
            yield tuple(float(x) for x in combo)
            count += 1
            if max_points is not None and count >= max_points:
                return


def _product(axes):
    """itertools.product without materializing (kept explicit for clarity)."""
    import itertools

    return itertools.product(*axes)


@dataclass
class Seed:
    """One fuzzed parameter value and its debloat-test outcome."""

    v: Tuple[float, ...]
    #: Result of the debloat test: True if I_v was non-empty ("useful").
    useful: Optional[bool] = None
    #: Number of offsets discovered by this seed that were new to the campaign.
    n_new_offsets: int = 0
    #: Iteration at which this seed was evaluated.
    iteration: int = -1

    @property
    def evaluated(self) -> bool:
        return self.useful is not None

    def key(self) -> Tuple[float, ...]:
        """Deduplication key (exact valuation)."""
        return self.v
