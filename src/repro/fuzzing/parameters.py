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
    #: Per-dimension bounds (as floats) and integer flags, built once for
    #: :meth:`clip_rows`; equality and hashing use ``ranges``.
    lo: Tuple[float, ...] = field(init=False, compare=False, repr=False)
    hi: Tuple[float, ...] = field(init=False, compare=False, repr=False)
    integer: Tuple[bool, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.ranges:
            raise FuzzConfigError("parameter space must have >= 1 dimension")
        ranges = tuple(self.ranges)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "lo", tuple(float(r.lo) for r in ranges))
        object.__setattr__(self, "hi", tuple(float(r.hi) for r in ranges))
        object.__setattr__(self, "integer",
                           tuple(bool(r.integer) for r in ranges))

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
        return self.clip_rows([[float(x) for x in v]])[0]

    def clip_rows(self, rows: Sequence[Sequence[float]]
                  ) -> List[Tuple[float, ...]]:
        """:meth:`clip` of every row of ``rows`` (Python floats, or an
        ``(n, ndim)`` array), in Python scalars.

        ``lo if lo > x`` then ``hi if hi < x`` is the operand choice of
        Python's ``min(max(x, lo), hi)``, down to the sign of a zero;
        ``float(round(x))`` rounds half to even and gives ``0.0`` for
        ``-0.0``, as :meth:`ParameterRange.clip` does.
        """
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2:
                raise ProgramError(
                    f"parameter values of shape {rows.shape}, expected "
                    f"(n, {self.ndim})"
                )
            rows = rows.astype(np.float64, copy=False).tolist()
        los, his, integers = self.lo, self.hi, self.integer
        ndim = len(los)
        out = []
        for row in rows:
            if len(row) != ndim:
                raise ProgramError(
                    f"parameter value has {len(row)} components, expected "
                    f"{ndim}"
                )
            clipped = []
            for x, lo, hi, integer in zip(row, los, his, integers):
                if lo > x:
                    x = lo
                if hi < x:
                    x = hi
                clipped.append(float(round(x)) if integer else x)
            out.append(tuple(clipped))
        return out

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
