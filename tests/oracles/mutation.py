"""MUTATE through numpy's Generator API, with an array-shaped clip.

Reference for :mod:`repro.fuzzing.mutation`, whose operators take their
words in one ``bit_generator.random_raw`` call and decode them in Python
scalars: for the same arguments and generator state they must return the
same children, float for float, and leave the same generator state.
Also the reference for ``ParameterSpace.clip_rows``, which clips in
Python scalars.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

_SCALE_MIN = 0.25
_SCALE_MAX = 4.0

#: ``_SIGNS[rng.integers(0, 2, size)]`` draws the same values, and leaves
#: the generator in the same state, as ``rng.choice((-1.0, 1.0), size)``.
_SIGNS = np.array((-1.0, 1.0))


def clip_rows(space, rows) -> List[Tuple[float, ...]]:
    """``ParameterSpace.clip_rows`` in arrays: ``np.where`` keeps the
    operand choice of ``min(max(x, lo), hi)``, ``np.rint`` rounds half to
    even and ``+ 0.0`` turns its ``-0.0`` into ``0.0``."""
    lo = np.asarray(space.lo, dtype=np.float64)
    hi = np.asarray(space.hi, dtype=np.float64)
    integer = np.asarray(space.integer, dtype=bool)
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, space.ndim)
    rows = np.where(lo > rows, lo, rows)
    rows = np.where(hi < rows, hi, rows)
    rows = np.where(integer, np.rint(rows) + 0.0, rows)
    return [tuple(row) for row in rows.tolist()]


def uniform_mutations(v, space, dist, reps, rng) -> List[Tuple[float, ...]]:
    """Per child: ``rng.integers(0, 2, size=d)`` signs, then
    ``rng.uniform(lo, hi, size=d)`` steps."""
    v = np.asarray(v, dtype=np.float64)
    lo, hi = dist
    signs = np.empty((reps, v.size))
    steps = np.empty((reps, v.size))
    for i in range(reps):
        signs[i] = _SIGNS[rng.integers(0, 2, size=v.shape)]
        steps[i] = rng.uniform(lo, hi, size=v.shape)
    return clip_rows(space, v + signs * steps)


def greedy_mutations(v, space, target, target_distance, dist, reps, rng
                     ) -> List[Tuple[float, ...]]:
    """Per child: ``rng.uniform(lo, hi)`` magnitude, then (when
    ``lo > 0``) ``rng.uniform(-lo, lo, size=d)`` jitter."""
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(target.center, dtype=np.float64)
    direction = center - v
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return uniform_mutations(v, space, dist, reps, rng)
    direction = direction / norm
    lo, hi = dist
    frame_ref = max((lo + hi) / 2.0, 1e-9)
    scale = float(np.clip(target_distance / (2.0 * frame_ref),
                          _SCALE_MIN, _SCALE_MAX))
    magnitudes = np.empty((reps, 1))
    jitters = np.zeros((reps, v.size))
    for i in range(reps):
        magnitudes[i] = rng.uniform(lo, hi) * scale
        if lo > 0:
            jitters[i] = rng.uniform(-lo, lo, size=v.shape)
    magnitudes = np.minimum(magnitudes, norm)
    return clip_rows(space, v + direction * magnitudes + jitters)
