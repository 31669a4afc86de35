"""Seed mutation operators: UNIFORM and GREEDY (paper Alg 1, MUTATE).

A mutation samples new parameter values from a *frame* around the current
value.  The frame is "defined based on the euclidean distance from the
current parameter value where the distance is chosen as per a
configuration" (Section IV-A).  Two operators:

* :func:`uniform_mutations` — plain exploit-and-explore: per-dimension
  random-signed steps with magnitude drawn from the configured distance
  interval.
* :func:`greedy_mutations` — boundary-based EE: steps directed toward the
  nearest opposite-type cluster center, with the frame scaled by the
  distance to that center (far from the boundary → bigger frame; near the
  boundary → denser, smaller frame).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.fuzzing.clusters import Cluster
from repro.fuzzing.parameters import ParameterSpace

#: Clamp for the GREEDY frame scale factor, so a pathological distance
#: cannot freeze (0x) or explode (unbounded) the mutation frame.
_SCALE_MIN = 0.25
_SCALE_MAX = 4.0

#: ``_SIGNS[rng.integers(0, 2, size)]`` draws the same values, and leaves
#: the generator in the same state, as ``rng.choice((-1.0, 1.0), size)``,
#: without ``choice``'s per-call argument handling.
_SIGNS = np.array((-1.0, 1.0))


def uniform_mutations(
    v: Sequence[float],
    space: ParameterSpace,
    dist: Tuple[float, float],
    reps: int,
    rng: np.random.Generator,
) -> List[Tuple[float, ...]]:
    """UNIFORM(v, dist, reps): random-direction frame sampling.

    Each of the ``reps`` children moves every coordinate by a random sign
    times a magnitude drawn uniformly from ``dist``, then clips into Theta.
    The draws stay per child (signs, then steps): drawing all children's
    signs in one call would change the random stream, and with it every
    seeded campaign.
    """
    v = np.asarray(v, dtype=np.float64)
    lo, hi = dist
    signs = np.empty((reps, v.size))
    steps = np.empty((reps, v.size))
    for i in range(reps):
        signs[i] = _SIGNS[rng.integers(0, 2, size=v.shape)]
        steps[i] = rng.uniform(lo, hi, size=v.shape)
    return space.clip_rows(v + signs * steps)


def greedy_mutations(
    v: Sequence[float],
    space: ParameterSpace,
    target: Cluster,
    target_distance: float,
    dist: Tuple[float, float],
    reps: int,
    rng: np.random.Generator,
) -> List[Tuple[float, ...]]:
    """GREEDY(v, cluster_min, dist, reps): boundary-seeking mutation.

    Children move from ``v`` toward ``target``'s center (the nearest
    opposite-type cluster — useful seeds walk toward non-useful mass and
    vice versa, i.e. toward the subset boundary).  The frame is scaled by
    the distance to that center: "A greater distance indicates the
    parameter value is far from the subset boundary, and hence we scale up
    the frame size.  A shorter distance ... scale down the frame size to
    increase the density of parameter values near the boundary."
    """
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(target.center, dtype=np.float64)
    direction = center - v
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        # Sitting on the opposite cluster center: fall back to uniform.
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
    # Never overshoot past the opposite center — the boundary lies
    # between v and it.
    magnitudes = np.minimum(magnitudes, norm)
    return space.clip_rows(v + direction * magnitudes + jitters)
