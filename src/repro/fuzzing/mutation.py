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

Each operator takes all of its random words in one
``bit_generator.random_raw(n)`` call and decodes them in Python scalars
into the values, and the order, that numpy's ``Generator`` would have
drawn them in: per child, UNIFORM draws ``rng.integers(0, 2, size=d)``
signs then ``rng.uniform(lo, hi, size=d)`` steps, and GREEDY draws
``rng.uniform(lo, hi)`` then ``rng.uniform(-lo, lo, size=d)``.  Children,
floats and the generator state afterwards are the ones those calls give
(``tests/oracles/mutation.py`` keeps them as the reference); the calls'
per-invocation dispatch on arrays of a few elements is what this saves.
The generator's kept 32-bit half, which UNIFORM's signs use, is held by a
:class:`WordStream`: a bare Generator gets one per call, and
:class:`~repro.fuzzing.schedule.FuzzSchedule` keeps one for its campaign,
so reading and writing ``bit_generator.state`` happens at restarts and
checkpoints rather than at every MUTATE.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import BitGeneratorError
from repro.fuzzing.clusters import Cluster
from repro.fuzzing.parameters import ParameterSpace

#: Clamp for the GREEDY frame scale factor, so a pathological distance
#: cannot freeze (0x) or explode (unbounded) the mutation frame.
_SCALE_MIN = 0.25
_SCALE_MAX = 4.0

#: Bit generators whose ``Generator`` draws the decode reproduces: a
#: double is ``(word >> 11) * 2**-53`` of one raw 64-bit word, and a
#: 32-bit draw is the low half of a fresh word, whose high half waits in
#: ``state["has_uint32"]`` / ``state["uinteger"]`` for the next 32-bit
#: draw.  (MT19937 draws 32-bit words natively and is not one of them.)
_DECODABLE = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
              np.random.SFC64)

#: ``next_double``'s scale: 53 random bits to [0, 1).
_DOUBLE = 2.0 ** -53
#: Bit 31 of a 32-bit half: ``rng.integers(0, 2)`` on a 32-bit draw
#: ``u`` is Lemire's ``(u * 2) >> 32``, i.e. this bit (with no rejection
#: for a range of two).
_TOP_BIT = 0x80000000


def _bit_generator(rng: np.random.Generator):
    bitgen = rng.bit_generator
    if type(bitgen) not in _DECODABLE:
        raise BitGeneratorError(
            f"cannot decode {type(bitgen).__name__} raw words as a "
            f"Generator would; use one of "
            f"{', '.join(t.__name__ for t in _DECODABLE)}"
        )
    return bitgen


class WordStream:
    """A Generator's raw words, with its kept 32-bit half held here.

    The generator serves a 32-bit draw from the low half of a fresh word
    and keeps the high half in its state's ``has_uint32`` / ``uinteger``
    for the next one; ``random_raw`` and double draws leave that half
    alone.  A stream reads the kept half once, lets the operators take
    and refill it here, and writes it back on :meth:`flush`, so a run of
    MUTATEs pays for one state round trip instead of one each.

    Between :meth:`sync` (or construction) and :meth:`flush` nothing else
    may make a 32-bit draw from the generator or read its state; double
    draws (``rng.random()``) are fine.
    """

    def __init__(self, rng: np.random.Generator):
        self.bitgen = _bit_generator(rng)
        self.sync()

    def sync(self) -> None:
        """Take the kept half from the generator's state."""
        state = self.bitgen.state
        self.has = self._has = state["has_uint32"]
        self.half = self._half = state["uinteger"]

    def flush(self) -> None:
        """Write the kept half back to the generator, if it changed."""
        if self.has != self._has or self.half != self._half:
            state = self.bitgen.state
            state["has_uint32"] = self._has = self.has
            state["uinteger"] = self._half = self.half
            self.bitgen.state = state


def uniform_mutations(
    v: Sequence[float],
    space: ParameterSpace,
    dist: Tuple[float, float],
    reps: int,
    rng: Union[np.random.Generator, WordStream],
) -> List[Tuple[float, ...]]:
    """UNIFORM(v, dist, reps): random-direction frame sampling.

    Each of the ``reps`` children moves every coordinate by a random sign
    times a magnitude drawn uniformly from ``dist``, then clips into Theta.

    The words are those of ``rng.integers(0, 2, size=d)`` (the signs) then
    ``rng.uniform(lo, hi, size=d)`` (the steps) per child.  A sign is the
    top bit of a 32-bit half: a fresh word's low half, whose high half is
    kept for the next sign; a step is ``lo + (hi - lo) * next_double``.
    Given a Generator, the kept half is read from its state before the
    draw and written back after; given a :class:`WordStream`, the stream
    holds it and the caller flushes.
    """
    stream = rng if isinstance(rng, WordStream) else WordStream(rng)
    if reps > 0:
        rows = _uniform_rows(v, dist, reps, stream)
    else:
        rows = []
    if stream is not rng:
        stream.flush()
    return space.clip_rows(rows)


def _uniform_rows(v, dist, reps: int, stream: WordStream
                  ) -> List[List[float]]:
    vals = [float(x) for x in v]
    d = len(vals)
    lo = float(dist[0])
    span = float(dist[1]) - lo
    has, half = stream.has, stream.half
    n_signs = reps * d
    # A word per step, plus the fresh words the signs need after the kept
    # half: ceil((n - has) / 2).
    words = stream.bitgen.random_raw(
        n_signs + (n_signs - has + 1) // 2).tolist()
    rows = []
    i = 0
    for _ in range(reps):
        signs = []
        for _ in range(d):
            if has:
                signs.append(half & _TOP_BIT)
                has = 0
            else:
                w = words[i]
                i += 1
                signs.append(w & _TOP_BIT)
                half = w >> 32
                has = 1
        row = []
        for x, sign in zip(vals, signs):
            step = lo + span * ((words[i] >> 11) * _DOUBLE)
            i += 1
            row.append(x + step if sign else x - step)
        rows.append(row)
    stream.has, stream.half = has, half
    return rows


def greedy_mutations(
    v: Sequence[float],
    space: ParameterSpace,
    target: Cluster,
    target_distance: float,
    dist: Tuple[float, float],
    reps: int,
    rng: Union[np.random.Generator, WordStream],
) -> List[Tuple[float, ...]]:
    """GREEDY(v, cluster_min, dist, reps): boundary-seeking mutation.

    Children move from ``v`` toward ``target``'s center (the nearest
    opposite-type cluster — useful seeds walk toward non-useful mass and
    vice versa, i.e. toward the subset boundary).  The frame is scaled by
    the distance to that center: "A greater distance indicates the
    parameter value is far from the subset boundary, and hence we scale up
    the frame size.  A shorter distance ... scale down the frame size to
    increase the density of parameter values near the boundary."

    The words are those of ``rng.uniform(lo, hi)`` (the magnitude) then,
    when ``lo > 0``, ``rng.uniform(-lo, lo, size=d)`` (the jitter) per
    child: doubles only, so the generator's kept 32-bit half is untouched.
    ``rng`` is a Generator or a :class:`WordStream` over one.
    """
    bitgen = rng.bitgen if isinstance(rng, WordStream) else \
        _bit_generator(rng)
    v_arr = np.asarray(v, dtype=np.float64)
    direction = np.asarray(target.center, dtype=np.float64) - v_arr
    # ``np.linalg.norm`` of a vector is this ``sqrt(x.dot(x))``.
    norm = math.sqrt(direction.dot(direction))
    if norm < 1e-12:
        # Sitting on the opposite cluster center: fall back to uniform.
        return uniform_mutations(v, space, dist, reps, rng)
    vals = v_arr.tolist()
    unit = [c / norm for c in direction.tolist()]
    lo, hi = float(dist[0]), float(dist[1])
    frame_ref = max((lo + hi) / 2.0, 1e-9)
    scale = min(max(target_distance / (2.0 * frame_ref), _SCALE_MIN),
                _SCALE_MAX)
    span = hi - lo
    jitter = lo > 0
    jitter_span = lo - -lo
    d = len(vals)
    words = bitgen.random_raw(reps * (1 + d) if jitter else reps).tolist()
    rows = []
    i = 0
    for _ in range(reps):
        magnitude = (lo + span * ((words[i] >> 11) * _DOUBLE)) * scale
        i += 1
        # Never overshoot past the opposite center — the boundary lies
        # between v and it.
        if magnitude > norm:
            magnitude = norm
        row = []
        for x, u in zip(vals, unit):
            if jitter:
                row.append(x + u * magnitude
                           + (-lo + jitter_span * ((words[i] >> 11) * _DOUBLE)))
                i += 1
            else:
                row.append(x + u * magnitude + 0.0)  # a zero jitter
        rows.append(row)
    return space.clip_rows(rows)
