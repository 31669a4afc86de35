"""The fuzz schedule — Algorithm 1 of the paper.

Drives debloat tests over the parameter space with the epsilon-greedy
combination of plain Exploit-and-Explore (UNIFORM mutation) and
Boundary-based EE (GREEDY mutation toward opposite-type clusters), with
random restarts and the two stopping criteria (max iterations / no new
offsets for ``stop_iter`` iterations).

The schedule is agnostic to what a "debloat test" does: it receives a
callable ``test(v) -> 1-D int64 array`` of *flat* offset indices accessed
by the run with parameter value ``v`` (empty array = non-useful seed).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, FuzzConfigError, InjectedFault
from repro.fuzzing.clusters import ClusterSet
from repro.fuzzing.config import FuzzConfig
from repro.fuzzing.mutation import (
    WordStream,
    greedy_mutations,
    uniform_mutations,
)
from repro.fuzzing.parameters import ParameterSpace, Seed
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_campaign_state,
    save_campaign_state,
)

#: A debloat test: parameter value -> flat offset indices accessed.
DebloatTestFn = Callable[[Tuple[float, ...]], np.ndarray]


@dataclass
class QuarantinedSeed:
    """A valuation whose debloat test raised: recorded, skipped, not fatal.

    ``verdict`` is the supervised-run verdict string (``"TIMEOUT"``,
    ``"OOM"``, ...) when the failure was a supervision kill, and ``None``
    for an ordinary in-process exception.
    """

    v: Tuple[float, ...]
    iteration: int
    error: str
    verdict: Optional[str] = None


@dataclass
class FuzzCampaignResult:
    """Everything a fuzz campaign produced.

    Attributes:
        flat_indices: sorted unique flat offsets in ``IS`` (Alg 1's output).
        seeds: every evaluated seed, in evaluation order (Fig 4's scatter).
        iterations: number of debloat tests executed.
        stop_reason: "max_iter", "stagnation", "time_budget", or "exhausted".
        elapsed_seconds: wall-clock duration of the campaign.
        discovery_trace: per-iteration ``(iteration, elapsed_s, n_offsets)``
            samples — the raw series behind time-to-recall plots (Fig 10).
        final_eps: epsilon after decay at campaign end.
        quarantined: valuations whose debloat test raised and were skipped
            under the resilience layer's quarantine policy (empty unless
            ``resilience.quarantine`` was on and a test actually failed).
    """

    flat_indices: np.ndarray
    seeds: List[Seed]
    iterations: int
    stop_reason: str
    elapsed_seconds: float
    discovery_trace: List[Tuple[int, float, int]]
    final_eps: float
    quarantined: List[QuarantinedSeed] = field(default_factory=list)

    @property
    def n_useful(self) -> int:
        return sum(1 for s in self.seeds if s.useful)

    @property
    def n_nonuseful(self) -> int:
        return sum(1 for s in self.seeds if s.useful is False)

    @property
    def n_offsets(self) -> int:
        return int(self.flat_indices.size)


class FuzzSchedule:
    """Stateful implementation of Algorithm 1.

    Args:
        test: the audited debloat test (Definition 2), returning the flat
            offsets of ``I_v``.
        space: the parameter space Theta.
        config: Figure 5 configuration.
        n_flat: size of the flat offset space (used to allocate the
            discovered-offset bitmap).
    """

    def __init__(
        self,
        test: DebloatTestFn,
        space: ParameterSpace,
        config: FuzzConfig,
        n_flat: int,
    ):
        if n_flat <= 0:
            raise FuzzConfigError(f"n_flat must be positive, got {n_flat}")
        self.test = test
        self.space = space
        self.config = config
        self.n_flat = n_flat
        self.rng = np.random.default_rng(config.rng_seed)
        # MUTATE's raw words; holds the generator's kept 32-bit half
        # between draws, so the generator's state is current only after
        # ``words.flush()``.
        self.words = WordStream(self.rng)
        self.queue: deque = deque()
        self.seen: set = set()
        self.cl_u = ClusterSet(config.diameter, useful=True)
        self.cl_n = ClusterSet(config.diameter, useful=False)
        self.bitmap = np.zeros(n_flat, dtype=bool)
        self.seeds: List[Seed] = []
        self.eps = config.eps
        self.itr = 0
        self.new_itr = 0  # iterations since the last new offset
        # Resilience-layer state: the discovery trace and offset counter
        # live on the instance (not in run()) so checkpoints capture them
        # and a resumed campaign continues the same series.
        self.trace: List[Tuple[int, float, int]] = []
        self.n_offsets = 0
        self.quarantined: List[QuarantinedSeed] = []
        self._elapsed_prior = 0.0

    # -- Alg 1 subroutines ---------------------------------------------------

    def random_restart(self) -> None:
        """Discard the queue and refill with fresh uniform seeds.

        Section IV-A2: "Every few iterations, the algorithm ... discards
        the values in its queue and starts with a new set of seeds sampled
        uniformly at random from the whole input space Theta."
        """
        self.queue.clear()
        # Sampling makes 32-bit draws: hand the generator its kept half.
        self.words.flush()
        wanted = self.config.n_initial
        attempts = 0
        while wanted > 0 and attempts < 50 * self.config.n_initial:
            v = self.space.sample(self.rng)
            attempts += 1
            if v not in self.seen:
                self.queue.append(v)
                self.seen.add(v)
                wanted -= 1
        if wanted > 0:
            # Theta nearly exhausted; accept repeats rather than stall.
            for _ in range(wanted):
                self.queue.append(self.space.sample(self.rng))
        self.words.sync()

    def evaluate_seed(self, v: Tuple[float, ...]) -> Seed:
        """Run the debloat test on ``v`` and fold ``I_v`` into ``IS``
        (Alg 1 lines 6-9)."""
        flat = np.asarray(self.test(v), dtype=np.int64).reshape(-1)
        if flat.size:
            # Setting every offset of I_v sets exactly its new ones, so
            # the fold needs no mask of them.
            n_new = flat.size - int(np.count_nonzero(self.bitmap[flat]))
            if n_new:
                self.bitmap[flat] = True
            seed = Seed(v=v, useful=True, n_new_offsets=n_new,
                        iteration=self.itr)
        else:
            seed = Seed(v=v, useful=False, iteration=self.itr)
        self.seeds.append(seed)
        return seed

    def mutate(self, seed: Seed) -> List[Tuple[float, ...]]:
        """MUTATE(v, C): epsilon-greedy choice of UNIFORM vs GREEDY."""
        cfg = self.config
        dist = cfg.u_dist if seed.useful else cfg.n_dist
        reps = cfg.u_reps if seed.useful else cfg.n_reps
        # The same double as ``rng.uniform(0.0, 1.0)``: 0 + 1 * u is u.
        prob = self.rng.random()
        if cfg.plain_ee or prob <= self.eps:
            return uniform_mutations(seed.v, self.space, dist, reps,
                                     self.words)
        # Boundary-based: useful seeds walk toward the non-useful clusters
        # (and vice versa) — i.e. toward the subset boundary.
        opposite = self.cl_n if seed.useful else self.cl_u
        found = opposite.nearest(seed.v)
        if found is None:
            return uniform_mutations(seed.v, self.space, dist, reps,
                                     self.words)
        cluster, distance = found
        return greedy_mutations(
            seed.v, self.space, cluster, distance, dist, reps, self.words
        )

    def stopping_criteria(self, deadline: Optional[float]) -> Optional[str]:
        """Why the schedule should stop now, or None to continue."""
        if self.itr >= self.config.max_iter:
            return "max_iter"
        if self.new_itr >= self.config.stop_iter:
            return "stagnation"
        if deadline is not None and time.perf_counter() >= deadline:
            return "time_budget"
        return None

    # -- checkpointing ---------------------------------------------------------

    def _vs_array(self, vs) -> np.ndarray:
        """Pack an iterable of parameter tuples as a (n, ndim) f8 array."""
        vs = list(vs)
        return np.asarray(
            [list(v) for v in vs], dtype=np.float64
        ).reshape(len(vs), self.space.ndim)

    def capture_state(self, elapsed_s: float) -> Dict:
        """Snapshot every piece of mutable campaign state.

        Together with the (pure) debloat test and the immutable config,
        the snapshot fully determines the rest of the campaign: restoring
        it and continuing replays the uninterrupted run bit-identically.
        """
        useful_code = {None: -1, False: 0, True: 1}
        self.words.flush()
        return {
            "version": CHECKPOINT_VERSION,
            "n_flat": int(self.n_flat),
            "itr": int(self.itr),
            "new_itr": int(self.new_itr),
            "eps": float(self.eps),
            "n_offsets": int(self.n_offsets),
            "elapsed_s": float(elapsed_s),
            "rng_state": self.rng.bit_generator.state,
            "queue": self._vs_array(self.queue),
            "seen": self._vs_array(sorted(self.seen)),
            "bitmap_indices": np.flatnonzero(self.bitmap).astype(np.int64),
            "seed_v": self._vs_array(s.v for s in self.seeds),
            "seed_useful": np.asarray(
                [useful_code[s.useful] for s in self.seeds], dtype=np.int8
            ),
            "seed_new": np.asarray(
                [s.n_new_offsets for s in self.seeds], dtype=np.int64
            ),
            "seed_iter": np.asarray(
                [s.iteration for s in self.seeds], dtype=np.int64
            ),
            "cl_u_centers": self._vs_array(self.cl_u.centers),
            "cl_u_sizes": self.cl_u.sizes.copy(),
            "cl_n_centers": self._vs_array(self.cl_n.centers),
            "cl_n_sizes": self.cl_n.sizes.copy(),
            "trace": np.asarray(self.trace, dtype=np.float64).reshape(
                len(self.trace), 3
            ),
            "quarantine_v": self._vs_array(q.v for q in self.quarantined),
            "quarantine_iter": np.asarray(
                [q.iteration for q in self.quarantined], dtype=np.int64
            ),
            "quarantine_errors": [q.error for q in self.quarantined],
            # Verdict strings aligned with quarantine_errors; "" encodes
            # "no verdict" (an ordinary in-process exception).
            "quarantine_verdicts": [
                q.verdict or "" for q in self.quarantined
            ],
        }

    def restore_state(self, state: Dict) -> None:
        """Apply a snapshot produced by :meth:`capture_state`."""
        if int(state["n_flat"]) != self.n_flat:
            raise CheckpointError(
                f"checkpoint n_flat {state['n_flat']} != schedule n_flat "
                f"{self.n_flat} — wrong program/dims for this checkpoint"
            )
        try:
            self.rng.bit_generator.state = state["rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"invalid RNG state: {exc}") from exc
        self.words.sync()
        self.itr = int(state["itr"])
        self.new_itr = int(state["new_itr"])
        self.eps = float(state["eps"])
        self.n_offsets = int(state["n_offsets"])
        self._elapsed_prior = float(state["elapsed_s"])
        as_tuple = lambda row: tuple(float(x) for x in row)  # noqa: E731
        self.queue = deque(as_tuple(r) for r in state["queue"])
        self.seen = {as_tuple(r) for r in state["seen"]}
        self.bitmap[:] = False
        self.bitmap[state["bitmap_indices"]] = True
        useful_decode = {-1: None, 0: False, 1: True}
        self.seeds = [
            Seed(v=as_tuple(v), useful=useful_decode[int(u)],
                 n_new_offsets=int(n), iteration=int(i))
            for v, u, n, i in zip(
                state["seed_v"], state["seed_useful"],
                state["seed_new"], state["seed_iter"],
            )
        ]
        self.cl_u.load(state["cl_u_centers"], state["cl_u_sizes"])
        self.cl_n.load(state["cl_n_centers"], state["cl_n_sizes"])
        self.trace = [
            (int(r[0]), float(r[1]), int(r[2])) for r in state["trace"]
        ]
        # Checkpoints written before supervised execution existed carry no
        # verdict column; default every entry to "no verdict".
        verdicts = state.get("quarantine_verdicts")
        if verdicts is None:
            verdicts = [""] * len(state["quarantine_errors"])
        self.quarantined = [
            QuarantinedSeed(v=as_tuple(v), iteration=int(i), error=str(e),
                            verdict=str(d) or None)
            for v, i, e, d in zip(
                state["quarantine_v"], state["quarantine_iter"],
                state["quarantine_errors"], verdicts,
            )
        ]

    @classmethod
    def from_checkpoint(
        cls,
        test: DebloatTestFn,
        space: ParameterSpace,
        config: FuzzConfig,
        n_flat: int,
        path: str,
    ) -> "FuzzSchedule":
        """Rebuild a schedule mid-campaign from an on-disk checkpoint."""
        state = load_campaign_state(path)
        schedule = cls(test, space, config, n_flat)
        schedule.restore_state(state)
        return schedule

    # -- the main loop ---------------------------------------------------------

    def run(self, time_budget_s: Optional[float] = None
            ) -> FuzzCampaignResult:
        """Execute the fuzz schedule to completion.

        Args:
            time_budget_s: optional wall-clock cap (the paper's fixed time
                budgets in Section V-C), checked between iterations.
        """
        cfg = self.config
        res = cfg.resilience
        start = time.perf_counter()
        deadline = start + time_budget_s if time_budget_s is not None else None

        def elapsed() -> float:
            # Resumed campaigns continue the interrupted run's clock.
            return self._elapsed_prior + (time.perf_counter() - start)

        try:
            stop_reason = "exhausted"
            while True:
                reason = self.stopping_criteria(deadline)
                if reason is not None:
                    stop_reason = reason
                    break
                self.itr += 1
                if (not self.queue) or (
                    cfg.enable_restart and self.itr % cfg.restart == 0
                ):
                    self.random_restart()
                if not self.queue:
                    stop_reason = "exhausted"
                    break
                v = self.queue.popleft()
                failure: Optional[BaseException] = None
                seed: Optional[Seed] = None
                try:
                    seed = self.evaluate_seed(v)
                except InjectedFault:
                    raise  # simulated crashes must crash (checkpoint path)
                except Exception as exc:
                    if not res.quarantine:
                        raise
                    failure = exc
                if seed is None:
                    # Quarantine: record and skip — no cluster update, no
                    # mutations, no RNG draws; the iteration still counts.
                    self.quarantined.append(
                        QuarantinedSeed(
                            v=v, iteration=self.itr, error=repr(failure),
                            verdict=getattr(failure, "verdict", None) or None,
                        )
                    )
                    self.new_itr += 1
                else:
                    if seed.n_new_offsets > 0:
                        self.new_itr = 0
                        self.n_offsets += seed.n_new_offsets
                    else:
                        self.new_itr += 1
                    if seed.useful:
                        self.cl_u.add(seed.v)
                    else:
                        self.cl_n.add(seed.v)
                    for child in self.mutate(seed):
                        if child not in self.seen:
                            self.seen.add(child)
                            self.queue.append(child)
                if self.itr % cfg.decay_iter == 0:
                    self.eps *= cfg.decay
                self.trace.append((self.itr, elapsed(), self.n_offsets))
                if res.checkpointing and self.itr % res.checkpoint_every == 0:
                    save_campaign_state(
                        res.checkpoint_path, self.capture_state(elapsed())
                    )
        finally:
            # Leave the generator current, also when a test raised.
            self.words.flush()
        if res.checkpointing:
            # Final checkpoint so a post-campaign crash can still resume
            # (and --resume on a finished campaign is a cheap no-op).
            save_campaign_state(
                res.checkpoint_path, self.capture_state(elapsed())
            )
        return FuzzCampaignResult(
            flat_indices=np.flatnonzero(self.bitmap).astype(np.int64),
            seeds=self.seeds,
            iterations=self.itr,
            stop_reason=stop_reason,
            elapsed_seconds=elapsed(),
            discovery_trace=self.trace,
            final_eps=self.eps,
            quarantined=self.quarantined,
        )


def run_fuzz_schedule(
    test: DebloatTestFn,
    space: ParameterSpace,
    config: FuzzConfig,
    n_flat: int,
    time_budget_s: Optional[float] = None,
) -> FuzzCampaignResult:
    """One-shot convenience wrapper around :class:`FuzzSchedule`."""
    return FuzzSchedule(test, space, config, n_flat).run(time_budget_s)
