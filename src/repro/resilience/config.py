"""Resilience-layer configuration.

:class:`ResilienceConfig` is the single knob block for the resilience
layer, carried by :class:`~repro.fuzzing.config.FuzzConfig` (checkpointing,
quarantine, supervised execution) and consumed directly by the self-healing
runtime (fetch retry / breaker / fallback).  Every default is *off*: a
pipeline run with the default config behaves — state for state, byte for
byte — like one without the resilience layer at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ResilienceConfigError


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the pipeline's resilience layer.

    Attributes:
        fetch_retries: extra attempts for a failing remote fetch (``0``
            keeps the seed behaviour: the first failure propagates).
        fetch_backoff_s: initial delay before the first retry.
        fetch_backoff_factor: multiplier applied to the delay per retry.
        fetch_backoff_max_s: ceiling on any single backoff delay.
        fetch_deadline_s: wall-clock budget for one fetch including all
            retries; ``None`` means no deadline.
        breaker_threshold: consecutive fetch failures that trip the
            circuit breaker open (``0`` disables the breaker).
        breaker_reset_s: seconds the breaker stays open before one
            half-open probe call is allowed through.
        checkpoint_path: where the fuzz campaign writes its checkpoint
            (``None`` disables checkpointing).
        checkpoint_every: iterations between campaign checkpoints.
        quarantine: record-and-skip valuations whose debloat test raises,
            instead of aborting the campaign.
        keep_generations: journal generation snapshots retained per
            bundle by the durability layer (``0`` keeps all; ``N > 0``
            prunes to the newest N, bounding journal disk use at the
            cost of how far ``kondo rollback`` can reach).
        run_timeout_s: wall-clock budget for one supervised debloat-test
            execution; also sizes the child's CPU rlimit.  Setting any
            of the three ``run_*``/heartbeat knobs runs every execution
            in a watched, resource-limited child process (verdicts
            TIMEOUT / OOM / SIGNALED / NONZERO / LOST-HEARTBEAT flow
            into quarantine); ``None`` (default) never forks.
        run_memory_mb: address-space headroom (MiB) one supervised run
            may allocate beyond the interpreter baseline, enforced by
            ``RLIMIT_AS`` in the child.
        heartbeat_interval_s: supervised children emit a heartbeat on
            this period; a child silent for several intervals while its
            wall budget has not expired is killed with verdict
            LOST-HEARTBEAT.
    """

    fetch_retries: int = 0
    fetch_backoff_s: float = 0.05
    fetch_backoff_factor: float = 2.0
    fetch_backoff_max_s: float = 2.0
    fetch_deadline_s: Optional[float] = None
    breaker_threshold: int = 0
    breaker_reset_s: float = 30.0
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 100
    quarantine: bool = False
    keep_generations: int = 0
    run_timeout_s: Optional[float] = None
    run_memory_mb: Optional[int] = None
    heartbeat_interval_s: Optional[float] = None

    def __post_init__(self):
        if self.fetch_retries < 0:
            raise ResilienceConfigError(
                f"fetch_retries must be >= 0, got {self.fetch_retries}"
            )
        if self.fetch_backoff_s < 0:
            raise ResilienceConfigError(
                f"fetch_backoff_s must be >= 0, got {self.fetch_backoff_s}"
            )
        if self.fetch_backoff_factor < 1.0:
            raise ResilienceConfigError(
                f"fetch_backoff_factor must be >= 1, got "
                f"{self.fetch_backoff_factor}"
            )
        if self.fetch_backoff_max_s < 0:
            raise ResilienceConfigError(
                f"fetch_backoff_max_s must be >= 0, got "
                f"{self.fetch_backoff_max_s}"
            )
        if self.fetch_deadline_s is not None and self.fetch_deadline_s <= 0:
            raise ResilienceConfigError(
                f"fetch_deadline_s must be positive, got "
                f"{self.fetch_deadline_s}"
            )
        if self.breaker_threshold < 0:
            raise ResilienceConfigError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s < 0:
            raise ResilienceConfigError(
                f"breaker_reset_s must be >= 0, got {self.breaker_reset_s}"
            )
        if self.checkpoint_every < 1:
            raise ResilienceConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.keep_generations < 0:
            raise ResilienceConfigError(
                f"keep_generations must be >= 0, got {self.keep_generations}"
            )
        for name in ("run_timeout_s", "run_memory_mb",
                     "heartbeat_interval_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ResilienceConfigError(
                    f"{name} must be positive when set, got {value}"
                )

    @property
    def checkpointing(self) -> bool:
        """Whether the campaign should write periodic checkpoints."""
        return self.checkpoint_path is not None

    @property
    def supervised(self) -> bool:
        """Whether executions run in supervised child processes."""
        return (self.run_timeout_s is not None
                or self.run_memory_mb is not None
                or self.heartbeat_interval_s is not None)


#: The all-off configuration: seed-identical pipeline behaviour.
NO_RESILIENCE = ResilienceConfig()
