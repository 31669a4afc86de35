"""The run-verdict taxonomy for supervised executions.

Every supervised child process ends in exactly one of six ways, and the
supervisor's whole job is to map the messy reality of POSIX process
death onto this closed set so the campaign layers above (the quarantine
list, campaign checkpoints) can act on it deterministically:

==================  =====================================================
verdict             meaning
==================  =====================================================
``OK``              the child delivered a result value and exited 0.
``TIMEOUT``         the wall-clock budget (``run_timeout_s``) or the CPU
                    rlimit expired; the child was escalated-killed.
``OOM``             the address-space rlimit (``run_memory_mb``) stopped
                    an allocation (child-reported ``MemoryError``) or the
                    kernel killed the child while a memory limit was set.
``SIGNALED``        the child died on a signal the supervisor did not
                    send (segfault, external kill, fsize overrun, ...).
``NONZERO``         the child exited non-zero, or exited without
                    delivering a result frame.
``LOST-HEARTBEAT``  the child stopped emitting heartbeats while its
                    wall-clock budget had not yet expired — a wedged
                    interpreter rather than a slow one.
==================  =====================================================

A child that raises an ordinary Python exception is *not* a verdict of
its own: the exception travels back over the result pipe and is
re-raised in the supervising process, so supervised and unsupervised
runs fail identically (the quarantine path sees the same error either
way).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class RunVerdict(str, enum.Enum):
    """How one supervised execution ended (see module docstring)."""

    OK = "OK"
    TIMEOUT = "TIMEOUT"
    OOM = "OOM"
    SIGNALED = "SIGNALED"
    NONZERO = "NONZERO"
    LOST_HEARTBEAT = "LOST-HEARTBEAT"

    @property
    def ok(self) -> bool:
        return self is RunVerdict.OK


@dataclass
class SupervisedResult:
    """Everything the supervisor learned about one child run.

    Attributes:
        verdict: the classified outcome (the only field campaign replay
            may depend on — everything else is diagnostic).
        value: the child's return value (``OK`` only).
        error: the child-raised exception (when one travelled back) or a
            deterministic description of the failure.
        elapsed_s: wall-clock duration observed by the supervisor
            (diagnostic; never checkpointed).
        exit_code: the child's exit status when it exited normally.
        signal: the signal number that terminated the child, if any.
    """

    verdict: RunVerdict
    value: Any = None
    error: Optional[BaseException] = None
    detail: str = ""
    elapsed_s: float = 0.0
    exit_code: Optional[int] = None
    signal: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.verdict.ok
