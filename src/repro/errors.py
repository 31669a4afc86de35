"""Exception hierarchy for the Kondo reproduction.

Every error raised by this package derives from :class:`KondoError` so
callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class KondoError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SchemaError(KondoError):
    """An array schema is malformed (bad dims, dtype, or chunk shape)."""


class LayoutError(KondoError):
    """An index or byte offset is outside the layout's domain."""


class FileFormatError(KondoError):
    """A KND/KNDS file is corrupt or has an unsupported version."""


class DataMissingError(KondoError):
    """A read hit a Null (debloated-away) region of a data subset.

    This is the run-time exception the paper describes in Section III:
    accessing an offset ``v`` with ``D_Theta(v) == Null`` raises it.

    Attributes:
        index: the d-dimensional index that was requested, when known.
        path:  the debloated file that was being read.
    """

    def __init__(self, message: str, index=None, path=None):
        super().__init__(message)
        self.index = index
        self.path = path


class AuditError(KondoError):
    """The auditing subsystem was misused (e.g. event on a closed session)."""


class TraceParseError(KondoError):
    """An strace output line could not be parsed."""


class GeometryError(KondoError):
    """A hull operation received invalid input (e.g. empty point set)."""


class FuzzConfigError(KondoError):
    """A fuzzing/carving configuration value is out of range."""


class ResilienceConfigError(KondoError):
    """A resilience-layer configuration value is out of range."""


class FetchError(KondoError):
    """A remote fetch of a debloated-away offset failed (after retries)."""


class CircuitOpenError(FetchError):
    """The remote-fetch circuit breaker is open; calls are short-circuited."""


class CheckpointError(KondoError):
    """A fuzz-campaign checkpoint could not be written, read, or applied."""


class InjectedFault(KondoError):
    """A deliberate failure raised by the fault-injection harness.

    Injected faults deliberately bypass the quarantine path: a simulated
    crash must actually take the campaign down so the checkpoint/resume
    machinery — not the per-valuation quarantine — is what recovers it.
    """


class SupervisedRunError(KondoError):
    """A supervised child run ended without delivering a result.

    Raised by the supervision layer when a run's verdict is TIMEOUT,
    OOM, SIGNALED, LOST-HEARTBEAT, or NONZERO-without-payload.  (A child
    that raised an ordinary exception re-raises *that* exception instead,
    so supervised and unsupervised failures look identical upstream.)

    Attributes:
        verdict: the verdict name (``"TIMEOUT"``, ``"OOM"``, ...) — a
            plain string so this module stays dependency-free; the
            quarantine path records it next to the valuation.
        exit_code: child exit status, when it exited normally.
        signal: terminating signal number, when it was signaled.

    The message is deterministic (no timings, no PIDs): it is persisted
    in campaign checkpoints and must replay bit-identically.
    """

    def __init__(self, message: str, verdict: str = "",
                 exit_code=None, signal=None):
        super().__init__(message)
        self.verdict = verdict
        self.exit_code = exit_code
        self.signal = signal

    def __reduce__(self):
        # Keep the extra attributes through pickling, e.g. when a
        # nested supervised child ships the error over its result pipe.
        return (
            self.__class__,
            (self.args[0] if self.args else "", self.verdict,
             self.exit_code, self.signal),
        )


class ServiceError(KondoError):
    """The campaign-orchestrator service failed or was misused."""


class ServiceProtocolError(ServiceError):
    """A socket request/response could not be framed, parsed, or bounded."""


class ServiceUnavailableError(ServiceProtocolError):
    """No daemon is listening at the socket (connection refused/absent).

    The typed form of the client's connect failure, so callers can
    distinguish "service down — retry or start it" from a genuinely
    malformed exchange.  Subclasses :class:`ServiceProtocolError` so
    pre-existing ``except ServiceProtocolError`` handlers still catch it.
    """


class FleetError(ServiceError):
    """A multi-host fleet operation failed or was misused."""


class StaleTokenError(FleetError):
    """A fleet-store write carried a superseded fencing token.

    Raised when a worker that lost its shard lease — because it paused,
    was partitioned away, or simply straggled past the lease deadline —
    tries to publish a completion (or renew its lease) after a newer
    owner already claimed a higher token.  The write is rejected whole:
    the shared store holds old-or-new records, never a hybrid.

    Attributes:
        token: the stale token the writer presented.
        current: the highest token granted for the shard at check time.
    """

    def __init__(self, message: str, token: int = 0, current: int = 0):
        super().__init__(message)
        self.token = token
        self.current = current


class FleetPartitionedError(FleetError):
    """The daemon has lost its shared fleet store and is read-only.

    The typed form of a fleet daemon's degraded partition mode: it can
    still answer local status reads from its last-known snapshot, but
    cannot admit work, claim shards, or publish results until its
    rejoin probe reaches the store again.  Carries ``code`` so callers
    branching on :class:`JobRejectedError`-style rejection codes keep
    working.
    """

    code = "PARTITIONED"


class JobRejectedError(ServiceError):
    """The daemon refused a job submission.

    Attributes:
        code: machine-readable rejection code (``"REJECTED-BUSY"`` when
            admission control hit the queue bound, ``"DRAINING"`` when
            the daemon is shutting down, ``"BAD-REQUEST"`` for a
            malformed spec, ``"UNKNOWN-JOB"``, ``"NOT-CANCELLABLE"``).
    """

    def __init__(self, message: str, code: str = "BAD-REQUEST"):
        super().__init__(message)
        self.code = code


class ProgramError(KondoError):
    """A workload program was invoked with an invalid parameter value."""


class ContainerSpecError(KondoError):
    """A container specification file could not be parsed."""
