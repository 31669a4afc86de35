"""Process-isolated supervised execution with watchdogs and escalation.

The supervisor runs one callable per forked child process.  The child
applies its rlimits (:mod:`repro.resilience.supervision.limits`), starts
a heartbeat thread, evaluates the callable, and ships the pickled result
back over a pipe.  The parent watches three things concurrently in a
single ``select`` loop — the result pipe, the heartbeat pipe, and the
child's exit — and classifies whatever happens first into a
:class:`~repro.resilience.supervision.verdict.RunVerdict`.

Escalation ladder (a hung or leaking child is *always* reaped)::

    budget expires ──> SIGTERM ──(grace_s)──> SIGKILL ──> waitpid

Determinism: a supervised run of a pure debloat test returns exactly the
value the in-process call would have returned, and a child-raised
exception is re-raised in the parent as the *same* exception — so with
no faults injected a supervised campaign replays bit-identically to an
unsupervised one.  Error messages for non-OK verdicts carry no timings
or PIDs, because they are persisted into campaign checkpoints.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ResilienceConfigError, SupervisedRunError
from repro.resilience.supervision.limits import apply_child_limits
from repro.resilience.supervision.verdict import RunVerdict, SupervisedResult

#: Heartbeats the watchdog tolerates missing before declaring the child
#: wedged (scaled by ``heartbeat_interval_s``).
MISSED_BEATS = 4

#: Floor on the heartbeat staleness window, so very short intervals do
#: not misfire on scheduler hiccups.
MIN_HEARTBEAT_GRACE_S = 0.25

#: Watchdog wake-up period (seconds) — bounds kill latency, not results.
WATCH_TICK_S = 0.02

_FRAME_HEADER = struct.Struct("<Q")

#: Child-side switch the fault injectors use to simulate a wedged
#: interpreter: once set, the heartbeat thread stops beating while the
#: process stays alive (see :func:`suppress_heartbeat`).
_HEARTBEAT_SUPPRESSED = threading.Event()


def suppress_heartbeat() -> None:
    """Stop this process's supervision heartbeat (fault-injection hook).

    Called *inside a supervised child* by fault injectors (the chaos
    tests' ``HangForever(drop_heartbeat=True)`` in ``tests/chaos/``) to
    model the failure mode where
    the interpreter is wedged (heartbeats stop) but the process has not
    exhausted its wall-clock budget yet — the LOST-HEARTBEAT verdict.
    """
    _HEARTBEAT_SUPPRESSED.set()


def _beat(fd: int, interval_s: float, stop: threading.Event) -> None:
    """Child heartbeat thread: one byte per interval until stopped."""
    try:
        os.write(fd, b".")
        while not stop.wait(interval_s):
            if _HEARTBEAT_SUPPRESSED.is_set():
                return
            os.write(fd, b".")
    except OSError:
        # Parent went away (pipe closed); nothing left to report to.
        return


def _write_frame(fd: int, payload: bytes) -> None:
    data = _FRAME_HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _child_main(supervisor: "Supervisor", fn: Callable, args: tuple,
                kwargs: dict, result_fd: int, heartbeat_fd: int) -> None:
    """Everything the forked child does; must end in ``os._exit``."""
    _HEARTBEAT_SUPPRESSED.clear()  # never inherit a parent-side test flag
    apply_child_limits(
        cpu_timeout_s=supervisor.timeout_s,
        memory_headroom_mb=supervisor.memory_mb,
    )
    stop = threading.Event()
    if supervisor.heartbeat_interval_s is not None:
        threading.Thread(
            target=_beat,
            args=(heartbeat_fd, supervisor.heartbeat_interval_s, stop),
            name="kondo-heartbeat",
            daemon=True,
        ).start()
    try:
        value = fn(*args, **kwargs)
        payload = ("ok", value)
    except MemoryError:
        # The address-space rlimit stopped an allocation: report OOM by
        # kind, not by exception object (a MemoryError's context may be
        # unpicklable precisely because memory is exhausted).
        payload = ("oom", "MemoryError: address-space limit reached")
    # kondo: allow[KND003] the child ships every failure to the parent
    # over the result pipe, where it re-enters the quarantine taxonomy —
    # nothing is swallowed
    except BaseException as exc:  # noqa: BLE001
        payload = ("err", exc)
    stop.set()
    try:
        data = pickle.dumps(payload)
    # kondo: allow[KND003] pickling failures degrade to a string payload
    # shipped over the same pipe — the failure still reaches the parent's
    # verdict classification, nothing is swallowed
    except Exception:
        kind = payload[0] if payload[0] != "ok" else "err"
        data = pickle.dumps(
            (kind, f"unpicklable child payload ({payload[0]}): "
                   f"{type(payload[1]).__name__}")
        )
    try:
        _write_frame(result_fd, data)
        os.close(result_fd)
    except OSError:
        os._exit(81)  # parent vanished mid-report
    os._exit(0)


def _drain(fd: int, buf: bytearray) -> bool:
    """Nonblocking-read everything currently in ``fd``; True on EOF."""
    while True:
        try:
            chunk = os.read(fd, 1 << 16)
        except BlockingIOError:
            return False
        except OSError:
            return True
        if not chunk:
            return True
        buf += chunk


def _decode_frame(buf: bytes):
    """The child's (kind, payload) tuple, or None if torn/absent."""
    if len(buf) < _FRAME_HEADER.size:
        return None
    (length,) = _FRAME_HEADER.unpack_from(buf)
    body = buf[_FRAME_HEADER.size:_FRAME_HEADER.size + length]
    if len(body) != length:
        return None
    try:
        frame = pickle.loads(body)
    # kondo: allow[KND003] an undecodable frame means the child died
    # mid-report; returning None routes the run into the signal/exit
    # classification, which is the taxonomy for exactly that case
    except Exception:
        return None
    if not (isinstance(frame, tuple) and len(frame) == 2):
        return None
    return frame


@dataclass(frozen=True)
class Supervisor:
    """Run callables in watched, resource-limited child processes.

    Args:
        timeout_s: wall-clock budget per run; also sizes the child's CPU
            rlimit.  ``None`` disables the wall-clock watchdog.
        memory_mb: address-space headroom the child may allocate beyond
            the interpreter's baseline (see the limits module).  ``None``
            disables the memory rlimit.
        heartbeat_interval_s: child heartbeat period.  ``None`` disables
            heartbeat monitoring.  A child silent for
            ``max(MISSED_BEATS * interval, MIN_HEARTBEAT_GRACE_S)``
            while still inside its wall budget is killed with verdict
            LOST-HEARTBEAT.
        grace_s: how long a SIGTERM'd child gets to die before SIGKILL.
        on_spawn: optional parent-side callback invoked with the child
            PID right after the fork.  The campaign orchestrator uses it
            to pin the worker's child onto its lease so an operator (or
            a chaos drill) can target the exact process running a job.
        on_heartbeat: optional parent-side callback invoked whenever the
            child's heartbeat pipe delivers beats — the orchestrator
            forwards these into its lease heartbeats, so a job's lease
            stays fresh exactly as long as the child itself is alive.

    Instances are frozen (safely shareable across threads) and, with
    the callbacks left at ``None``, picklable.  Callback-carrying
    supervisors are for direct in-process use only.
    """

    timeout_s: Optional[float] = None
    memory_mb: Optional[int] = None
    heartbeat_interval_s: Optional[float] = None
    grace_s: float = 2.0
    on_spawn: Optional[Callable[[int], None]] = None
    on_heartbeat: Optional[Callable[[], None]] = None

    def __post_init__(self):
        for name in ("timeout_s", "memory_mb", "heartbeat_interval_s"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ResilienceConfigError(
                    f"{name} must be positive when set, got {v}"
                )
        if self.grace_s < 0:
            raise ResilienceConfigError(
                f"grace_s must be >= 0, got {self.grace_s}"
            )

    # -- public API --------------------------------------------------------

    def bind(self, fn: Callable) -> "SupervisedCall":
        """A callable that runs ``fn`` supervised on every invocation."""
        return SupervisedCall(self, fn)

    def run(self, fn: Callable, *args, **kwargs) -> SupervisedResult:
        """Execute ``fn(*args, **kwargs)`` in a supervised child."""
        start = time.monotonic()
        result_r, result_w = os.pipe()
        hb_r, hb_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 80
            try:
                os.close(result_r)
                os.close(hb_r)
                _child_main(self, fn, args, kwargs, result_w, hb_w)
            finally:
                # _child_main normally _exits itself; this is the belt
                # for an exception inside the harness proper.
                os._exit(status)
        os.close(result_w)
        os.close(hb_w)
        if self.on_spawn is not None:
            self.on_spawn(pid)
        os.set_blocking(result_r, False)
        os.set_blocking(hb_r, False)
        try:
            return self._watch(pid, result_r, hb_r, start)
        finally:
            os.close(result_r)
            os.close(hb_r)

    # -- the watchdog ------------------------------------------------------

    @property
    def _heartbeat_grace_s(self) -> Optional[float]:
        if self.heartbeat_interval_s is None:
            return None
        return max(MISSED_BEATS * self.heartbeat_interval_s,
                   MIN_HEARTBEAT_GRACE_S)

    def _watch(self, pid: int, result_fd: int, hb_fd: int,
               start: float) -> SupervisedResult:
        deadline = (start + self.timeout_s
                    if self.timeout_s is not None else None)
        hb_grace = self._heartbeat_grace_s
        hb_deadline = start + hb_grace if hb_grace is not None else None
        buf = bytearray()
        killed_for: Optional[RunVerdict] = None
        term_at: Optional[float] = None
        sigkilled = False
        while True:
            readable, _, _ = select.select(
                [result_fd, hb_fd], [], [], WATCH_TICK_S
            )
            if result_fd in readable:
                _drain(result_fd, buf)
            if hb_fd in readable:
                beat = bytearray()
                _drain(hb_fd, beat)
                if beat:
                    if hb_grace is not None:
                        hb_deadline = time.monotonic() + hb_grace
                    if self.on_heartbeat is not None:
                        self.on_heartbeat()
            done_pid, status = os.waitpid(pid, os.WNOHANG)
            if done_pid == pid:
                _drain(result_fd, buf)
                return self._classify(
                    status, bytes(buf), time.monotonic() - start, killed_for
                )
            now = time.monotonic()
            if killed_for is None:
                if deadline is not None and now >= deadline:
                    killed_for = RunVerdict.TIMEOUT
                elif hb_deadline is not None and now >= hb_deadline:
                    killed_for = RunVerdict.LOST_HEARTBEAT
                if killed_for is not None:
                    term_at = now
                    self._kill(pid, signal.SIGTERM)
            elif not sigkilled and term_at is not None \
                    and now - term_at >= self.grace_s:
                sigkilled = True
                self._kill(pid, signal.SIGKILL)

    @staticmethod
    def _kill(pid: int, sig: int) -> None:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass  # already gone; waitpid will reap it

    def _classify(self, status: int, buf: bytes, elapsed_s: float,
                  killed_for: Optional[RunVerdict]) -> SupervisedResult:
        exit_code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
        sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
        if killed_for is not None:
            # We escalated; the watchdog's reason wins over how the
            # child happened to die under our signals.
            if killed_for is RunVerdict.TIMEOUT:
                detail = (f"supervised run exceeded its wall-clock budget "
                          f"(run_timeout_s={self.timeout_s})")
            else:
                detail = (f"supervised run stopped heartbeating "
                          f"(heartbeat_interval_s="
                          f"{self.heartbeat_interval_s}) before its budget "
                          f"expired")
            return SupervisedResult(
                verdict=killed_for, detail=detail, elapsed_s=elapsed_s,
                exit_code=exit_code, signal=sig,
            )
        frame = _decode_frame(buf)
        if frame is not None:
            kind, payload = frame
            if kind == "ok":
                return SupervisedResult(
                    verdict=RunVerdict.OK, value=payload,
                    elapsed_s=elapsed_s, exit_code=exit_code, signal=sig,
                )
            if kind == "oom":
                return SupervisedResult(
                    verdict=RunVerdict.OOM,
                    detail=(f"supervised run hit its memory limit "
                            f"(run_memory_mb={self.memory_mb}): {payload}"),
                    elapsed_s=elapsed_s, exit_code=exit_code, signal=sig,
                )
            error = payload if isinstance(payload, BaseException) else None
            return SupervisedResult(
                verdict=RunVerdict.NONZERO, error=error,
                detail=(repr(payload) if error is not None
                        else f"supervised run failed: {payload}"),
                elapsed_s=elapsed_s, exit_code=exit_code, signal=sig,
            )
        if sig is not None:
            if sig == getattr(signal, "SIGXCPU", -1):
                return SupervisedResult(
                    verdict=RunVerdict.TIMEOUT,
                    detail=(f"supervised run exceeded its CPU rlimit "
                            f"(run_timeout_s={self.timeout_s}, SIGXCPU)"),
                    elapsed_s=elapsed_s, signal=sig,
                )
            if sig == signal.SIGKILL and self.memory_mb is not None:
                return SupervisedResult(
                    verdict=RunVerdict.OOM,
                    detail=(f"supervised run killed by the kernel with a "
                            f"memory limit set (run_memory_mb="
                            f"{self.memory_mb})"),
                    elapsed_s=elapsed_s, signal=sig,
                )
            return SupervisedResult(
                verdict=RunVerdict.SIGNALED,
                detail=f"supervised run died on signal {sig}",
                elapsed_s=elapsed_s, signal=sig,
            )
        return SupervisedResult(
            verdict=RunVerdict.NONZERO,
            detail=(f"supervised run exited with status {exit_code} "
                    f"without delivering a result"),
            elapsed_s=elapsed_s, exit_code=exit_code,
        )


class SupervisedCall:
    """Picklable wrapper: each call of ``fn`` runs in a supervised child.

    Return-value semantics preserve the unsupervised contract exactly:

    * verdict OK — the child's return value is returned;
    * the child raised — the same exception is re-raised here (so
      ``InjectedFault`` still crashes campaigns and quarantine reprs
      match the unsupervised path byte for byte);
    * anything else — :class:`~repro.errors.SupervisedRunError` carrying
      the verdict string, for the quarantine layer to record.
    """

    def __init__(self, supervisor: Supervisor, fn: Callable):
        self.supervisor = supervisor
        self.fn = fn
        self.runs = 0
        self.non_ok = 0

    def __call__(self, *args, **kwargs) -> Any:
        result = self.supervisor.run(self.fn, *args, **kwargs)
        self.runs += 1
        if result.ok:
            return result.value
        self.non_ok += 1
        if result.error is not None:
            raise result.error
        raise SupervisedRunError(
            result.detail, verdict=result.verdict.value,
            exit_code=result.exit_code, signal=result.signal,
        )


def supervisor_from_config(config) -> Optional[Supervisor]:
    """Build a :class:`Supervisor` from a ``ResilienceConfig``.

    Returns ``None`` when every supervision knob is off — the pipeline
    then runs exactly the seed path, with no forking anywhere.
    """
    if config is None or not getattr(config, "supervised", False):
        return None
    return Supervisor(
        timeout_s=config.run_timeout_s,
        memory_mb=config.run_memory_mb,
        heartbeat_interval_s=config.heartbeat_interval_s,
    )
