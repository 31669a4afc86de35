"""Composable fault injectors for the chaos drills (``pytest -m chaos``).

Each injector wraps one dependency the pipeline trusts — file bytes, the
remote fetcher, the debloat test, the campaign loop itself, the fleet
store — and makes it fail the way production does: corrupt artifacts,
flaky or hanging RPCs, hung or leaking runs, processes killed
mid-campaign, a store that goes unreachable.  The drills in
``tests/chaos/test_drills.py`` arm them against the resilience layer and
the service and assert the pipeline's output is unchanged.  Nothing under
``src/`` imports this module: the library takes faults only through its
plain seams (a debloat test, a fetcher, a ``fault_gate`` callable).

All randomness is seeded so every injected failure schedule replays
exactly.  Supervised runs and service units execute in ``os.fork``
children, so an injector defined here (or in a test) reaches the child
as-is; its call counts cross the fork through :class:`_ForkSafeCounter`.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import FetchError, InjectedFault, ResilienceConfigError

#: Supported byte-corruption modes for :func:`corrupt_file`.
CORRUPTION_MODES = ("flip", "zero", "truncate", "bitrot")


def corrupt_file(
    path: str,
    mode: str = "flip",
    offset: Optional[int] = None,
    length: int = 1,
    seed: int = 0,
    sites: int = 3,
) -> int:
    """Corrupt an on-disk artifact in place; return the affected offset.

    Args:
        path: file to damage (KND/KNDS/npz/...).
        mode: ``"flip"`` XOR-flips ``length`` bytes, ``"zero"`` zeroes
            them, ``"truncate"`` cuts the file at the offset,
            ``"bitrot"`` flips one byte at each of ``sites`` distinct
            seeded positions — the multi-span media-decay pattern the
            per-span CRC table localizes.
        offset: byte position; when omitted, one is drawn uniformly from
            the file (seeded, so the damage is reproducible).  For
            ``"truncate"`` an explicit offset must satisfy
            ``0 < offset < size`` — ``0`` would *empty* the file and
            ``>= size`` would not damage it at all, so both are config
            errors rather than silently-clamped no-drills.  For
            ``"bitrot"`` the offset is ignored (sites are always drawn).
        length: bytes affected (flip/zero modes).
        seed: RNG seed for drawn offsets.
        sites: number of distinct corruption sites (bitrot mode).

    Returns:
        The (first, for bitrot) affected byte offset.
    """
    if mode not in CORRUPTION_MODES:
        raise ResilienceConfigError(
            f"mode must be one of {CORRUPTION_MODES}, got {mode!r}"
        )
    size = os.path.getsize(path)
    if size == 0:
        raise ResilienceConfigError(f"{path}: cannot corrupt an empty file")
    if mode == "bitrot":
        if sites < 1:
            raise ResilienceConfigError(
                f"bitrot needs sites >= 1, got {sites}"
            )
        if sites > size:
            raise ResilienceConfigError(
                f"bitrot with {sites} sites needs a file of at least "
                f"that many bytes, got {size}"
            )
        rng = np.random.default_rng(seed)
        positions = sorted(
            int(p) for p in rng.choice(size, size=sites, replace=False)
        )
        with open(path, "r+b") as fh:
            for pos in positions:
                fh.seek(pos)
                byte = fh.read(1)
                fh.seek(pos)
                fh.write(bytes([byte[0] ^ 0xFF]))
        return positions[0]
    if mode == "truncate":
        if offset is None:
            offset = int(np.random.default_rng(seed).integers(1, size))
        offset = int(offset)
        if offset <= 0 or offset >= size:
            raise ResilienceConfigError(
                f"truncate offset must be in (0, {size}) for {path}: "
                f"{offset} would "
                + ("empty the file" if offset <= 0 else "not damage it")
            )
        with open(path, "r+b") as fh:
            fh.truncate(offset)
        return offset
    if offset is None:
        offset = int(np.random.default_rng(seed).integers(0, size))
    offset = min(max(int(offset), 0), size - 1)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        chunk = bytearray(fh.read(length))
        if not chunk:
            chunk = bytearray(1)
        for i in range(len(chunk)):
            chunk[i] = 0 if mode == "zero" else chunk[i] ^ 0xFF
        fh.seek(offset)
        fh.write(bytes(chunk))
    return offset


def torn_write(path: str, data: bytes, keep_bytes: int) -> None:
    """Simulate a non-atomic overwrite killed after ``keep_bytes``.

    The file ends up holding exactly the first ``keep_bytes`` of
    ``data`` — the state a crashed ``open(path, "wb")`` writer leaves
    behind, which is precisely what ``repro.ioutil.atomic_write``
    exists to prevent.
    """
    if not 0 <= keep_bytes <= len(data):
        raise ResilienceConfigError(
            f"keep_bytes must be in [0, {len(data)}], got {keep_bytes}"
        )
    with open(path, "wb") as fh:
        fh.write(data[:keep_bytes])


def torn_append(path: str, data: bytes, keep_bytes: int) -> None:
    """Simulate an append killed after ``keep_bytes`` of ``data``.

    Models a crash inside ``durable_append``: the journal log gains a
    half-written trailing record, which recovery must detect via the
    record CRC and discard.
    """
    if not 0 <= keep_bytes <= len(data):
        raise ResilienceConfigError(
            f"keep_bytes must be in [0, {len(data)}], got {keep_bytes}"
        )
    with open(path, "ab") as fh:
        fh.write(data[:keep_bytes])


class FlakyCallable:
    """Wrap a callable so it fails (or hangs) probabilistically.

    The failure schedule is drawn from a seeded RNG, independent of the
    wrapped function's behaviour, so a retry of the same logical call can
    succeed — exactly how a flaky network dependency behaves.

    Args:
        fn: the wrapped callable.
        fail_rate: probability in ``[0, 1]`` that a call raises
            :class:`FetchError`.
        hang_s: when a call fails, optionally sleep this long first
            (models a hanging RPC; keep small in tests).
        seed: RNG seed for the failure schedule.
        exception: factory for the raised error.
    """

    def __init__(
        self,
        fn: Callable,
        fail_rate: float = 0.5,
        hang_s: float = 0.0,
        seed: int = 0,
        exception: Callable[[str], BaseException] = FetchError,
    ):
        if not 0.0 <= fail_rate <= 1.0:
            raise ResilienceConfigError(
                f"fail_rate must be in [0, 1], got {fail_rate}"
            )
        self.fn = fn
        self.fail_rate = fail_rate
        self.hang_s = hang_s
        self.exception = exception
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.failures = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self._rng.uniform() < self.fail_rate:
            self.failures += 1
            if self.hang_s > 0:
                time.sleep(self.hang_s)
            raise self.exception(
                f"injected fetch failure #{self.failures} "
                f"(call {self.calls}, rate {self.fail_rate})"
            )
        return self.fn(*args, **kwargs)


class _ForkSafeCounter:
    """A call counter that survives the supervision fork boundary.

    Supervised execution runs every call in a freshly forked child, so a
    plain instance attribute would restart from the parent's snapshot on
    each call and a "fail on call N" trigger would never fire.  One byte
    appended to a shared file per call gives the parent and all children
    a single monotonic count (``O_APPEND`` writes are atomic; concurrent
    children can interleave counts but never lose one — exact under the
    serial supervised execution the chaos drills use).
    """

    def __init__(self, path: Optional[str] = None):
        if path is None:
            fd, path = tempfile.mkstemp(prefix="kondo-fault-counter-")
            os.close(fd)
        self.path = path

    def increment(self) -> int:
        """Count one call; return the total so far (1-based)."""
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, b"\x01")
        finally:
            os.close(fd)
        return os.path.getsize(self.path)


#: Seconds per sleep slice while :class:`HangForever` hangs.  Sliced (not
#: one unbounded sleep) so pending signals are re-checked each wakeup.
_HANG_SLICE_S = 3600.0


class HangForever:
    """Wrap a callable so one chosen invocation never returns.

    Models the failure supervision exists for: a debloat test that
    deadlocks or blocks on a dead dependency.  The hang holds no CPU
    (``time.sleep`` slices), so only the wall-clock watchdog — not the
    CPU rlimit — can end it.  **Only use under a supervisor with
    ``run_timeout_s`` (or a heartbeat) set**: unsupervised, the call
    genuinely never returns.

    Args:
        fn: the wrapped callable.
        hang_on_call: 1-based call index that hangs (counted across the
            fork boundary, see :class:`_ForkSafeCounter`).
        drop_heartbeat: instead of merely hanging, also suppress the
            supervised child's heartbeat thread first — the run then dies
            of heartbeat staleness (verdict LOST-HEARTBEAT) rather than
            its wall budget.
        counter_path: explicit counter file (a temp file when omitted).
    """

    def __init__(self, fn: Callable, hang_on_call: int,
                 drop_heartbeat: bool = False,
                 counter_path: Optional[str] = None):
        if hang_on_call < 1:
            raise ResilienceConfigError(
                f"hang_on_call must be >= 1, got {hang_on_call}"
            )
        self.fn = fn
        self.hang_on_call = hang_on_call
        self.drop_heartbeat = drop_heartbeat
        self._counter = _ForkSafeCounter(counter_path)

    def __call__(self, *args, **kwargs):
        if self._counter.increment() == self.hang_on_call:
            if self.drop_heartbeat:
                from repro.resilience.supervision import suppress_heartbeat

                suppress_heartbeat()
            while True:
                time.sleep(_HANG_SLICE_S)
        return self.fn(*args, **kwargs)


class MemoryHog:
    """Wrap a callable so one chosen invocation allocates without bound.

    On the trigger call the hog grows its resident footprint in
    page-touched steps until either the supervised child's ``RLIMIT_AS``
    stops it (the real ``MemoryError`` the OOM verdict classifies) or —
    so the injector stays bounded even unsupervised — its own budget of
    ``grow_mb`` is exhausted, at which point it raises ``MemoryError``
    itself.

    Args:
        fn: the wrapped callable.
        hog_on_call: 1-based call index that hogs (fork-safe counting).
        grow_mb: total allocation budget in MiB; under supervision set
            this well above ``run_memory_mb`` so the rlimit fires first.
        steps: number of allocation steps the budget is split into.
        counter_path: explicit counter file (a temp file when omitted).
    """

    def __init__(self, fn: Callable, hog_on_call: int,
                 grow_mb: int = 512, steps: int = 8,
                 counter_path: Optional[str] = None):
        if hog_on_call < 1:
            raise ResilienceConfigError(
                f"hog_on_call must be >= 1, got {hog_on_call}"
            )
        if grow_mb < 1 or steps < 1:
            raise ResilienceConfigError(
                f"grow_mb and steps must be >= 1, got {grow_mb}/{steps}"
            )
        self.fn = fn
        self.hog_on_call = hog_on_call
        self.grow_mb = grow_mb
        self.steps = steps
        self._counter = _ForkSafeCounter(counter_path)

    def __call__(self, *args, **kwargs):
        if self._counter.increment() == self.hog_on_call:
            hoard = []
            step_elems = max(
                1, (self.grow_mb * (1 << 20)) // (8 * self.steps)
            )
            for _ in range(self.steps):
                # np.ones touches every page, so the allocation is real
                # resident growth, not lazily-mapped zero pages.
                hoard.append(np.ones(step_elems, dtype=np.float64))
            raise MemoryError(
                f"injected memory hog exhausted its {self.grow_mb} MiB "
                f"budget uncontained"
            )
        return self.fn(*args, **kwargs)


class CrashAt:
    """Wrap a debloat test so the campaign dies at a chosen iteration.

    Raises :class:`InjectedFault` on the ``n``-th call (1-based), which —
    by design — is *not* quarantined: it simulates the process crashing,
    and the recovery story is the checkpoint + ``--resume`` path.

    Pass ``counter_path`` when the wrapped test runs under supervision:
    calls then execute in forked children, where only a
    :class:`_ForkSafeCounter` keeps a single monotonic count.
    """

    def __init__(self, fn: Callable, crash_on_call: int,
                 counter_path: Optional[str] = None):
        if crash_on_call < 1:
            raise ResilienceConfigError(
                f"crash_on_call must be >= 1, got {crash_on_call}"
            )
        self.fn = fn
        self.crash_on_call = crash_on_call
        self.calls = 0
        self._counter = (
            _ForkSafeCounter(counter_path) if counter_path is not None
            else None
        )

    def __call__(self, *args, **kwargs):
        if self._counter is not None:
            self.calls = self._counter.increment()
        else:
            self.calls += 1
        if self.calls == self.crash_on_call:
            raise InjectedFault(
                f"injected campaign crash at call {self.calls}"
            )
        return self.fn(*args, **kwargs)


class PartitionGate:
    """Simulate a fleet daemon losing (and regaining) its shared store.

    Passed as ``fault_gate`` to :class:`repro.service.fleet.FleetStore`,
    which invokes the gate at the top of every shared-store operation.
    While the partition is armed every operation raises :class:`OSError`
    — exactly what an unreachable network mount produces — so the
    daemon's partition detector, read-only degradation, and jittered
    rejoin probing all exercise against the real code path.

    ``heal_after`` (optional) auto-heals the partition once that many
    operations have been blocked, letting a drill run the full
    down-degrade-probe-rejoin arc without a second thread timing the
    heal.
    """

    def __init__(self, heal_after: Optional[int] = None):
        if heal_after is not None and heal_after < 1:
            raise ResilienceConfigError(
                f"heal_after must be >= 1, got {heal_after}"
            )
        self.heal_after = heal_after
        self.blocked_calls = 0
        self._down = threading.Event()

    def begin(self) -> None:
        """Arm the partition: store operations fail from now on."""
        self._down.set()

    def heal(self) -> None:
        """Heal the partition: store operations succeed again."""
        self._down.clear()

    @property
    def partitioned(self) -> bool:
        return self._down.is_set()

    def __call__(self) -> None:
        if not self._down.is_set():
            return
        self.blocked_calls += 1
        if self.heal_after is not None \
                and self.blocked_calls >= self.heal_after:
            self._down.clear()
            return
        raise OSError("injected partition: shared fleet store unreachable")


class GateCrashPoint:
    """Crash a fleet worker at exactly the n-th shared-store operation.

    Also a ``fault_gate``: counts every store operation and raises
    :class:`InjectedFault` on the chosen one (1-based), one-shot.  The
    crash-point replay suite sweeps ``crash_on_op`` across every
    operation a campaign performs and asserts a surviving worker always
    completes with the reference digest — a crash between *any* two
    store writes leaves the protocol recoverable.
    """

    def __init__(self, crash_on_op: int):
        if crash_on_op < 1:
            raise ResilienceConfigError(
                f"crash_on_op must be >= 1, got {crash_on_op}"
            )
        self.crash_on_op = crash_on_op
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls == self.crash_on_op:
            raise InjectedFault(
                f"injected store crash at operation {self.calls}"
            )


@dataclass
class ChaosMonkey:
    """A composed fault plan: which injectors to arm for one chaos run.

    Fields are all optional so scenarios arm only the faults they test.
    """

    fetch_fail_rate: float = 0.0
    fetch_seed: int = 0
    crash_on_call: Optional[int] = None
    hang_on_call: Optional[int] = None
    hog_on_call: Optional[int] = None
    hog_grow_mb: int = 512
    corrupt: Sequence[str] = field(default_factory=tuple)

    def wrap_test(self, test: Callable) -> Callable:
        """Arm the debloat-test-side injectors around ``test``."""
        wrapped = test
        if self.hang_on_call is not None:
            wrapped = HangForever(wrapped, self.hang_on_call)
        if self.hog_on_call is not None:
            wrapped = MemoryHog(wrapped, self.hog_on_call,
                                grow_mb=self.hog_grow_mb)
        if self.crash_on_call is not None:
            wrapped = CrashAt(wrapped, self.crash_on_call)
        return wrapped

    def wrap_fetcher(self, fetcher: Callable) -> Callable:
        """Arm the fetch-side injectors around ``fetcher``."""
        if self.fetch_fail_rate > 0:
            return FlakyCallable(
                fetcher, fail_rate=self.fetch_fail_rate, seed=self.fetch_seed
            )
        return fetcher


def wrap_test(kondo, wrapper, *args):
    """Wrap ``kondo``'s debloat test in an injector, keeping ``n_flat``."""
    test = kondo.make_test()
    wrapped = wrapper(test, *args)
    wrapped.n_flat = test.n_flat
    return wrapped
