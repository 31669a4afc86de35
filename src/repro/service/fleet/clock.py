"""Fleet timekeeping: one injected clock source, two kinds of time.

Lease-expiry math is the service's most failure-prone arithmetic, and
it must never mix clock kinds:

* **interval questions** ("has this local lease gone ``ttl`` seconds
  without a heartbeat?") belong to the **monotonic** clock — it never
  jumps when NTP slews or an operator resets the date, so a lease can
  neither be immortal nor instantly dead;
* **cross-host questions** ("is the deadline another daemon stamped
  into the shared store behind us?") cannot use monotonic time at all —
  every host's monotonic epoch is arbitrary — so shared-store records
  carry **wall-clock** stamps, and every comparison against them must
  absorb a bounded **skew allowance** between the hosts' wall clocks.

:class:`ClockSource` is the one object that owns both reads plus the
skew-tolerant comparison helpers, and it is injected through the daemon
configuration — production uses the real OS clocks, tests inject
:class:`FakeClock` and drive time by hand, and the chaos drills wrap a
real source in :class:`SkewedClock` to prove the allowance actually
bounds what a skewed host can do.
"""

from __future__ import annotations

import time

from repro.errors import FleetError

#: Default bound on how far apart two cooperating hosts' wall clocks may
#: drift.  Cross-host expiry comparisons only act once a deadline is
#: *more* than this far in the past, so a host whose clock runs ahead by
#: less than the allowance can never steal a live lease.
DEFAULT_SKEW_ALLOWANCE_S = 2.0


class ClockSource:
    """The injected time authority for lease and registry expiry math.

    Args:
        skew_allowance_s: bound on cross-host wall-clock disagreement;
            every shared-store expiry comparison is slackened by it.
    """

    def __init__(self, skew_allowance_s: float = DEFAULT_SKEW_ALLOWANCE_S):
        if skew_allowance_s < 0:
            raise FleetError(
                f"skew_allowance_s must be >= 0, got {skew_allowance_s}"
            )
        self.skew_allowance_s = skew_allowance_s

    # -- raw reads -----------------------------------------------------------

    def monotonic(self) -> float:
        """Interval clock for purely host-local deadlines."""
        return time.monotonic()

    def wall(self) -> float:
        """Wall clock for cross-host timestamps in the shared store."""
        return time.time()

    # -- skew-tolerant comparisons -------------------------------------------

    def wall_expired(self, deadline_wall: float) -> bool:
        """Whether a shared-store deadline is safely behind us.

        True only when the deadline is more than ``skew_allowance_s``
        in the past — a remote host whose clock leads ours by less than
        the allowance still sees its own lease as live, so acting any
        earlier could fence out a healthy owner.
        """
        return self.wall() > deadline_wall + self.skew_allowance_s

    def wall_stale(self, stamp_wall: float, ttl_s: float) -> bool:
        """Whether a cross-host heartbeat stamp has outlived ``ttl_s``."""
        return self.wall_expired(stamp_wall + ttl_s)


class FakeClock(ClockSource):
    """A hand-cranked clock for deterministic expiry tests.

    Both reads serve the same counter (``advance`` moves it), so a test
    can drive a lease past its deadline without sleeping, and the skew
    allowance is exercised with real numbers instead of real drift.
    """

    def __init__(self, start: float = 1000.0,
                 skew_allowance_s: float = DEFAULT_SKEW_ALLOWANCE_S):
        super().__init__(skew_allowance_s=skew_allowance_s)
        self._now = float(start)

    def monotonic(self) -> float:
        return self._now

    def wall(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise FleetError(f"cannot advance time by {seconds}")
        self._now += seconds
        return self._now


class SkewedClock(ClockSource):
    """A clock whose wall reads lead (or lag) a base source by a bias.

    The chaos drills wrap one daemon's clock in this to prove the
    documented contract: a skew within the allowance never lets a host
    reclaim a live lease, and the fencing tokens keep the store
    consistent even when the skew exceeds it.
    """

    def __init__(self, base: ClockSource, bias_s: float):
        super().__init__(skew_allowance_s=base.skew_allowance_s)
        self.base = base
        self.bias_s = bias_s

    def monotonic(self) -> float:
        return self.base.monotonic()

    def wall(self) -> float:
        return self.base.wall() + self.bias_s
