"""Supervised-campaign fault semantics (``pytest -m chaos``).

Whole fuzz+carve campaigns under one injected debloat-test fault each:
hung, leaky and heartbeat-silent runs must be quarantined with the right
verdict while the campaign completes, and an injected crash must abort
the campaign rather than be quarantined.  The fourteen end-to-end drills
are in ``tests/chaos/test_drills.py``.
"""

import pytest

from repro.errors import InjectedFault
from tests.chaos.faults import CrashAt, HangForever, MemoryHog, wrap_test

pytestmark = pytest.mark.chaos


class TestSupervisedCampaignDrills:
    """Supervised-execution failure drills: timeout, OOM containment,
    and heartbeat loss, each quarantined with the right verdict while
    the campaign completes."""

    def _campaign(self, tmp_path, resilience, wrapper):
        from repro.core.pipeline import Kondo
        from repro.fuzzing import FuzzConfig
        from repro.workloads import get_program

        kondo = Kondo(
            get_program("CS"), (32, 32),
            fuzz_config=FuzzConfig(rng_seed=0, max_iter=80),
            resilience=resilience,
        )
        test = wrap_test(kondo, wrapper, str(tmp_path / "fault.cnt"))
        return kondo.analyze(test=test)

    def test_hung_run_is_quarantined_as_timeout(self, tmp_path):
        from repro.resilience.config import ResilienceConfig

        result = self._campaign(
            tmp_path,
            ResilienceConfig(run_timeout_s=0.5, quarantine=True),
            lambda test, cnt: HangForever(test, 20, counter_path=cnt),
        )
        assert [(q.iteration, q.verdict) for q in result.fuzz.quarantined] \
            == [(20, "TIMEOUT")]
        assert result.fuzz.iterations == 80

    def test_leaky_run_is_quarantined_as_oom(self, tmp_path):
        from repro.resilience.config import ResilienceConfig

        result = self._campaign(
            tmp_path,
            ResilienceConfig(run_timeout_s=10.0, run_memory_mb=128,
                             quarantine=True),
            lambda test, cnt: MemoryHog(test, 20, grow_mb=512,
                                        counter_path=cnt),
        )
        assert [(q.iteration, q.verdict) for q in result.fuzz.quarantined] \
            == [(20, "OOM")]

    def test_silent_run_is_quarantined_as_lost_heartbeat(self, tmp_path):
        from repro.resilience.config import ResilienceConfig

        # A generous wall budget with a tight heartbeat: the suppressed
        # heartbeat must kill the run long before the wall clock would.
        result = self._campaign(
            tmp_path,
            ResilienceConfig(run_timeout_s=30.0, heartbeat_interval_s=0.05,
                             quarantine=True),
            lambda test, cnt: HangForever(test, 20, drop_heartbeat=True,
                                          counter_path=cnt),
        )
        assert [(q.iteration, q.verdict) for q in result.fuzz.quarantined] \
            == [(20, "LOST-HEARTBEAT")]
        assert result.elapsed_seconds < 30.0


class TestInjectedFaultSemantics:
    def test_injected_fault_is_not_quarantined(self):
        """InjectedFault models a process crash: even with quarantine on,
        it must abort the campaign (checkpoint+resume is the recovery)."""
        from repro.core.pipeline import Kondo
        from repro.fuzzing import FuzzConfig
        from repro.resilience.config import ResilienceConfig
        from repro.workloads import get_program

        kondo = Kondo(
            get_program("CS"), (32, 32),
            fuzz_config=FuzzConfig(rng_seed=0, max_iter=100),
            resilience=ResilienceConfig(quarantine=True),
        )
        test = wrap_test(kondo, CrashAt, 10)
        with pytest.raises(InjectedFault):
            kondo.analyze(test=test)
