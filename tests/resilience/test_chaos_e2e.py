"""End-to-end chaos acceptance drills (``pytest -m chaos``).

These run whole fuzz+carve campaigns under injected faults and assert
that with a flaky fetcher, a mid-campaign crash + resume, hung and leaky
runs and killed service workers, the pipeline completes and its carved
indices are identical to the fault-free run on the same seed.
"""

import os

import pytest

from repro.cli import main
from repro.errors import InjectedFault
from repro.resilience.chaos import DRILL_NAMES, run_chaos

pytestmark = pytest.mark.chaos


class TestChaosDrills:
    def test_pipeline_survives_all_injected_faults(self, tmp_path):
        report = run_chaos(
            "CS", dims=(32, 32), seed=0, max_iter=300,
            fetch_fail_rate=0.5, crash_at=120,
            workdir=str(tmp_path),
        )
        failures = [c for c in report.checks if not c.passed]
        assert not failures, report.format()
        assert {c.name for c in report.checks} == {
            "crash-resume", "flaky-fetch", "heal",
            "corrupt-artifact", "corrupt-span-degrades",
            "torn-patch-recovers", "hung-run-times-out",
            "leaky-run-contained", "worker-killed-mid-job-requeues",
            "serve-crash-recovers-queue",
            "shard-worker-killed-requeues-only-lost-shards",
            "straggler-hedge-first-completion-wins",
            "fleet-partition-heals", "stale-worker-fenced-out",
        }
        # The registry (and `kondo chaos --list`) must match what ran.
        assert [c.name for c in report.checks] == list(DRILL_NAMES)

    def test_different_seed_still_survives(self, tmp_path):
        report = run_chaos(
            "CS", dims=(32, 32), seed=7, max_iter=250, crash_at=90,
            workdir=str(tmp_path),
        )
        assert report.passed, report.format()


class TestSupervisedCampaignDrills:
    """Supervised-execution failure drills: timeout, OOM containment,
    and heartbeat loss, each quarantined with the right verdict while
    the campaign completes."""

    def _campaign(self, tmp_path, resilience, wrapper):
        from repro.core.pipeline import Kondo
        from repro.fuzzing import FuzzConfig
        from repro.resilience.chaos import _wrap_test
        from repro.workloads import get_program

        kondo = Kondo(
            get_program("CS"), (32, 32),
            fuzz_config=FuzzConfig(rng_seed=0, max_iter=80),
            resilience=resilience,
        )
        test = _wrap_test(kondo, wrapper, str(tmp_path / "fault.cnt"))
        return kondo.analyze(test=test)

    def test_hung_run_is_quarantined_as_timeout(self, tmp_path):
        from repro.resilience.config import ResilienceConfig
        from repro.resilience.faults import HangForever

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
        from repro.resilience.faults import MemoryHog

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
        from repro.resilience.faults import HangForever

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


class TestChaosCli:
    def test_kondo_chaos_exits_zero_on_survival(self, capsys):
        rc = main(["chaos", "CS", "--dims", "32x32", "--max-iter", "250",
                   "--crash-at", "90"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "survived all injected faults" in out

    def test_kondo_chaos_list_names_every_drill(self, capsys):
        rc = main(["chaos", "--list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.split() == list(DRILL_NAMES)

    def test_kondo_chaos_without_program_or_list_errs(self, capsys):
        rc = main(["chaos"])
        assert rc == 2
        assert "program" in capsys.readouterr().err

    def test_analyze_checkpoint_resume_flags(self, tmp_path, capsys):
        ckpt = str(tmp_path / "c.npz")
        assert main(["analyze", "CS", "--dims", "32x32",
                     "--checkpoint", ckpt, "--checkpoint-every", "50"]) == 0
        first = capsys.readouterr().out.strip().splitlines()[0]
        assert os.path.exists(ckpt)
        assert main(["analyze", "CS", "--dims", "32x32",
                     "--checkpoint", ckpt, "--resume"]) == 0
        resumed = capsys.readouterr().out.strip().splitlines()[0]
        # Same campaign facts either way (timing text differs).
        assert first.split(" in ")[0] == resumed.split(" in ")[0]

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["analyze", "CS", "--dims", "32x32", "--resume"]) == 1
        assert "--checkpoint" in capsys.readouterr().err


class TestInjectedFaultSemantics:
    def test_injected_fault_is_not_quarantined(self):
        """InjectedFault models a process crash: even with quarantine on,
        it must abort the campaign (checkpoint+resume is the recovery)."""
        from repro.core.pipeline import Kondo
        from repro.fuzzing import FuzzConfig
        from repro.resilience.chaos import _wrap_test
        from repro.resilience.config import ResilienceConfig
        from repro.resilience.faults import CrashAt
        from repro.workloads import get_program

        kondo = Kondo(
            get_program("CS"), (32, 32),
            fuzz_config=FuzzConfig(rng_seed=0, max_iter=100),
            resilience=ResilienceConfig(quarantine=True),
        )
        test = _wrap_test(kondo, CrashAt, 10)
        with pytest.raises(InjectedFault):
            kondo.analyze(test=test)
