"""Unit + property tests for supervised execution.

Covers the verdict taxonomy (one test per verdict), the escalation
ladder, and the determinism property: a
supervised campaign with no faults injected produces the same carve
results and the same checkpoint state (modulo wall-clock fields) as an
unsupervised one.
"""

import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Kondo
from repro.errors import ResilienceConfigError, SupervisedRunError
from repro.fuzzing import FuzzConfig
from repro.resilience.config import ResilienceConfig
from repro.resilience.checkpoint import load_campaign_state
from repro.resilience.supervision import (
    RunVerdict,
    SupervisedResult,
    Supervisor,
    current_address_space_bytes,
    supervisor_from_config,
    suppress_heartbeat,
)
from repro.workloads import get_program


# -- module-level workloads (picklable for the supervised child) -------------

def _double(x):
    return 2 * x


def _raise_value_error(x):
    raise ValueError(f"boom {x}")


def _exit_7(_x):
    os._exit(7)


def _self_sigusr1(_x):
    os.kill(os.getpid(), signal.SIGUSR1)
    time.sleep(30.0)


def _sleep_forever(_x):
    while True:
        time.sleep(3600.0)


def _ignore_sigterm_and_sleep(_x):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        time.sleep(3600.0)


def _suppress_heartbeat_and_sleep(_x):
    suppress_heartbeat()
    while True:
        time.sleep(3600.0)


def _hoard_memory(_x):
    hoard = []
    while True:
        hoard.append(np.ones(1 << 21, dtype=np.float64))  # 16 MiB/step


class TestVerdictTaxonomy:
    def test_ok_returns_the_child_value(self):
        sup = Supervisor(timeout_s=10.0)
        result = sup.run(_double, 21)
        assert result.verdict is RunVerdict.OK and result.ok
        assert result.value == 42
        assert result.exit_code == 0 and result.signal is None

    def test_numpy_values_round_trip(self):
        sup = Supervisor(timeout_s=10.0)
        result = sup.run(np.arange, 5)
        assert np.array_equal(result.value, np.arange(5))

    def test_child_exception_comes_back_verbatim(self):
        sup = Supervisor(timeout_s=10.0)
        result = sup.run(_raise_value_error, 3)
        assert result.verdict is RunVerdict.NONZERO and not result.ok
        assert isinstance(result.error, ValueError)
        assert str(result.error) == "boom 3"

    def test_wall_clock_hang_is_timeout(self):
        sup = Supervisor(timeout_s=0.3)
        start = time.monotonic()
        result = sup.run(_sleep_forever, None)
        assert result.verdict is RunVerdict.TIMEOUT
        assert time.monotonic() - start < 5.0
        assert "wall-clock" in result.detail

    def test_sigterm_immune_child_is_sigkilled(self):
        sup = Supervisor(timeout_s=0.3, grace_s=0.2)
        result = sup.run(_ignore_sigterm_and_sleep, None)
        assert result.verdict is RunVerdict.TIMEOUT
        assert result.signal == signal.SIGKILL

    def test_lost_heartbeat_beats_the_wall_clock(self):
        sup = Supervisor(timeout_s=30.0, heartbeat_interval_s=0.05)
        start = time.monotonic()
        result = sup.run(_suppress_heartbeat_and_sleep, None)
        assert result.verdict is RunVerdict.LOST_HEARTBEAT
        assert time.monotonic() - start < 10.0
        assert result.verdict.value == "LOST-HEARTBEAT"

    def test_memory_hog_is_oom(self):
        sup = Supervisor(timeout_s=30.0, memory_mb=128)
        result = sup.run(_hoard_memory, None)
        assert result.verdict is RunVerdict.OOM
        assert "memory" in result.detail

    def test_silent_exit_is_nonzero_with_the_code(self):
        sup = Supervisor(timeout_s=10.0)
        result = sup.run(_exit_7, None)
        assert result.verdict is RunVerdict.NONZERO
        assert result.exit_code == 7

    def test_stray_signal_is_signaled(self):
        sup = Supervisor(timeout_s=10.0)
        result = sup.run(_self_sigusr1, None)
        assert result.verdict is RunVerdict.SIGNALED
        assert result.signal == signal.SIGUSR1


class TestSupervisorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0}, {"timeout_s": -1.0}, {"memory_mb": 0},
        {"heartbeat_interval_s": -0.1}, {"grace_s": -1.0},
    ])
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ResilienceConfigError):
            Supervisor(**kwargs)

    def test_supervisor_from_config_defaults_off(self):
        assert supervisor_from_config(None) is None
        assert supervisor_from_config(ResilienceConfig()) is None
        config = ResilienceConfig(checkpoint_path="x.npz", quarantine=True)
        assert not config.supervised
        assert supervisor_from_config(config) is None

    def test_supervisor_from_config_builds_from_knobs(self):
        config = ResilienceConfig(run_timeout_s=2.0, run_memory_mb=64,
                                  heartbeat_interval_s=0.5)
        assert config.supervised
        sup = supervisor_from_config(config)
        assert sup == Supervisor(timeout_s=2.0, memory_mb=64,
                                 heartbeat_interval_s=0.5)

    @pytest.mark.parametrize("kwargs", [
        {"run_timeout_s": 0}, {"run_memory_mb": -1},
        {"heartbeat_interval_s": 0},
    ])
    def test_resilience_config_validates_run_knobs(self, kwargs):
        with pytest.raises(ResilienceConfigError):
            ResilienceConfig(**kwargs)

    def test_current_address_space_is_readable_here(self):
        # The AS-headroom policy depends on this; on Linux CI it must
        # resolve to a real, large number.
        vm = current_address_space_bytes()
        assert vm is None or vm > (1 << 20)


class TestSupervisedCall:
    def test_ok_and_error_semantics_match_unsupervised(self):
        call = Supervisor(timeout_s=10.0).bind(_double)
        assert call(4) == 8
        with pytest.raises(ValueError, match="boom 5"):
            Supervisor(timeout_s=10.0).bind(_raise_value_error)(5)

    def test_verdict_kill_raises_supervised_run_error(self):
        call = Supervisor(timeout_s=0.3).bind(_sleep_forever)
        with pytest.raises(SupervisedRunError) as err:
            call(None)
        assert err.value.verdict == "TIMEOUT"
        # The message is persisted into checkpoints: no timings or PIDs.
        assert "0.3" in str(err.value)

    def test_counters(self):
        call = Supervisor(timeout_s=0.3).bind(_double)
        call(1)
        call(2)
        assert (call.runs, call.non_ok) == (2, 0)

    def test_bound_call_and_error_are_picklable(self):
        call = Supervisor(timeout_s=10.0).bind(_double)
        clone = pickle.loads(pickle.dumps(call))
        assert clone(10) == 20
        err = SupervisedRunError("msg", verdict="OOM", exit_code=None,
                                 signal=9)
        back = pickle.loads(pickle.dumps(err))
        assert (str(back), back.verdict, back.signal) == ("msg", "OOM", 9)

    def test_supervised_result_dataclass(self):
        r = SupervisedResult(verdict=RunVerdict.OK, value=1, elapsed_s=0.0)
        assert r.ok
        assert not SupervisedResult(
            verdict=RunVerdict.OOM, elapsed_s=0.0
        ).ok


def _campaign(tmp_path, label, resilience):
    kondo = Kondo(
        get_program("CS"), (32, 32),
        fuzz_config=FuzzConfig(rng_seed=0, max_iter=60),
        resilience=resilience,
    )
    return kondo.analyze(), str(tmp_path / label)


class TestSupervisedDeterminism:
    """The acceptance property: supervision off vs on (no faults) gives
    identical campaign output and identical checkpoint state, except the
    wall-clock fields that are never replay-relevant."""

    WALL_CLOCK_META = ("elapsed_s",)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_supervised_campaign_is_byte_identical(self, tmp_path_factory,
                                                   seed):
        tmp_path = tmp_path_factory.mktemp("sup")
        plain_ckpt = str(tmp_path / "plain.npz")
        sup_ckpt = str(tmp_path / "sup.npz")
        fuzz = FuzzConfig(rng_seed=seed, max_iter=60)
        program = get_program("CS")
        plain = Kondo(
            program, (32, 32), fuzz_config=fuzz,
            resilience=ResilienceConfig(checkpoint_path=plain_ckpt,
                                        checkpoint_every=25),
        ).analyze()
        supervised = Kondo(
            program, (32, 32), fuzz_config=fuzz,
            resilience=ResilienceConfig(checkpoint_path=sup_ckpt,
                                        checkpoint_every=25,
                                        run_timeout_s=30.0,
                                        run_memory_mb=512,
                                        heartbeat_interval_s=0.2),
        ).analyze()
        assert np.array_equal(plain.observed_flat, supervised.observed_flat)
        assert np.array_equal(plain.carved_flat, supervised.carved_flat)
        assert [s.v for s in plain.fuzz.seeds] \
            == [s.v for s in supervised.fuzz.seeds]
        a = load_campaign_state(plain_ckpt)
        b = load_campaign_state(sup_ckpt)
        assert set(a) == set(b)
        for key in a:
            if key in self.WALL_CLOCK_META:
                continue
            if key == "trace":
                # Column 1 is wall-clock elapsed; 0 and 2 are replay state.
                assert np.array_equal(a[key][:, [0, 2]], b[key][:, [0, 2]])
            elif isinstance(a[key], np.ndarray):
                assert np.array_equal(a[key], b[key]), key
            else:
                assert a[key] == b[key], key
