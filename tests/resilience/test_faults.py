"""The fault injectors themselves: deterministic, composable, bounded."""

import os

import pytest

from repro.errors import FetchError, InjectedFault, ResilienceConfigError
from tests.chaos.faults import (
    ChaosMonkey,
    CrashAt,
    FlakyCallable,
    HangForever,
    MemoryHog,
    _ForkSafeCounter,
    corrupt_file,
    torn_append,
    torn_write,
)


@pytest.fixture
def artifact(tmp_path):
    path = str(tmp_path / "artifact.bin")
    with open(path, "wb") as fh:
        fh.write(bytes(range(256)))
    return path


class TestCorruptFile:
    def test_flip_inverts_bytes(self, artifact):
        offset = corrupt_file(artifact, mode="flip", offset=10, length=3)
        assert offset == 10
        with open(artifact, "rb") as fh:
            data = fh.read()
        assert data[10:13] == bytes(b ^ 0xFF for b in bytes(range(256))[10:13])
        assert data[:10] == bytes(range(10))

    def test_zero_clears_bytes(self, artifact):
        corrupt_file(artifact, mode="zero", offset=5, length=4)
        with open(artifact, "rb") as fh:
            assert fh.read()[5:9] == b"\x00" * 4

    def test_truncate_cuts_file(self, artifact):
        corrupt_file(artifact, mode="truncate", offset=100)
        assert os.path.getsize(artifact) == 100

    def test_truncate_to_zero_rejected(self, artifact):
        """offset=0 would delete the file, not damage it — that is a
        different fault (and a different drill)."""
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="truncate", offset=0)

    def test_truncate_beyond_size_rejected(self, artifact):
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="truncate", offset=256)
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="truncate", offset=300)

    def test_bitrot_flips_n_distinct_sites(self, artifact):
        corrupt_file(artifact, mode="bitrot", seed=3, sites=4)
        with open(artifact, "rb") as fh:
            data = fh.read()
        pristine = bytes(range(256))
        flipped = [i for i in range(256) if data[i] != pristine[i]]
        assert len(flipped) == 4
        assert all(data[i] == pristine[i] ^ 0xFF for i in flipped)

    def test_bitrot_is_seeded(self, tmp_path):
        damaged = []
        for i in range(2):
            p = str(tmp_path / f"rot{i}.bin")
            with open(p, "wb") as fh:
                fh.write(bytes(range(256)))
            corrupt_file(p, mode="bitrot", seed=11, sites=3)
            with open(p, "rb") as fh:
                damaged.append(fh.read())
        assert damaged[0] == damaged[1]

    def test_bitrot_site_bounds_enforced(self, artifact):
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="bitrot", sites=0)
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="bitrot", sites=257)

    def test_random_offset_is_seeded(self, tmp_path):
        paths = []
        for i in range(2):
            p = str(tmp_path / f"a{i}.bin")
            with open(p, "wb") as fh:
                fh.write(bytes(256))
            paths.append(p)
        assert (corrupt_file(paths[0], seed=7)
                == corrupt_file(paths[1], seed=7))

    def test_unknown_mode_rejected(self, artifact):
        with pytest.raises(ResilienceConfigError):
            corrupt_file(artifact, mode="shred")

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.bin")
        open(path, "wb").close()
        with pytest.raises(ResilienceConfigError):
            corrupt_file(path)


class TestTornWrites:
    def test_torn_write_keeps_exact_prefix(self, artifact):
        torn_write(artifact, b"NEWCONTENT", keep_bytes=3)
        with open(artifact, "rb") as fh:
            assert fh.read() == b"NEW"  # old content fully clobbered

    def test_torn_write_zero_bytes_empties_file(self, artifact):
        torn_write(artifact, b"NEW", keep_bytes=0)
        assert os.path.getsize(artifact) == 0

    def test_torn_append_keeps_existing_content(self, artifact):
        torn_append(artifact, b"TAIL", keep_bytes=2)
        with open(artifact, "rb") as fh:
            data = fh.read()
        assert data == bytes(range(256)) + b"TA"

    def test_keep_bytes_bounds_enforced(self, artifact):
        for fn in (torn_write, torn_append):
            with pytest.raises(ResilienceConfigError):
                fn(artifact, b"abc", keep_bytes=-1)
            with pytest.raises(ResilienceConfigError):
                fn(artifact, b"abc", keep_bytes=4)


class TestFlakyCallable:
    def test_failure_schedule_is_seeded(self):
        a = FlakyCallable(lambda: 1, fail_rate=0.5, seed=3)
        b = FlakyCallable(lambda: 1, fail_rate=0.5, seed=3)

        def outcomes(f):
            out = []
            for _ in range(50):
                try:
                    f()
                    out.append(True)
                except FetchError:
                    out.append(False)
            return out

        assert outcomes(a) == outcomes(b)

    def test_rate_zero_never_fails(self):
        flaky = FlakyCallable(lambda x: x * 2, fail_rate=0.0)
        assert [flaky(i) for i in range(20)] == [i * 2 for i in range(20)]
        assert flaky.failures == 0

    def test_rate_one_always_fails(self):
        flaky = FlakyCallable(lambda: 1, fail_rate=1.0)
        for _ in range(5):
            with pytest.raises(FetchError):
                flaky()
        assert flaky.failures == flaky.calls == 5

    def test_invalid_rate_rejected(self):
        with pytest.raises(ResilienceConfigError):
            FlakyCallable(lambda: 1, fail_rate=1.5)


class TestCrashAt:
    def test_crashes_on_exact_call(self):
        wrapped = CrashAt(lambda x: x, crash_on_call=3)
        assert wrapped(1) == 1
        assert wrapped(2) == 2
        with pytest.raises(InjectedFault, match="call 3"):
            wrapped(3)
        # Only the chosen call crashes; the wrapper passes through after.
        assert wrapped(4) == 4

    def test_requires_positive_call_number(self):
        with pytest.raises(ResilienceConfigError):
            CrashAt(lambda: 1, crash_on_call=0)


class TestForkSafeCounter:
    def test_count_survives_a_fork(self, tmp_path):
        counter = _ForkSafeCounter(str(tmp_path / "calls.cnt"))
        assert counter.increment() == 1
        pid = os.fork()
        if pid == 0:  # child: count in a separate process, then die
            counter.increment()
            os._exit(0)
        os.waitpid(pid, 0)
        # The child's increment is visible here, and the next one is 3.
        assert counter.increment() == 3

    def test_two_handles_share_the_same_file(self, tmp_path):
        path = str(tmp_path / "shared.cnt")
        a, b = _ForkSafeCounter(path), _ForkSafeCounter(path)
        assert a.increment() == 1
        assert b.increment() == 2


class TestHangAndHogInjectors:
    """Only the validation + pass-through behaviour is testable in
    process: the actual hang/hog behaviour is exercised supervised in
    the chaos drills (tests/resilience/test_chaos_e2e.py)."""

    def test_hang_passes_through_before_the_trigger(self):
        wrapped = HangForever(lambda x: x + 1, hang_on_call=10)
        assert [wrapped(i) for i in range(3)] == [1, 2, 3]

    def test_hog_passes_through_before_the_trigger(self):
        wrapped = MemoryHog(lambda x: x * 2, hog_on_call=10)
        assert [wrapped(i) for i in range(3)] == [0, 2, 4]

    def test_validation(self):
        for make in (
            lambda: HangForever(lambda: 1, hang_on_call=0),
            lambda: MemoryHog(lambda: 1, hog_on_call=0),
            lambda: MemoryHog(lambda: 1, hog_on_call=5, grow_mb=0),
            lambda: MemoryHog(lambda: 1, hog_on_call=5, steps=0),
        ):
            with pytest.raises(ResilienceConfigError):
                make()

    def test_hog_raises_memory_error_unsupervised(self, tmp_path):
        """Without a supervisor the hog's budget exhausts in-process: a
        tiny grow_mb keeps this safe to run un-contained."""
        wrapped = MemoryHog(lambda x: x, hog_on_call=1, grow_mb=8, steps=2)
        with pytest.raises(MemoryError, match="uncontained"):
            wrapped(0)

    def test_crash_at_accepts_a_counter_file(self, tmp_path):
        wrapped = CrashAt(lambda x: x, crash_on_call=2,
                          counter_path=str(tmp_path / "c.cnt"))
        assert wrapped(1) == 1
        with pytest.raises(InjectedFault, match="call 2"):
            wrapped(2)
        assert wrapped.calls == 2


class TestChaosMonkey:
    def test_wrap_test_composes_injectors(self):
        monkey = ChaosMonkey(hang_on_call=3, crash_on_call=5)
        wrapped = monkey.wrap_test(lambda x: x)
        assert isinstance(wrapped, CrashAt)
        assert isinstance(wrapped.fn, HangForever)

    def test_wrap_test_chains_hang_and_hog(self):
        monkey = ChaosMonkey(crash_on_call=5, hang_on_call=3, hog_on_call=4)
        wrapped = monkey.wrap_test(lambda x: x)
        assert isinstance(wrapped, CrashAt)
        assert isinstance(wrapped.fn, MemoryHog)
        assert isinstance(wrapped.fn.fn, HangForever)

    def test_wrap_fetcher_noop_without_fail_rate(self):
        fetch = lambda idx: 0.0  # noqa: E731
        assert ChaosMonkey().wrap_fetcher(fetch) is fetch
        assert isinstance(
            ChaosMonkey(fetch_fail_rate=0.5).wrap_fetcher(fetch),
            FlakyCallable,
        )
