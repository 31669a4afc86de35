"""The self-healing runtime: retried fetch, breaker fallback, re-carving."""

import numpy as np
import pytest

from repro.arraymodel import ArrayFile, ArraySchema, DebloatedArrayFile
from repro.errors import DataMissingError, FetchError
from repro.resilience.config import ResilienceConfig
from repro.resilience.healing import ResilientRuntime, SubsetPatch
from tests.chaos.faults import FlakyCallable

DIMS = (8, 8)
KEPT = [0, 1, 2, 9, 10, 11]  # flat indices shipped in the subset
MISSING = [(3, 3), (4, 4), (5, 5)]  # guaranteed Null accesses


@pytest.fixture
def source(tmp_path):
    data = np.arange(64, dtype="f8").reshape(DIMS)
    f = ArrayFile.create(str(tmp_path / "full.knd"),
                         ArraySchema(DIMS, "f8"), data)
    yield f
    f.close()


@pytest.fixture
def subset(tmp_path, source):
    f = DebloatedArrayFile.create(
        str(tmp_path / "part.knds"), source,
        keep_flat_indices=np.asarray(KEPT, dtype=np.int64),
    )
    yield f
    f.close()


def _value(index):
    return float(index[0] * DIMS[1] + index[1])


class TestMissPath:
    def test_hit_never_touches_the_fetcher(self, subset):
        calls = []
        runtime = ResilientRuntime(subset, remote_fetcher=calls.append)
        assert runtime.read((0, 1)) == 1.0
        assert calls == []
        assert runtime.stats.hits == 1

    def test_miss_without_fetcher_or_fallback_raises(self, subset):
        runtime = ResilientRuntime(subset)
        with pytest.raises(DataMissingError):
            runtime.read(MISSING[0])

    def test_flaky_fetcher_healed_by_retries(self, subset, source):
        fetcher = FlakyCallable(source.read_point, fail_rate=0.5, seed=1)
        runtime = ResilientRuntime(
            subset, remote_fetcher=fetcher,
            config=ResilienceConfig(fetch_retries=8, fetch_backoff_s=0.0),
            sleep=lambda _s: None,
        )
        for index in MISSING * 10:
            assert runtime.read(index) == _value(index)
        assert fetcher.failures > 0
        assert runtime.stats.remote_fetches == 30
        assert runtime.stats.fallback_reads == 0

    def test_exhausted_fetch_without_fallback_raises_fetch_error(self,
                                                                 subset):
        def dead(_index):
            raise FetchError("server gone")

        runtime = ResilientRuntime(
            subset, remote_fetcher=dead,
            config=ResilienceConfig(fetch_retries=2, fetch_backoff_s=0.0),
            sleep=lambda _s: None,
        )
        with pytest.raises(FetchError):
            runtime.read(MISSING[0])
        assert runtime.stats.fetch_failures == 1

    def test_failed_fetch_falls_back_to_local_source(self, subset, source):
        def dead(_index):
            raise FetchError("server gone")

        runtime = ResilientRuntime(
            subset, remote_fetcher=dead, fallback_source=source,
            config=ResilienceConfig(fetch_retries=1, fetch_backoff_s=0.0),
            sleep=lambda _s: None,
        )
        index = MISSING[0]
        assert runtime.read(index) == _value(index)
        assert runtime.stats.fallback_reads == 1

    def test_open_breaker_skips_fetcher_entirely(self, subset, source):
        calls = []

        def dead(_index):
            calls.append(1)
            raise FetchError("server gone")

        runtime = ResilientRuntime(
            subset, remote_fetcher=dead, fallback_source=source,
            config=ResilienceConfig(fetch_retries=0, breaker_threshold=2,
                                    breaker_reset_s=3600.0),
            sleep=lambda _s: None,
        )
        for index in MISSING:
            assert runtime.read(index) == _value(index)
        # Two failures trip the breaker; the third miss never calls out.
        assert len(calls) == 2
        assert runtime.stats.breaker_rejections == 1
        assert runtime.stats.fallback_reads == 3

    def test_fallback_only_configuration(self, subset, source):
        runtime = ResilientRuntime(subset, fallback_source=source)
        assert runtime.read(MISSING[1]) == _value(MISSING[1])
        assert runtime.stats.fallback_reads == 1


class TestHealing:
    def test_patch_collects_unique_missed_offsets(self, subset, source):
        runtime = ResilientRuntime(subset, fallback_source=source)
        for index in MISSING + MISSING:  # repeated misses dedup
            runtime.read(index)
        patch = runtime.build_patch()
        assert patch.n_missed == 6
        offs = patch.flat_offsets(source.layout)
        assert offs.size == 3
        assert patch.extents(source.layout, 8) == [
            (int(o), 8) for o in offs
        ]

    def test_heal_recarves_misses_into_subset(self, tmp_path, subset,
                                              source):
        runtime = ResilientRuntime(subset, fallback_source=source)
        for index in MISSING:
            runtime.read(index)
        healed_path = str(tmp_path / "healed.knds")
        healed = runtime.heal(healed_path, source)
        try:
            rerun = ResilientRuntime(healed)
            for index in MISSING:
                assert rerun.read(index) == _value(index)
            for kept_flat in KEPT:
                index = divmod(kept_flat, DIMS[1])
                assert rerun.read(index) == float(kept_flat)
            assert rerun.stats.misses == 0
        finally:
            healed.close()

    def test_empty_patch(self, source):
        patch = SubsetPatch()
        assert patch.n_missed == 0
        assert patch.flat_offsets(source.layout).size == 0
        assert patch.extents(source.layout, 8) == []
