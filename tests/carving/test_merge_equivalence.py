"""Property test: the merge engine is equivalent to the naive pair scan.

On arbitrary point clouds :func:`merge_hulls` must reach the fixed point
of the reference scan in ``tests/oracles/merge_scan.py`` — the same hull
count, the same hulls in the same order, the same merge/pass counters —
and the carver must produce the carved ``flat_indices`` of the reference
pipeline (float-row front end, scan merge, per-point raster, sorted
union with the observed keys).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arraymodel.layout import flatten_many, sorted_unique
from repro.carving import Carver
from repro.carving.merge import merge_hulls
from repro.fuzzing import CarveConfig
from repro.geometry.hull import Hull
from tests.oracles import carve_front
from tests.oracles.merge_scan import merge_hulls_scan
from tests.oracles.raster_points import integer_points_in_hulls


def _random_hulls(rng, d, n_hulls, extent=120.0, spread=8.0):
    hulls = []
    for _ in range(n_hulls):
        c = rng.uniform(0, extent, size=d)
        m = int(rng.integers(1, 9))
        hulls.append(Hull.from_points(c + rng.uniform(-spread, spread, (m, d))))
    return hulls


def _assert_equivalent(hulls, config):
    scan_hulls, scan_stats = merge_hulls_scan(hulls, config)
    grid_hulls, grid_stats = merge_hulls(hulls, config)
    assert len(scan_hulls) == len(grid_hulls)
    for a, b in zip(scan_hulls, grid_hulls):
        assert a == b
    assert scan_stats.merges == grid_stats.merges
    assert scan_stats.passes == grid_stats.passes
    # The whole point of the grid and the cache: never more CLOSE calls.
    assert grid_stats.close_calls <= scan_stats.close_calls


class TestMergeEngineEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        d=st.sampled_from([2, 3]),
        n_hulls=st.integers(min_value=0, max_value=18),
        close_mode=st.sampled_from(["or", "and"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_clouds(self, seed, d, n_hulls, close_mode):
        rng = np.random.default_rng(seed)
        hulls = _random_hulls(rng, d, n_hulls)
        config = CarveConfig(close_mode=close_mode)
        _assert_equivalent(hulls, config)

    def test_single_point_hulls(self):
        pts = [(0.0, 0.0), (5.0, 0.0), (100.0, 100.0), (104.0, 100.0)]
        hulls = [Hull.from_points(np.array([p])) for p in pts]
        _assert_equivalent(hulls, CarveConfig())

    def test_collinear_cells(self):
        """Rank-deficient hulls (rows of lattice points) merge identically."""
        hulls = [
            Hull.from_points(
                np.array([[x, 3.0] for x in range(start, start + 4)])
            )
            for start in (0, 6, 12, 40)
        ]
        _assert_equivalent(hulls, CarveConfig())

    def test_tight_thresholds_no_merges(self):
        rng = np.random.default_rng(3)
        hulls = _random_hulls(rng, 2, 10, extent=500.0, spread=1.0)
        config = CarveConfig(center_d_thresh=0.0, bound_d_thresh=0.0)
        _assert_equivalent(hulls, config)

    def test_loose_thresholds_single_hull(self):
        rng = np.random.default_rng(4)
        hulls = _random_hulls(rng, 3, 8, extent=60.0)
        config = CarveConfig(center_d_thresh=1e4, bound_d_thresh=1e4)
        scan_hulls, _ = merge_hulls_scan(hulls, config)
        _assert_equivalent(hulls, config)
        assert len(scan_hulls) == 1


class TestCarverEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           d=st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_carved_flat_indices_bit_identical(self, seed, d):
        """Carver (flat-key front end + grid merge + bitmap raster) == the
        reference pipeline (float-row front end + scan merge + per-point
        raster), index for index."""
        rng = np.random.default_rng(seed)
        dims = (24,) * d
        n = int(rng.integers(1, 80))
        flat = sorted_unique(rng.integers(0, 24 ** d, size=n))
        config = CarveConfig(cell_size=8)
        hulls, _ = merge_hulls_scan(
            carve_front.cell_hulls(flat, dims, config.cell_size), config)
        raster = integer_points_in_hulls(hulls, dims, tol=config.raster_tol)
        expected = sorted_unique(
            np.concatenate((flatten_many(raster, dims), flat)))
        got = Carver(dims, config).carve_flat(flat)
        assert got.n_hulls == len(hulls)
        assert got.flat_indices.dtype == np.int64
        assert np.array_equal(got.flat_indices, expected)
