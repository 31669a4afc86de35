"""Substrate micro-benchmarks.

Genuine pytest-benchmark measurements of the data-structure hot paths the
pipeline leans on: interval indexing (the paper's interval B-tree, kept
as the audit test oracle in ``tests/oracles/``), hull carving,
rasterization, fuzz-schedule iteration throughput, and (audited) file
reads.  Run from the repository root with ``python -m pytest`` so the
``tests`` package is importable.
"""

import numpy as np
import pytest

from repro.arraymodel import ArrayFile, ArraySchema
from repro.audit import AuditSession
from repro.carving import Carver
from repro.core import DebloatTest
from repro.fuzzing import CarveConfig, FuzzConfig, run_fuzz_schedule
from repro.geometry import Hull, flat_indices_in_hulls
from repro.workloads import get_program
from tests.oracles.interval_btree import IntervalBTree


@pytest.fixture(scope="module")
def interval_data():
    rng = np.random.default_rng(0)
    starts = rng.integers(0, 1_000_000, 20_000)
    sizes = rng.integers(1, 512, 20_000)
    return list(zip(starts.tolist(), (starts + sizes).tolist()))


def test_btree_insert_20k(benchmark, interval_data):
    def build():
        tree = IntervalBTree(t=16)
        for s, e in interval_data:
            tree.insert(s, e)
        return tree

    tree = benchmark(build)
    assert len(tree) == 20_000


def test_btree_overlap_queries(benchmark, interval_data):
    tree = IntervalBTree(t=16)
    for s, e in interval_data:
        tree.insert(s, e)
    probes = np.random.default_rng(1).integers(0, 1_000_000, 200)

    def query():
        total = 0
        for p in probes:
            total += len(tree.overlapping(int(p), int(p) + 256))
        return total

    total = benchmark(query)
    assert total > 0


def test_btree_merged_coverage(benchmark, interval_data):
    tree = IntervalBTree(t=16)
    for s, e in interval_data:
        tree.insert(s, e)
    merged = benchmark(tree.merged)
    assert merged == sorted(merged)


def test_carver_50k_points(benchmark):
    rng = np.random.default_rng(2)
    # Two dense blobs plus scatter, ~50k points in a 512^2 space.
    a = rng.integers(0, 160, size=(30_000, 2))
    b = rng.integers(300, 480, size=(20_000, 2))
    points = np.vstack([a, b]).astype(float)
    carver = Carver((512, 512), CarveConfig(cell_size=64,
                                            center_d_thresh=80,
                                            bound_d_thresh=40))
    result = benchmark.pedantic(carver.carve_points, args=(points,),
                                rounds=3, iterations=1)
    assert result.n_hulls >= 1
    assert result.n_indices >= 40_000


def test_hull_raster_512(benchmark):
    hull = Hull.from_points(
        [[0, 0], [511, 30], [480, 500], [20, 460], [250, 255]]
    )
    flat = benchmark(flat_indices_in_hulls, [hull], (512, 512))
    assert flat.size > 100_000


def test_fuzz_schedule_throughput(benchmark):
    program = get_program("CS")
    dims = (128, 128)
    space = program.parameter_space(dims)

    def campaign():
        test = DebloatTest(program, dims)
        return run_fuzz_schedule(
            test, space,
            FuzzConfig(max_iter=500, stop_iter=500, rng_seed=0),
            test.n_flat,
        )

    result = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert result.iterations == 500


def test_knd_point_reads(benchmark, tmp_path):
    dims = (256, 256)
    path = str(tmp_path / "perf.knd")
    ArrayFile.create(path, ArraySchema(dims, "f8"),
                     np.zeros(dims)).close()
    f = ArrayFile.open(path)
    idx = np.random.default_rng(3).integers(0, 256, size=(2000, 2))

    def reads():
        for i, j in idx:
            f.read_point((int(i), int(j)))

    benchmark(reads)
    f.close()


def test_audited_knd_point_reads(benchmark, tmp_path):
    dims = (256, 256)
    path = str(tmp_path / "perf_a.knd")
    ArrayFile.create(path, ArraySchema(dims, "f8"),
                     np.zeros(dims)).close()
    session = AuditSession()
    f = ArrayFile.open(path, recorder=session.record)
    idx = np.random.default_rng(3).integers(0, 256, size=(2000, 2))

    def reads():
        for i, j in idx:
            f.read_point((int(i), int(j)))

    benchmark(reads)
    assert session.n_events >= 2000
    f.close()
