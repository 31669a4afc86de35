"""Unit tests for useful/non-useful seed clusters (ADD_TO_CLUSTER)."""

import numpy as np
import pytest

from repro.fuzzing import Cluster, ClusterSet


class TestCluster:
    def test_running_mean_center(self):
        c = Cluster(center=np.array([0.0, 0.0]))
        c.add(np.array([2.0, 0.0]))
        assert np.allclose(c.center, [1.0, 0.0])
        c.add(np.array([4.0, 3.0]))
        assert np.allclose(c.center, [2.0, 1.0])
        assert c.size == 3


class TestClusterSet:
    def test_first_value_founds_cluster(self):
        cs = ClusterSet(diameter=5.0, useful=True)
        cs.add((0.0, 0.0))
        assert len(cs) == 1

    def test_nearby_value_joins(self):
        cs = ClusterSet(diameter=5.0, useful=True)
        cs.add((0.0, 0.0))
        cs.add((3.0, 0.0))
        assert len(cs) == 1
        assert cs.clusters[0].size == 2
        assert np.allclose(cs.clusters[0].center, [1.5, 0.0])

    def test_distant_value_founds_new_cluster(self):
        """ADD_TO_CLUSTER: distance above the diameter -> new center."""
        cs = ClusterSet(diameter=5.0, useful=False)
        cs.add((0.0, 0.0))
        cs.add((10.0, 0.0))
        assert len(cs) == 2

    def test_boundary_distance_joins(self):
        cs = ClusterSet(diameter=5.0, useful=True)
        cs.add((0.0, 0.0))
        cs.add((5.0, 0.0))  # exactly the diameter: joins
        assert len(cs) == 1

    def test_nearest(self):
        cs = ClusterSet(diameter=2.0, useful=True)
        cs.add((0.0, 0.0))
        cs.add((10.0, 0.0))
        cluster, dist = cs.nearest((8.0, 0.0))
        assert np.allclose(cluster.center, [10.0, 0.0])
        assert dist == pytest.approx(2.0)

    def test_nearest_empty(self):
        assert ClusterSet(diameter=1.0, useful=True).nearest((0.0,)) is None

    def test_reset(self):
        cs = ClusterSet(diameter=1.0, useful=True)
        cs.add((0.0, 0.0))
        cs.reset()
        assert len(cs) == 0

    def test_center_drifts_toward_mass(self):
        cs = ClusterSet(diameter=10.0, useful=True)
        cs.add((0.0, 0.0))
        for _ in range(99):
            cs.add((8.0, 0.0))
        assert len(cs) == 1
        assert cs.clusters[0].center[0] == pytest.approx(7.92)


class TestDistances:
    """``ClusterSet`` reduces the squared differences of its ``(k, d)``
    centers row by row: the floats of ``np.linalg.norm(centers - v,
    axis=1)``, for every dimension and cluster count."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_equal_to_row_major_norm(self, d):
        rng = np.random.default_rng(d)
        cs = ClusterSet(diameter=1e-9, useful=True)
        for k in range(1, 300):
            cs.add(tuple(rng.uniform(-200, 200, d)))
            assert len(cs) == k
            v = rng.uniform(-200, 200, d)
            want = np.linalg.norm(cs.centers - v, axis=1)
            assert cs._distances(v).tobytes() == want.tobytes()
        loaded = ClusterSet(diameter=1e-9, useful=True)
        loaded.load(cs.centers, cs.sizes)
        for v in rng.uniform(-200, 200, (50, d)):
            assert loaded._distances(v).tobytes() \
                == cs._distances(v).tobytes()

    def test_views_keep_founding_order(self):
        cs = ClusterSet(diameter=1.0, useful=False)
        points = [(float(i), 2.0 * i, -1.0) for i in range(40)]
        for p in points:
            cs.add(p)
        cs.add((0.5, 0.0, -1.0))
        assert cs.centers.tolist() == [[0.25, 0.0, -1.0]] + \
            [list(p) for p in points[1:]]
        assert cs.sizes.tolist() == [2] + [1] * 39
        assert [c.size for c in cs.clusters] == cs.sizes.tolist()
