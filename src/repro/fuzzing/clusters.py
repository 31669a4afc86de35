"""Seed clusters for the boundary-based exploit-and-explore schedule.

Section IV-A2: "the algorithm constructs two types of clusters, one of
useful parameter values and other of non-useful values ... the
ADD_TO_CLUSTER routine computes the minimum euclidean distance of a given
parameter value with existing cluster centres of the same type.  If
distance exceeds the configured cluster diameter, the value becomes a new
cluster centre, else value is added to the nearest cluster."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError


@dataclass
class Cluster:
    """A spatial cluster of same-type parameter values.

    The center is the running mean of its members, so it drifts as values
    are added — clusters track where useful/non-useful mass accumulates.
    """

    center: np.ndarray
    size: int = 1
    useful: bool = True

    def add(self, v: np.ndarray) -> None:
        """Fold one value into the running-mean center."""
        self.size += 1
        self.center = self.center + (v - self.center) / self.size


class ClusterSet:
    """All clusters of one type (useful or non-useful), with fast lookup.

    ``centers`` is one ``(k, d)`` array and ``sizes`` one ``(k,)`` array,
    in founding order, so ``add`` and ``nearest`` compute every distance
    in one pass.  ``add`` updates the joined center in place with
    :meth:`Cluster.add`'s float operations.
    """

    def __init__(self, diameter: float, useful: bool):
        self.diameter = diameter
        self.useful = useful
        self.reset()

    def __len__(self) -> int:
        return self.sizes.size

    @property
    def clusters(self) -> List[Cluster]:
        """Snapshot of every cluster as a :class:`Cluster`."""
        return [self._cluster(i) for i in range(len(self))]

    def _cluster(self, i: int) -> Cluster:
        return Cluster(center=self.centers[i].copy(),
                       size=int(self.sizes[i]), useful=self.useful)

    def _distances(self, v: np.ndarray) -> np.ndarray:
        """Euclidean distance from every center to ``v``.

        ``sqrt(add.reduce(diff * diff, axis=1))`` is the body of
        ``np.linalg.norm(self.centers - v, axis=1)`` without its dispatch,
        so the floats are norm's.  The argmin is taken over the square
        roots, not the squares, since ``sqrt`` can map two distinct
        squares to one root and so change which tie wins.
        """
        diff = self.centers - v
        return np.sqrt(np.add.reduce(diff * diff, axis=1))

    def add(self, v: Sequence[float]) -> None:
        """ADD_TO_CLUSTER: join the nearest cluster or found a new one."""
        v = np.asarray(v, dtype=np.float64)
        if len(self):
            dists = self._distances(v)
            i = int(dists.argmin())
            if dists[i] <= self.diameter:
                self.sizes[i] += 1
                center = self.centers[i]
                center += (v - center) / int(self.sizes[i])
                return
        self.centers = np.vstack(
            [self.centers.reshape(len(self), v.size), v])
        self.sizes = np.append(self.sizes, 1)

    def nearest(self, v: Sequence[float]) -> Optional[Tuple[Cluster, float]]:
        """Nearest cluster (and its center distance) to ``v``, if any."""
        if not len(self):
            return None
        dists = self._distances(np.asarray(v, dtype=np.float64))
        i = int(dists.argmin())
        return self._cluster(i), float(dists[i])

    def load(self, centers: np.ndarray, sizes: np.ndarray) -> None:
        """Replace every cluster with ``(k, d)`` centers and ``(k,)`` sizes
        (a checkpoint's ``cl_*_centers`` / ``cl_*_sizes``)."""
        centers = np.array(centers, dtype=np.float64)
        sizes = np.array(sizes, dtype=np.int64)
        if centers.ndim != 2 or sizes.shape != centers.shape[:1]:
            raise CheckpointError(
                f"cluster centers of shape {centers.shape} do not match "
                f"sizes of shape {sizes.shape}"
            )
        self.centers, self.sizes = centers, sizes

    def reset(self) -> None:
        self.centers = np.empty((0, 0))
        self.sizes = np.empty(0, dtype=np.int64)
