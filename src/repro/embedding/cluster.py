"""Clustering over embeddings: k-means, k-medoids, representative selection.

Used for (a) choosing *query representatives* from the embedded, relaxed
workload (paper Alg. 1 line 2), (b) the QRD baseline (cluster medoids as
diverse representatives), and (c) splitting a workload into interest
clusters for the drift experiment (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Swap rounds of :func:`kmedoids` before it stops unconverged.
KMEDOIDS_ITERATIONS = 30


@dataclass
class ClusterResult:
    """Outcome of a clustering run."""

    labels: np.ndarray          # cluster index per point
    centers: np.ndarray         # (k, dim) centroids
    medoids: np.ndarray         # index of the point closest to each centroid
    inertia: float              # sum of squared distances to assigned centroid

    @property
    def k(self) -> int:
        return len(self.centers)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
    n_iter: int = 50,
    n_restarts: int = 3,
) -> ClusterResult:
    """Lloyd's k-means with k-means++ seeding and restarts.

    ``k`` is clipped to the number of points. Empty clusters are reseeded
    to the farthest point from its centroid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = max(1, min(k, n))

    best: ClusterResult | None = None
    for _ in range(n_restarts):
        centers = _kmeanspp_init(points, k, rng)
        labels = np.full(n, -1, dtype=np.int64)
        for _iteration in range(n_iter):
            distances = _sq_distances(points, centers)
            new_labels = np.argmin(distances, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                members = points[labels == c]
                if len(members) > 0:
                    centers[c] = members.mean(axis=0)
                else:
                    worst = int(np.argmax(np.min(distances, axis=1)))
                    centers[c] = points[worst]
        distances = _sq_distances(points, centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(np.sum(np.min(distances, axis=1)))
        medoids = _medoids_of(points, centers, labels, k)
        candidate = ClusterResult(labels=labels, centers=centers, medoids=medoids, inertia=inertia)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c] = points[int(rng.integers(0, n))]
        else:
            probabilities = closest / total
            pick = int(rng.choice(n, p=probabilities))
            centers[c] = points[pick]
        closest = np.minimum(closest, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return (
        np.sum(points ** 2, axis=1, keepdims=True)
        - 2.0 * points @ centers.T
        + np.sum(centers ** 2, axis=1)
    )


def _medoids_of(
    points: np.ndarray, centers: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    medoids = np.zeros(k, dtype=np.int64)
    distances = _sq_distances(points, centers)
    for c in range(k):
        members = np.flatnonzero(labels == c)
        if len(members) == 0:
            medoids[c] = int(np.argmin(distances[:, c]))
        else:
            medoids[c] = members[int(np.argmin(distances[members, c]))]
    return medoids


def kmedoids(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> ClusterResult:
    """PAM-style k-medoids (the QRD baseline of [24]: pick medoids, re-assign),
    at most :data:`KMEDOIDS_ITERATIONS` rounds."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = len(points)
    if n == 0:
        raise ValueError("cannot cluster zero points")
    k = max(1, min(k, n))

    medoid_idx = rng.choice(n, size=k, replace=False)
    for _ in range(KMEDOIDS_ITERATIONS):
        distances = _sq_distances(points, points[medoid_idx])
        labels = np.argmin(distances, axis=1)
        new_medoids = medoid_idx.copy()
        for c in range(k):
            members = np.flatnonzero(labels == c)
            if len(members) == 0:
                continue
            within = _sq_distances(points[members], points[members])
            new_medoids[c] = members[int(np.argmin(within.sum(axis=1)))]
        if np.array_equal(new_medoids, medoid_idx):
            break
        medoid_idx = new_medoids

    distances = _sq_distances(points, points[medoid_idx])
    labels = np.argmin(distances, axis=1)
    inertia = float(np.sum(np.min(distances, axis=1)))
    return ClusterResult(
        labels=labels,
        centers=points[medoid_idx].copy(),
        medoids=np.asarray(medoid_idx, dtype=np.int64),
        inertia=inertia,
    )


def select_representatives(
    points: np.ndarray,
    n_representatives: int,
    rng: np.random.Generator,
) -> list[int]:
    """Indices of ``n_representatives`` diverse points (cluster medoids).

    This is the paper's ``rep_selection`` (Alg. 1 line 2): cluster the
    embedded generalized queries and keep one representative per cluster.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(points) == 0:
        return []
    if n_representatives >= len(points):
        return list(range(len(points)))
    result = kmeans(points, n_representatives, rng)
    return sorted(set(int(m) for m in result.medoids))
