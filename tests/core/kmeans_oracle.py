"""Reference k-means over the full point matrix (test oracle).

This is the Lloyd loop production ran before it clustered distinct rows:
every iteration computes distances for all ``n`` points and each
centroid is ``members.mean(axis=0)``. ``repro.core.clustering.kmeans``
must equal it bit for bit — labels, centroids and inertia — on
integer-valued points (``test_clustering.TestKMeansOracle``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.rng import RngLike, make_rng


def kmeans_oracle(
    points: np.ndarray,
    k: int,
    rng: RngLike = 0,
    max_iters: int = 64,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """k-means++ seeding, then Lloyd on every point; empty clusters are
    re-seeded on the farthest point."""
    X = np.asarray(points, dtype=np.float64)
    n = X.shape[0]
    gen = make_rng(rng)

    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(gen.integers(0, n))
    centroids[0] = X[first]
    closest_sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total == 0:
            centroids[j] = X[int(gen.integers(0, n))]
            continue
        probs = closest_sq / total
        idx = int(gen.choice(n, p=probs))
        centroids[j] = X[idx]
        closest_sq = np.minimum(closest_sq, ((X - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        for j in range(k):
            members = X[new_labels == j]
            if members.shape[0] == 0:
                farthest = int(distances.min(axis=1).argmax())
                centroids[j] = X[farthest]
            else:
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    inertia = float(distances[np.arange(n), labels].sum())
    return labels, centroids, inertia
