"""Recurrence detection by pattern clustering (Section IV-B, step 5).

A single bursty histogram can be an accident; covert transmission produces
burst patterns that *recur* across observation windows. The paper's
clustering algorithm (1) discretizes each window's event-density histogram
into a string over a small symbol alphabet and (2) aggregates similar
strings with k-means. Clusters whose aggregate histogram carries a
significant burst distribution reveal how often — and how spread over time
— the burst pattern recurs, regardless of burst spacing (so irregular and
low-bandwidth channels still cluster).

The observation horizon is capped at 512 OS quanta (51.2 s) so old
windows do not dilute the histograms of an active channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import CLUSTERING_WINDOW_QUANTA, LIKELIHOOD_RATIO_THRESHOLD
from repro.core.burst import BurstAnalysis, analyze_histogram
from repro.errors import DetectionError
from repro.util.rng import RngLike, make_rng
from repro.util.strings import discretize_histogram


def kmeans(
    points: np.ndarray,
    k: int,
    rng: RngLike = 0,
    max_iters: int = 64,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Plain k-means with k-means++ seeding.

    Returns ``(labels, centroids, inertia)``. Deterministic for a fixed
    seed. Empty clusters are re-seeded on the farthest point. Lloyd runs
    on the distinct rows of ``points`` (see :func:`kmeans_distinct`); for
    integer-valued points that is bit-identical to clustering every row.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DetectionError("kmeans needs a non-empty 2-D point matrix")
    index: Dict[bytes, int] = {}
    inverse = np.fromiter(
        (index.setdefault(row.tobytes(), len(index)) for row in X),
        dtype=np.int64,
        count=X.shape[0],
    )
    first = np.unique(inverse, return_index=True)[1]
    labels, centroids, inertia = kmeans_distinct(
        X[first], inverse, k, rng=rng, max_iters=max_iters
    )
    return labels[inverse], centroids, inertia


def kmeans_distinct(
    rows: np.ndarray,
    inverse: np.ndarray,
    k: int,
    rng: RngLike = 0,
    max_iters: int = 64,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """k-means over ``n = inverse.size`` points given as distinct rows.

    Point ``i`` is ``rows[inverse[i]]``; ``rows`` are pairwise distinct
    and in first-occurrence order. Returns ``(labels, centroids,
    inertia)`` with one label per *distinct row*, so Lloyd costs
    O(distinct) per iteration, not O(n). Seeding draws over all ``n``
    points, and a re-seed takes the first farthest point, exactly as on
    the full matrix. A centroid is ``Σ count·row / Σ count``: for
    integer-valued points those sums are exact in float64 and equal the
    member mean bit for bit, so labels, centroids and inertia match
    clustering every point.
    """
    X = np.asarray(rows, dtype=np.float64)
    n = inverse.size
    if X.ndim != 2 or n == 0:
        raise DetectionError("kmeans needs a non-empty 2-D point matrix")
    if not 1 <= k <= n:
        raise DetectionError(f"k must be in 1..{n}, got {k}")
    gen = make_rng(rng)
    weights = np.bincount(inverse, minlength=X.shape[0]).astype(np.float64)

    # --- k-means++ seeding over all n points
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[inverse[int(gen.integers(0, n))]]
    closest_sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        point_sq = closest_sq[inverse]
        total = point_sq.sum()
        if total == 0:
            centroids[j] = X[inverse[int(gen.integers(0, n))]]
            continue
        idx = int(gen.choice(n, p=point_sq / total))
        centroids[j] = X[inverse[idx]]
        closest_sq = np.minimum(closest_sq, ((X - centroids[j]) ** 2).sum(axis=1))

    labels = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(max_iters):
        distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if not members.any():
                # Re-seed an empty cluster on the farthest point.
                farthest = int(distances.min(axis=1).argmax())
                centroids[j] = X[farthest]
            else:
                w = weights[members]
                centroids[j] = (w @ X[members]) / w.sum()
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    distances = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    inertia = float(distances[np.arange(X.shape[0]), labels][inverse].sum())
    return labels, centroids, inertia


class SymbolHorizon:
    """The last ``capacity`` window histograms, strings interned.

    A ring matrix holds the histograms. Each window's discretized symbol
    string is interned once, at push time, as a refcounted id into a
    table of distinct strings, so recurrence clustering reads the
    horizon's distinct strings without re-discretizing or re-hashing a
    window. ``histograms`` is the horizon in window order (oldest first).
    """

    def __init__(self, capacity: int = CLUSTERING_WINDOW_QUANTA):
        if capacity < 1:
            raise DetectionError(f"horizon capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Histogram ring and symbol table, allocated at the first push
        #: (``np.zeros`` pages in only the rows actually written).
        self._ring: Optional[np.ndarray] = None
        self._table: Optional[np.ndarray] = None
        #: Intern id of each ring slot's symbol string.
        self._ids = np.zeros(capacity, dtype=np.int64)
        #: Ring slot of the oldest window.
        self._head = 0
        self._size = 0
        self._index: Dict[bytes, int] = {}
        self._keys: List[bytes] = []
        self._refs: List[int] = []
        self._free: List[int] = []

    def __len__(self) -> int:
        return self._size

    @property
    def histograms(self) -> np.ndarray:
        """The horizon's histograms in window order, one row each."""
        if self._ring is None:
            return np.zeros((0, 0), dtype=np.int64)
        return np.roll(self._ring[: self._size], -self._head, axis=0)

    def total(self) -> np.ndarray:
        """Element-wise sum of every histogram in the horizon."""
        return self._ring[: self._size].sum(axis=0)

    def window_sum(self, windows: np.ndarray) -> np.ndarray:
        """Sum of the histograms a window-order boolean mask selects."""
        ring_mask = np.roll(windows, self._head)
        return self._ring[: self._size][ring_mask].sum(axis=0)

    def distinct_strings(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, inverse)``: the distinct symbol strings in order of
        first occurrence, and each window's row in ``rows``."""
        ids = np.roll(self._ids[: self._size], -self._head)
        distinct, first, inverse = np.unique(
            ids, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return self._table[distinct[order]], rank[inverse]

    def push(self, hist) -> None:
        """Append one window, evicting the oldest when full."""
        hist = np.asarray(hist, dtype=np.int64)
        if self._ring is None:
            self._ring = np.zeros((self.capacity, hist.size), dtype=np.int64)
            self._table = np.zeros((self.capacity, hist.size), dtype=np.uint8)
        elif hist.size != self._ring.shape[1]:
            raise DetectionError("all window histograms must share bin count")
        symbols = discretize_histogram(hist).astype(np.uint8)
        slot = (self._head + self._size) % self.capacity
        if self._size == self.capacity:
            # Evict before interning, so at most ``capacity`` ids are live
            # and a freed id is reused first.
            self._release(int(self._ids[slot]))
            self._head = (self._head + 1) % self.capacity
        else:
            self._size += 1
        self._ring[slot] = hist
        self._ids[slot] = self._intern(symbols)

    def _intern(self, symbols: np.ndarray) -> int:
        key = symbols.tobytes()
        sid = self._index.get(key)
        if sid is None:
            if self._free:
                sid = self._free.pop()
                self._keys[sid] = key
            else:
                sid = len(self._keys)
                self._keys.append(key)
                self._refs.append(0)
            self._index[key] = sid
            self._table[sid] = symbols
        self._refs[sid] += 1
        return sid

    def _release(self, sid: int) -> None:
        self._refs[sid] -= 1
        if self._refs[sid] == 0:
            del self._index[self._keys[sid]]
            self._free.append(sid)


@dataclass(frozen=True)
class RecurrenceAnalysis:
    """Outcome of the pattern-clustering recurrence check."""

    n_windows: int
    cluster_labels: np.ndarray
    #: Cluster indices whose aggregate histogram has a significant burst
    #: distribution (likelihood ratio >= threshold).
    burst_clusters: Tuple[int, ...]
    #: Per-burst-cluster aggregate burst analyses (parallel to burst_clusters).
    burst_analyses: Tuple[BurstAnalysis, ...]
    #: Windows falling in burst clusters.
    burst_window_indices: np.ndarray
    #: Burst patterns recur: enough burst windows, spread over the horizon.
    recurrent: bool

    @property
    def burst_window_fraction(self) -> float:
        if self.n_windows == 0:
            return 0.0
        return self.burst_window_indices.size / self.n_windows


def analyze_recurrence(
    histograms: Union[SymbolHorizon, Sequence[np.ndarray]],
    k: Optional[int] = None,
    lr_threshold: float = LIKELIHOOD_RATIO_THRESHOLD,
    min_burst_windows: int = 2,
    rng: RngLike = 0,
    max_windows: int = CLUSTERING_WINDOW_QUANTA,
) -> RecurrenceAnalysis:
    """Cluster per-window histograms and decide whether bursts recur.

    ``histograms`` is one event-density histogram per observation window
    (most recent windows are kept if more than ``max_windows`` are
    given), or a live :class:`SymbolHorizon` whose strings are already
    interned. A channel is recurrent when the windows that land in
    burst-significant clusters number at least ``min_burst_windows`` and
    are not all contiguous (a single isolated burst episode does not
    recur).

    k-means runs on the horizon's distinct symbol strings, weighted by
    how many windows carry each (:func:`kmeans_distinct`); symbols are
    small integers, so the labels equal clustering every window.
    """
    if len(histograms) == 0:
        raise DetectionError("need at least one window histogram")
    horizon = histograms
    if not isinstance(horizon, SymbolHorizon) or len(horizon) > max_windows:
        windows = (
            horizon.histograms if isinstance(horizon, SymbolHorizon)
            else horizon
        )
        horizon = SymbolHorizon(min(len(windows), max_windows))
        for h in windows[-max_windows:]:
            horizon.push(h)
    n = len(horizon)

    # Distinct strings in first-occurrence (window) order, so seeding
    # and re-seeding pick the same windows as on the full matrix.
    rows, inverse = horizon.distinct_strings()
    k_eff = k if k is not None else max(1, min(4, rows.shape[0]))
    if k_eff == 1:
        # One cluster: k-means labels every point 0 regardless of
        # seeding (argmin over a single column), so skip it outright —
        # the centroid is never used. Same labels, bit for bit.
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = kmeans_distinct(rows, inverse, k_eff, rng=rng)[0][inverse]

    burst_clusters: List[int] = []
    analyses: List[BurstAnalysis] = []
    for j in range(k_eff):
        members = labels == j
        if not members.any():
            continue
        aggregate = horizon.window_sum(members)
        analysis = analyze_histogram(aggregate, lr_threshold=lr_threshold)
        if analysis.significant:
            burst_clusters.append(j)
            analyses.append(analysis)

    burst_windows = (
        np.nonzero(np.isin(labels, burst_clusters))[0]
        if burst_clusters
        else np.zeros(0, dtype=np.int64)
    )
    recurrent = bool(
        burst_windows.size >= min_burst_windows
        and (
            burst_windows.size > 1
            and (burst_windows[-1] - burst_windows[0]) >= burst_windows.size
            or burst_windows.size >= max(2, n // 2)
        )
    )
    return RecurrenceAnalysis(
        n_windows=n,
        cluster_labels=labels,
        burst_clusters=tuple(burst_clusters),
        burst_analyses=tuple(analyses),
        burst_window_indices=burst_windows,
        recurrent=recurrent,
    )
