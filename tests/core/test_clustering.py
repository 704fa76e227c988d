"""Tests for k-means and recurrence analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import SymbolHorizon, analyze_recurrence, kmeans
from repro.errors import DetectionError
from repro.util.strings import discretize_histogram
from tests.core.kmeans_oracle import kmeans_oracle


def covert_hist(seed=0):
    rng = np.random.default_rng(seed)
    hist = np.zeros(128, dtype=np.int64)
    hist[0] = 2000 + int(rng.integers(0, 100))
    hist[20] = 200 + int(rng.integers(0, 30))
    return hist


def quiet_hist(seed=0):
    rng = np.random.default_rng(seed)
    hist = np.zeros(128, dtype=np.int64)
    hist[0] = 2400
    hist[1] = int(rng.integers(0, 5))
    return hist


class TestKMeans:
    def test_separates_two_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.5, (20, 3))
        b = rng.normal(10, 0.5, (20, 3))
        X = np.vstack([a, b])
        labels, centroids, inertia = kmeans(X, 2, rng=1)
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[20]

    def test_k_one(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        labels, centroids, _ = kmeans(X, 1)
        assert (labels == 0).all()
        assert centroids[0].tolist() == X.mean(axis=0).tolist()

    def test_k_equals_n(self):
        X = np.array([[0.0], [10.0], [20.0]])
        labels, _, inertia = kmeans(X, 3)
        assert sorted(labels.tolist()) == [0, 1, 2]
        assert inertia == pytest.approx(0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        a = kmeans(X, 3, rng=7)[0]
        b = kmeans(X, 3, rng=7)[0]
        assert a.tolist() == b.tolist()

    def test_bad_k(self):
        with pytest.raises(DetectionError):
            kmeans(np.zeros((3, 2)), 4)

    def test_bad_shape(self):
        with pytest.raises(DetectionError):
            kmeans(np.zeros(5), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(2, 5))
    def test_inertia_non_negative_and_labels_valid(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(24, 3))
        labels, centroids, inertia = kmeans(X, k, rng=seed)
        assert inertia >= 0
        assert labels.min() >= 0
        assert labels.max() < k
        assert centroids.shape == (k, 3)


@st.composite
def duplicated_points(draw, max_distinct=6, max_dim=8, lo=0, hi=3):
    """Integer-valued points drawn from a few distinct rows, often
    repeated; small values make argmin ties likely."""
    dim = draw(st.integers(1, max_dim))
    n_distinct = draw(st.integers(1, max_distinct))
    rows = draw(st.lists(
        st.lists(st.integers(lo, hi), min_size=dim, max_size=dim),
        min_size=n_distinct, max_size=n_distinct,
    ))
    picks = draw(st.lists(
        st.integers(0, n_distinct - 1), min_size=1, max_size=48
    ))
    return np.array([rows[i] for i in picks], dtype=np.float64)


def _assert_bit_identical(points, k, seed):
    labels, centroids, inertia = kmeans(points, k, rng=seed)
    o_labels, o_centroids, o_inertia = kmeans_oracle(points, k, rng=seed)
    np.testing.assert_array_equal(labels, o_labels)
    assert centroids.tobytes() == o_centroids.tobytes()
    assert inertia == o_inertia


class TestKMeansOracle:
    """Production k-means clusters distinct rows; on integer-valued
    points it must equal the full-matrix oracle bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(duplicated_points(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_oracle_on_integer_points(self, points, k, seed):
        k = min(k, points.shape[0])
        _assert_bit_identical(points, k, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        duplicated_points(max_distinct=40, max_dim=16, lo=-20, hi=20),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_on_wider_integer_ranges(self, points, k, seed):
        _assert_bit_identical(points, min(k, points.shape[0]), seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 1000))
    def test_all_points_identical(self, n, k, seed):
        points = np.full((n, 5), 2.0)
        _assert_bit_identical(points, min(k, n), seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_k_above_distinct_count_reseeds_empty_clusters(self, seed):
        # Two distinct rows, k=4: at least two clusters start empty and
        # are re-seeded on the (first) farthest point.
        points = np.array([[0, 1], [3, 3], [0, 1], [0, 1], [3, 3]], float)
        _assert_bit_identical(points, 4, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_discretized_histograms(self, seed):
        rng = np.random.default_rng(seed)
        hists = [
            covert_hist(i) if rng.random() < 0.5
            else rng.poisson(2.0, 128) + 2
            for i in range(64)
        ]
        points = np.array([discretize_histogram(h) for h in hists], float)
        _assert_bit_identical(points, 4, seed)


class TestSymbolHorizon:
    def test_histograms_in_window_order_after_wrap(self):
        horizon = SymbolHorizon(3)
        hists = [np.full(4, i, dtype=np.int64) for i in range(5)]
        for h in hists:
            horizon.push(h)
        assert len(horizon) == 3
        np.testing.assert_array_equal(horizon.histograms, np.stack(hists[2:]))
        np.testing.assert_array_equal(horizon.total(), sum(hists[2:]))

    def test_string_leaving_and_reentering_keeps_its_entry(self):
        horizon = SymbolHorizon(2)
        a, b = covert_hist(0), quiet_hist(0)
        key = discretize_histogram(a).astype(np.uint8).tobytes()
        horizon.push(a)
        horizon.push(b)
        entry = horizon._index[key]
        horizon.push(a)  # evicts the first ``a`` and interns ``a`` again
        assert horizon._index[key] == entry
        assert sorted(horizon._index.values()) == sorted(set(horizon._ids))
        np.testing.assert_array_equal(horizon.histograms, np.stack([b, a]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8),
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.one_of(st.none(), st.integers(1, 4)),
        st.integers(0, 1000),
    )
    def test_live_horizon_matches_full_matrix_oracle(
        self, capacity, picks, k, seed
    ):
        # Evictions recycle intern ids out of first-occurrence order; an
        # explicit k above the distinct count forces empty-cluster
        # re-seeds, whose tie-break depends on that order.
        pool = [covert_hist(i) if i % 2 else quiet_hist(i) for i in range(6)]
        horizon = SymbolHorizon(capacity)
        for t, i in enumerate(picks):
            horizon.push(pool[i])
            window = [pool[j] for j in picks[max(0, t + 1 - capacity):t + 1]]
            features = np.array(
                [discretize_histogram(h) for h in window], dtype=np.float64
            )
            k_eff = (
                min(4, len(np.unique(features, axis=0))) if k is None
                else min(k, len(window))
            )
            expected = (
                kmeans_oracle(features, k_eff, rng=seed)[0] if k_eff > 1
                else np.zeros(len(window), dtype=np.int64)
            )
            live = analyze_recurrence(horizon, k=k_eff, rng=seed)
            np.testing.assert_array_equal(live.cluster_labels, expected)
            np.testing.assert_array_equal(
                horizon.histograms, np.stack(window)
            )
            rows, inverse = horizon.distinct_strings()
            np.testing.assert_array_equal(rows[inverse], features)
            first = np.unique(inverse, return_index=True)[1]
            assert (np.diff(first) > 0).all()  # first-occurrence order
            # Only strings still in the horizon hold a table entry.
            assert len(horizon._index) == len(
                {discretize_histogram(h).tobytes() for h in window}
            )

    def test_capacity_must_be_positive(self):
        with pytest.raises(DetectionError):
            SymbolHorizon(0)


class TestRecurrence:
    def test_recurrent_channel_pattern(self):
        """Covert quanta interleaved with quiet quanta recur."""
        hists = []
        for i in range(16):
            hists.append(covert_hist(i) if i % 2 == 0 else quiet_hist(i))
        result = analyze_recurrence(hists)
        assert result.recurrent
        assert result.burst_clusters
        assert result.burst_window_fraction == pytest.approx(0.5, abs=0.15)

    def test_continuous_channel_recurrent(self):
        hists = [covert_hist(i) for i in range(8)]
        result = analyze_recurrence(hists)
        assert result.recurrent

    def test_quiet_windows_not_recurrent(self):
        hists = [quiet_hist(i) for i in range(16)]
        result = analyze_recurrence(hists)
        assert not result.recurrent
        assert not result.burst_clusters

    def test_single_burst_episode_not_recurrent(self):
        """One isolated bursty quantum among many quiet ones: no recurrence."""
        hists = [quiet_hist(i) for i in range(15)]
        hists.insert(7, covert_hist(0))
        result = analyze_recurrence(hists)
        assert not result.recurrent

    def test_low_lr_bursts_not_flagged(self):
        """Mailserver-like windows: second mode with LR < 0.5."""
        hist = np.zeros(128, dtype=np.int64)
        hist[0] = 20_000
        hist[1] = 200
        hist[2] = 60
        hist[3] = 30
        hist[6] = 8
        result = analyze_recurrence([hist.copy() for _ in range(8)])
        assert not result.burst_clusters
        assert not result.recurrent

    def test_window_cap_keeps_recent(self):
        hists = [covert_hist(i) for i in range(8)]
        result = analyze_recurrence(hists, max_windows=4)
        assert result.n_windows == 4

    def test_empty_rejected(self):
        with pytest.raises(DetectionError):
            analyze_recurrence([])

    def test_mismatched_bins_rejected(self):
        with pytest.raises(DetectionError):
            analyze_recurrence([np.zeros(128), np.zeros(64)])

    def test_explicit_k(self):
        hists = [covert_hist(i) for i in range(6)]
        result = analyze_recurrence(hists, k=2)
        assert len(set(result.cluster_labels.tolist())) <= 2
