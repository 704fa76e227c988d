"""Exact-parity proof: the batched cache kernel vs its per-access oracle.

The batch ``access_series``/``random_traffic`` kernel of
:class:`~repro.sim.resources.cache.SharedCache` is the only production
cache path. Whole audited sessions are pinned by the frozen digests in
``tests/golden/sessions.json`` (labeled event trains, verdicts, evidence
bundles, counters, jitter-pool stepping, tracker state — with and
without fault injectors). Direct cache workloads are diffed against
:class:`tests.sim.cache_oracle.OracleCache`, the per-access loop, for
both tracker designs, with and without a way partition
(docs/PERFORMANCE.md, "Simulator hot path").
"""

import numpy as np
import pytest

from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.config import CacheConfig
from repro.errors import SimulationError
from repro.hardware.conflict_tracker import (
    GenerationConflictTracker,
    IdealLRUConflictTracker,
)
from repro.mitigation import partition_cache_ways
from repro.mitigation.partition import _WayPartition
from repro.sim.events import LabeledEventTap
from repro.sim.machine import Machine
from repro.sim.resources.cache import SharedCache
from repro.util.bitstream import Message
from tests.golden.test_sessions_golden import assert_matches_golden
from tests.sim.cache_oracle import OracleCache

pytestmark = pytest.mark.parity

#: Both channel families exercise the cache: 'cache' through the covert
#: sweep/probe series, 'membus' through the background noise traffic.
KINDS = ("membus", "cache")
SEED = 11

VERDICT_FIELDS = ("report_sha256", "evidence_sha256", "count_metrics_sha256")

#: Contexts 0 and 1 each quarantined in 2 ways, 2 and 3 sharing 4.
GROUP_OF_CTX = {0: 0, 1: 1, 2: 2, 3: 2}
WAYS_OF_GROUP = {0: 2, 1: 2, 2: 4}


class TestSessionParity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_evidence_and_metrics_identical(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:clean", *VERDICT_FIELDS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_labeled_event_trains_identical(self, kind):
        assert_matches_golden(
            f"{kind}:{SEED}:clean", "conflict_train_sha256", "l2", "jitter_idx"
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_tracker_state_identical(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:clean", "tracker")

    @pytest.mark.parametrize("kind", KINDS)
    def test_verdicts_identical_under_injection(self, kind):
        assert_matches_golden(f"{kind}:{SEED}:inject", *VERDICT_FIELDS)

    def test_exported_archives_identical(self):
        assert_matches_golden(f"cache:{SEED}:clean", "archive")


def _make_cache(cls, tracker_factory, seed=23):
    config = CacheConfig(size_bytes=64 * 1024)  # 128 sets x 8 ways
    tracker = tracker_factory(config.n_sets * config.associativity)
    tap = LabeledEventTap("parity")
    cache = cls(config, tracker, tap, np.random.default_rng(seed))
    return cache, tap


def _mixed_workload(cache):
    """Interleaved singles, tuple series, ndarray series, random traffic.

    Covers hit-heavy series after warmup, miss-heavy thrash series and
    the RNG draw order of ``random_traffic``. Returns the observable
    outputs.
    """
    rng = np.random.default_rng(41)
    outputs = []
    t = 0
    # Warmup fills + a hit-heavy hot set.
    hot = [(int(s), int(g)) for s in range(16) for g in range(8)]
    for _ in range(3):
        t, lat = cache.access_series(0, tuple(hot), 8, t)
        outputs.append(lat.tolist())
    # Miss-heavy thrash: 9 tags cycling through 8 ways.
    thrash = [(int(s), int(100 + (i + s) % 9)) for i in range(40)
              for s in range(8)]
    t, lat = cache.access_series(1, np.asarray(thrash, dtype=np.int64), 8, t)
    outputs.append(lat.tolist())
    # Single accesses interleaved with series work.
    for i in range(50):
        latency, hit = cache.access(2, int(rng.integers(0, 128)),
                                    int(rng.integers(0, 4)), t)
        outputs.append((latency, hit))
        t += latency
    # Random noise traffic (three RNG draws + jitter stepping).
    t = cache.random_traffic(3, t, 50_000, 400, set_lo=0, set_hi=64,
                             tag_space=16)
    # One more hit-heavy pass so post-traffic state differences surface.
    t, lat = cache.access_series(0, tuple(hot), 8, t)
    outputs.append(lat.tolist())
    return outputs, t


def _state_fingerprint(cache, tap):
    times, replacers, victims = tap.records()
    fp = {
        "counters": (cache.hits, cache.misses, cache.conflict_misses),
        "cross_group_evictions": cache.cross_group_evictions_prevented,
        "jitter_idx": cache._jitter_idx,
        "occupancy": cache.occupancy,
        "train": (times.tolist(), replacers.tolist(), victims.tolist()),
        "sets": [list(s.items()) for s in cache._sets],
        "next_rng_draws": cache._rng.integers(0, 1 << 30, size=4).tolist(),
    }
    tracker = cache.tracker
    if isinstance(tracker, GenerationConflictTracker):
        fp["tracker"] = (
            tracker._current,
            tracker._accessed_in_current,
            dict(tracker._gen_bits),
            [list(b._words) for b in tracker._blooms],
        )
    else:
        fp["tracker"] = list(tracker._stack._stack)
    return fp


TRACKERS = pytest.mark.parametrize(
    "tracker_factory",
    (GenerationConflictTracker, IdealLRUConflictTracker),
    ids=("generation", "ideal-lru"),
)


class TestDirectCacheParity:
    @TRACKERS
    def test_mixed_workload_identical(self, tracker_factory):
        cache, tap = _make_cache(SharedCache, tracker_factory)
        oracle, oracle_tap = _make_cache(OracleCache, tracker_factory)
        out, end = _mixed_workload(cache)
        out_oracle, end_oracle = _mixed_workload(oracle)
        assert out == out_oracle
        assert end == end_oracle
        assert _state_fingerprint(cache, tap) == _state_fingerprint(
            oracle, oracle_tap
        )

    def test_empty_and_single_series(self):
        cache, _ = _make_cache(SharedCache, GenerationConflictTracker)
        oracle, _ = _make_cache(OracleCache, GenerationConflictTracker)
        for c in (cache, oracle):
            end, lat = c.access_series(0, (), 8, 100)
            assert end == 100 and lat.size == 0
        end, lat = cache.access_series(0, ((3, 7),), 5, 100)
        end_oracle, lat_oracle = oracle.access_series(0, ((3, 7),), 5, 100)
        assert end == end_oracle
        assert lat.tolist() == lat_oracle.tolist()

    def test_bad_set_index_raises_both_paths(self):
        for cls in (SharedCache, OracleCache):
            cache, _ = _make_cache(cls, GenerationConflictTracker)
            with pytest.raises(SimulationError):
                cache.access_series(0, ((100_000, 1),), 8, 0)


def _partitioned_pair(tracker_factory):
    """Production cache and oracle, both warmed by context 3 across all
    8 ways of the hot sets *before* partitioning, so partitioned misses
    there must evict another group's pre-partition blocks."""
    pair = []
    for cls in (SharedCache, OracleCache):
        cache, tap = _make_cache(cls, tracker_factory)
        cache.access_series(
            3, tuple((s, 500 + w) for s in range(16) for w in range(8)), 8, 0
        )
        _WayPartition(cache, GROUP_OF_CTX, WAYS_OF_GROUP)
        pair.append((cache, tap))
    return pair


class TestPartitionPolicy:
    """Way partitioning as a policy of the batch kernel."""

    @TRACKERS
    def test_partitioned_workload_matches_oracle(self, tracker_factory):
        (cache, tap), (oracle, oracle_tap) = _partitioned_pair(tracker_factory)
        out, end = _mixed_workload(cache)
        out_oracle, end_oracle = _mixed_workload(oracle)
        assert out == out_oracle
        assert end == end_oracle
        fp = _state_fingerprint(cache, tap)
        assert fp == _state_fingerprint(oracle, oracle_tap)
        assert fp["cross_group_evictions"] > 0

    def test_partitioned_series_matches_oracle(self):
        (cache, tap), (oracle, oracle_tap) = _partitioned_pair(
            GenerationConflictTracker
        )

        def run(c):
            t, trace = 0, []
            for ctx in (0, 1, 0, 1):
                pattern = tuple(
                    (s, 10 + ctx) for s in range(8) for _ in range(3)
                )
                t, lat = c.access_series(ctx, pattern, 8, t)
                trace.append((lat.tolist(), t))
            return trace

        assert run(cache) == run(oracle)
        assert _state_fingerprint(cache, tap) == _state_fingerprint(
            oracle, oracle_tap
        )

    def test_partitioned_misses_step_jitter_pool(self):
        """A partitioned miss draws its jitter from the pool like any
        access and leaves the noise RNG alone: ``_jitter_idx`` advances
        by exactly n per n-access series, and the cache RNG's next draws
        equal those of an unpartitioned twin."""
        cache, _ = _make_cache(SharedCache, GenerationConflictTracker)
        twin, _ = _make_cache(SharedCache, GenerationConflictTracker)
        _WayPartition(cache, GROUP_OF_CTX, WAYS_OF_GROUP)
        misses = tuple((s, 1000 + s) for s in range(8))
        t = 0
        for round_idx in range(3):
            before = cache._jitter_idx
            t, _lat = cache.access_series(0, misses, 8, t)
            twin.access_series(0, misses, 8, 0)
            assert cache._jitter_idx == before + len(misses)
        assert cache._jitter_idx == twin._jitter_idx == 3 * len(misses)
        assert (
            cache._rng.integers(0, 1 << 30, size=8).tolist()
            == twin._rng.integers(0, 1 << 30, size=8).tolist()
        )

    def test_partitioned_session_runs_batch_kernel(self, monkeypatch):
        """A mitigated audited session's cache traffic goes through the
        batch kernel's keyed loop, never the single-access entry."""
        calls = {"keyed": 0, "access": 0}
        keyed = SharedCache._run_keyed_accesses

        def counting_keyed(self, *args):
            calls["keyed"] += 1
            return keyed(self, *args)

        def counting_access(self, *args):
            calls["access"] += 1
            raise AssertionError("per-access entry used")

        monkeypatch.setattr(SharedCache, "_run_keyed_accesses", counting_keyed)
        monkeypatch.setattr(SharedCache, "access", counting_access)
        machine = Machine(seed=6)
        channel = CacheCovertChannel(
            machine,
            ChannelConfig(message=Message.random(8, 3), bandwidth_bps=1000.0),
            n_sets_total=16,
        )
        channel.deploy()
        partition_cache_ways(machine, (channel.trojan_ctx, channel.spy_ctx))
        machine.run_quanta(1)
        assert machine.l2.partition is not None
        assert calls["keyed"] > 0 and calls["access"] == 0
