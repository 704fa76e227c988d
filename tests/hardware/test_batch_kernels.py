"""Property tests: every batch kernel ≡ its scalar reference, exactly.

The vectorized hot path (bloom batch probes, tracker batch transitions,
the cache's deferred-check replay, the members-based generation advance)
is only admissible because it is *bit-identical* to the scalar protocol
— identical false-positive sets, not just rates. Hypothesis drives
arbitrary key columns, filter geometries, and interleaved
access/replacement/check sequences through both implementations and
diffs complete final states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.hardware.bloom import (
    BloomFilter,
    hash_indices_batch,
    probe_positions,
)
from repro.hardware.conflict_tracker import GenerationConflictTracker
from repro.sim.events import LabeledEventTap
from repro.sim.resources.cache import SharedCache
from tests.sim.cache_oracle import OracleCache

KEYS = st.lists(st.integers(0, 2**50), max_size=120)
GEOMETRY = st.tuples(
    st.sampled_from((64, 257, 1024, 4096)),  # n_bits incl. non-power-of-2
    st.integers(1, 5),  # n_hashes
)


class TestBloomBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys=KEYS, geometry=GEOMETRY)
    def test_hash_indices_batch_matches_probe_positions(self, keys, geometry):
        n_bits, n_hashes = geometry
        batch = hash_indices_batch(keys, n_bits, n_hashes)
        assert batch.shape == (len(keys), n_hashes)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == probe_positions(key, n_bits, n_hashes)

    @settings(max_examples=60, deadline=None)
    @given(keys=KEYS, geometry=GEOMETRY)
    def test_add_batch_matches_scalar_add(self, keys, geometry):
        n_bits, n_hashes = geometry
        scalar = BloomFilter(n_bits, n_hashes)
        batch = BloomFilter(n_bits, n_hashes)
        for key in keys:
            scalar.add(key)
        batch.add_batch(keys)
        assert scalar._words == batch._words
        assert scalar.insertions == batch.insertions

    @settings(max_examples=60, deadline=None)
    @given(
        inserted=KEYS,
        probed=st.lists(st.integers(0, 2**50), max_size=120),
        geometry=GEOMETRY,
    )
    def test_contains_batch_matches_scalar_contains(
        self, inserted, probed, geometry
    ):
        n_bits, n_hashes = geometry
        bloom = BloomFilter(n_bits, n_hashes)
        bloom.add_batch(inserted)
        batch = bloom.contains_batch(probed)
        # Identical false-positive *set*, not merely rate: each probe's
        # batch answer equals the scalar packed-word walk.
        assert batch.tolist() == [bloom.contains(key) for key in probed]

    def test_batch_word_wrap_matches_scalar_mask(self):
        # Keys at and beyond 2**64 exercise the uint64 wraparound that
        # must equal the scalar pipeline's ``& _MASK64``.
        keys = [2**64 - 1, 2**63, 123456789123456789]
        batch = hash_indices_batch(keys, 4096, 3)
        for row, key in zip(batch.tolist(), keys):
            assert tuple(row) == probe_positions(key, 4096, 3)


def _fresh_pair(capacity, generations=4):
    return (
        GenerationConflictTracker(capacity, generations=generations),
        GenerationConflictTracker(capacity, generations=generations),
    )


def _tracker_state(tracker):
    return (
        tracker._current,
        tracker._accessed_in_current,
        tracker.generation_advances,
        dict(tracker._gen_bits),
        [set(m) for m in tracker._members],
        [list(b._words) for b in tracker._blooms],
    )


#: Interleaved op streams: (op, key) with op 0=access 1=replace 2=check.
OPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 40)), max_size=150
)


class TestTrackerBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.integers(0, 60), max_size=200),
           capacity=st.integers(4, 64))
    def test_on_access_batch_matches_scalar(self, keys, capacity):
        scalar, batch = _fresh_pair(capacity)
        for key in keys:
            scalar.on_access(key)
        batch.on_access_batch(keys)
        assert _tracker_state(scalar) == _tracker_state(batch)

    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, capacity=st.integers(4, 64))
    def test_series_ops_match_scalar_methods(self, ops, capacity):
        scalar, closures = _fresh_pair(capacity)
        on_access, on_replacement, check = closures.series_ops()
        checks_scalar, checks_closure = [], []
        for op, key in ops:
            if op == 0:
                scalar.on_access(key)
                on_access(key)
            elif op == 1:
                scalar.on_replacement(key)
                on_replacement(key)
            else:
                checks_scalar.append(scalar.check_recent_eviction(key))
                checks_closure.append(check(key))
        assert checks_scalar == checks_closure
        assert _tracker_state(scalar) == _tracker_state(closures)

    @settings(max_examples=60, deadline=None)
    @given(
        warm=st.lists(st.integers(0, 40), max_size=80),
        probes=st.lists(st.integers(0, 60), max_size=80),
        capacity=st.integers(4, 64),
    )
    def test_check_batch_matches_scalar(self, warm, probes, capacity):
        tracker = GenerationConflictTracker(capacity)
        for i, key in enumerate(warm):
            tracker.on_access(key)
            if i % 3 == 0:
                tracker.on_replacement(key)
        batch = tracker.check_recent_eviction_batch(probes)
        assert batch.tolist() == [
            tracker.check_recent_eviction(key) for key in probes
        ]


ACCESS, REPLACE, CHECK = 0, 1, 2

#: Series positions, each a list of scalar ops in ``access`` order: a
#: lone op, or a miss — check the incoming key, replace a victim, then
#: access the incoming key (which may advance a generation, so a check,
#: an insert and a flash-clear can share one position).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 2), st.integers(0, 40)).map(lambda op: [op]),
        st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
            lambda kv: [(CHECK, kv[0]), (REPLACE, kv[1]), (ACCESS, kv[0])]
        ),
    ),
    max_size=150,
)


def _replay_against_scalar(reference, replayed, steps):
    """Drive ``steps`` through both trackers and diff the outcomes.

    ``reference`` runs the scalar protocol in series order. ``replayed``
    mirrors the cache's fused kernel: it keeps its generation bits in
    step but defers all bloom traffic into logs that
    :meth:`GenerationConflictTracker.replay_check_batch` resolves
    afterwards. Verdicts, final bloom words, ``insertions`` and the rest
    of the tracker state must all match. Returns the logs and verdicts.
    """
    snapshot = [list(b._words) for b in replayed._blooms]
    log = {k: [] for k in (
        "cand_pos", "cand_keys", "ins_pos", "ins_gen", "ins_keys", "clears",
    )}
    scalar_answers = []
    for i, actions in enumerate(steps):
        for op, key in actions:
            if op == ACCESS:
                before = reference.generation_advances
                reference.on_access(key)
                replayed.on_access(key)
                if reference.generation_advances != before:
                    log["clears"].append((i, reference._current))
            elif op == REPLACE:
                latest = reference.latest_generation_of(key)
                reference.on_replacement(key)
                if latest is not None:
                    log["ins_pos"].append(i)
                    log["ins_gen"].append(latest)
                    log["ins_keys"].append(key)
                    # Keep the replayed tracker's generation bits in step
                    # without touching its blooms (the kernel defers them).
                    del replayed._gen_bits[key]
                else:
                    replayed._gen_bits.pop(key, None)
            else:
                scalar_answers.append(reference.check_recent_eviction(key))
                log["cand_pos"].append(i)
                log["cand_keys"].append(key)
    verdict = replayed.replay_check_batch(
        len(steps), log["cand_pos"], log["cand_keys"], log["ins_pos"],
        log["ins_gen"], log["ins_keys"], log["clears"], snapshot,
    )
    log["verdict"] = verdict.tolist()
    assert log["verdict"] == scalar_answers
    assert _tracker_state(replayed) == _tracker_state(reference)
    assert [b.insertions for b in replayed._blooms] == [
        b.insertions for b in reference._blooms
    ]
    return log


class TestReplayCheckBatch:
    """The deferred replay ≡ interleaved scalar check/insert/clear."""

    @settings(max_examples=80, deadline=None)
    @given(steps=STEPS, capacity=st.integers(4, 48))
    def test_replay_matches_interleaved_scalar(self, steps, capacity):
        reference, replayed = _fresh_pair(capacity)
        _replay_against_scalar(reference, replayed, steps)

    @settings(max_examples=40, deadline=None)
    @given(steps=STEPS)
    def test_replay_from_warm_snapshot(self, steps):
        # A non-empty snapshot: pre-populate the blooms, then replay.
        reference, replayed = _fresh_pair(32)
        for tracker in (reference, replayed):
            for key in range(0, 20, 2):
                tracker.on_access(key)
                tracker.on_replacement(key)
        assert any(b.insertions for b in replayed._blooms)
        _replay_against_scalar(reference, replayed, steps)

    def test_two_clears_of_one_generation_and_insert_at_clear(self):
        # Two generations, threshold 2, a bloom wide enough that these
        # keys never collide. Every position is a miss: check the
        # incoming key, replace a victim, access the incoming key.
        def tracker():
            return GenerationConflictTracker(
                4, generations=2, bloom_bits_per_generation=256
            )

        steps = [
            [(CHECK, key), (REPLACE, victim), (ACCESS, key)]
            for key, victim in ((2, 2), (3, 1), (1, 2), (0, 3), (1, 1), (1, 1))
        ]
        reference, replayed = tracker(), tracker()
        log = _replay_against_scalar(reference, replayed, steps)
        # Generation 1 is flash-cleared twice (positions 1 and 5).
        assert log["clears"] == [(1, 1), (3, 0), (5, 1)]
        # Victim 3 enters bloom 0 at position 3, which the same
        # position's clear of generation 0 then wipes.
        assert list(zip(log["ins_pos"], log["ins_gen"], log["ins_keys"])) == [
            (2, 0, 2), (3, 0, 3), (4, 1, 1), (5, 0, 1),
        ]
        # Position 5's check sees key 1 in bloom 1 before the clear.
        assert log["verdict"] == [False] * 5 + [True]
        assert [b.insertions for b in replayed._blooms] == [1, 0]
        assert replayed._blooms[0].contains(1)
        assert not replayed._blooms[0].contains(3)
        assert not any(replayed._blooms[1]._words)


class TestAdvanceGenerationMembers:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, capacity=st.integers(4, 64))
    def test_members_advance_matches_full_walk_reference(self, ops, capacity):
        """The O(generation) advance ≡ walking every resident block."""
        fast = GenerationConflictTracker(capacity)

        class FullWalk(GenerationConflictTracker):
            def _advance_generation(self):
                new_gen = (self._current + 1) % self.generations
                cleared_bit = ~(1 << new_gen)
                for key in list(self._gen_bits):
                    remaining = self._gen_bits[key] & cleared_bit
                    if remaining:
                        self._gen_bits[key] = remaining
                    else:
                        del self._gen_bits[key]
                self._members[new_gen] = set()
                self._blooms[new_gen].clear()
                self._current = new_gen
                self._accessed_in_current = 0
                self.generation_advances += 1

        reference = FullWalk(capacity)
        for op, key in ops:
            for tracker in (fast, reference):
                if op == 0:
                    tracker.on_access(key)
                elif op == 1:
                    tracker.on_replacement(key)
                else:
                    tracker.check_recent_eviction(key)
        assert fast._current == reference._current
        assert fast._gen_bits == reference._gen_bits
        assert fast._accessed_in_current == reference._accessed_in_current
        assert [b._words for b in fast._blooms] == [
            b._words for b in reference._blooms
        ]


#: Access rows (set, tag) over a tiny cache so evictions are frequent.
SERIES = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 11)), max_size=120
)


class TestAccessSeriesEquivalence:
    """The batch series kernel against the per-access oracle loop."""

    @settings(max_examples=50, deadline=None)
    @given(chunks=st.lists(SERIES, max_size=4), jitter=st.sampled_from((0, 3)))
    def test_vectorized_matches_legacy_including_jitter(self, chunks, jitter):
        def build(cls):
            config = CacheConfig(size_bytes=8 * 1024)  # 16 sets x 8 ways
            tracker = GenerationConflictTracker(
                config.n_sets * config.associativity
            )
            tap = LabeledEventTap("prop")
            cache = cls(
                config,
                tracker,
                tap,
                np.random.default_rng(77),
                latency_jitter=jitter,
            )
            return cache, tap

        vec, tap_vec = build(SharedCache)
        leg, tap_leg = build(OracleCache)
        t_vec = t_leg = 0
        for chunk in chunks:
            t_vec, lat_vec = vec.access_series(0, tuple(chunk), 8, t_vec)
            t_leg, lat_leg = leg.access_series(0, tuple(chunk), 8, t_leg)
            assert lat_vec.tolist() == lat_leg.tolist()
            assert t_vec == t_leg
        assert vec._jitter_idx == leg._jitter_idx
        assert (vec.hits, vec.misses, vec.conflict_misses) == (
            leg.hits,
            leg.misses,
            leg.conflict_misses,
        )
        for a, b in zip(tap_vec.records(), tap_leg.records()):
            assert a.tolist() == b.tolist()
        assert _tracker_state(vec.tracker) == _tracker_state(leg.tracker)
