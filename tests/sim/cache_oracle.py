"""Reference oracles for the simulator's and the event source's hot paths.

:class:`OracleCache` is the shared L2 walked one access at a time: the
scalar per-access LRU / conflict-tracker step the batch kernel of
:class:`~repro.sim.resources.cache.SharedCache` replaced, including the
way-partition victim rule (a miss evicts its own group's LRU block once
the group fills its ways; a full set otherwise loses its LRU block with
no conflict pair attributed) and the jitter pool stepping once per
access, partitioned or not. It never calls the batch kernel, so the
tests can diff the kernel against it.

:class:`FullHistoryReader` / :class:`FullHistoryConflictReader` re-read
a tap's sorted full history for every window, the reads the incremental
window readers replaced.

The ``install_*`` helpers put the oracles into a live machine / source
(``machine.l2`` is the only holder of the cache, and a source creates
a channel's reader when the channel is registered), so a benchmark can
run the same audited session on either path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.resources.cache import SharedCache, block_key
from repro.util.rng import derive_rng


class OracleCache(SharedCache):
    """SharedCache with every access taken by a scalar per-access step."""

    def access(self, ctx, set_index, tag, time):
        if not 0 <= set_index < self.config.n_sets:
            raise SimulationError(
                f"set index {set_index} outside 0..{self.config.n_sets - 1}"
            )
        cache_set = self._sets[set_index]
        key = block_key(set_index, tag)
        was_hit = tag in cache_set
        if was_hit:
            cache_set.move_to_end(tag)
            cache_set[tag] = ctx
            self.tracker.on_access(key)
            self.hits += 1
            latency = self.config.hit_latency
        else:
            self.misses += 1
            is_conflict = self.tracker.check_recent_eviction(key)
            victim_tag = victim_owner = None
            if self.partition is not None:
                victim_tag, victim_owner = self._partitioned_victim(
                    ctx, cache_set
                )
            elif len(cache_set) >= self.config.associativity:
                victim_tag, victim_owner = cache_set.popitem(last=False)
            if victim_tag is not None:
                self.tracker.on_replacement(block_key(set_index, victim_tag))
            cache_set[tag] = ctx
            self.tracker.on_access(key)
            if is_conflict and victim_owner is not None:
                self.conflict_misses += 1
                self.miss_tap.record(time, ctx, victim_owner)
            latency = self.config.miss_latency
        if self.latency_jitter:
            pool = self._jitter_pool
            self._jitter_idx = (self._jitter_idx + 1) % len(pool)
            latency += pool[self._jitter_idx]
        return latency, was_hit

    def _partitioned_victim(self, ctx, cache_set):
        group_of_ctx, ways_of_group = self.partition
        if ctx not in group_of_ctx:
            raise ConfigError(f"context {ctx} has no partition group")
        group = group_of_ctx[ctx]
        group_tags = [
            t for t, owner in cache_set.items()
            if group_of_ctx.get(owner, -1) == group
        ]
        if len(group_tags) >= ways_of_group[group]:
            victim_tag = group_tags[0]  # LRU among the group's blocks
            return victim_tag, cache_set.pop(victim_tag)
        if len(cache_set) >= self.config.associativity:
            victim_tag, _owner = cache_set.popitem(last=False)
            self.cross_group_evictions_prevented += 1
            return victim_tag, None
        return None, None

    def access_series(self, ctx, accesses, gap, start):
        if isinstance(accesses, np.ndarray):
            accesses = accesses.tolist()
        t = int(start)
        latencies = np.empty(len(accesses), dtype=np.int64)
        for i, (set_index, tag) in enumerate(accesses):
            latency, _hit = self.access(ctx, set_index, tag, t)
            latencies[i] = latency
            t += latency + gap
        return t, latencies

    def random_traffic(self, ctx, start, duration, count, set_lo=0,
                       set_hi=None, tag_space=64):
        if count <= 0:
            return start + duration
        hi = self.config.n_sets if set_hi is None else set_hi
        if not 0 <= set_lo < hi <= self.config.n_sets:
            raise SimulationError(f"bad noise set range [{set_lo}, {hi})")
        times = np.sort(self._rng.integers(0, duration, size=count)) + start
        sets = self._rng.integers(set_lo, hi, size=count)
        tags = self._rng.integers(0, tag_space, size=count) + (ctx + 1) * 1_000_000
        for t, s, tag in zip(times, sets, tags):
            self.access(ctx, int(s), int(tag), int(t))
        return start + duration


def install_oracle_cache(machine) -> OracleCache:
    """Replace a fresh machine's L2 with an oracle on the same seed stream.

    Call before any process, channel or mitigation touches ``machine.l2``.
    """
    oracle = OracleCache(
        machine.config.l2,
        machine.tracker,
        machine.cache_miss_tap,
        derive_rng(machine.seed, "l2"),
    )
    machine.l2 = oracle
    return oracle


class FullHistoryReader:
    """Burst-channel reader that re-reads the tap's full history."""

    def __init__(self, tap):
        self._tap = tap

    def read_counts(self, dt, t0, t1):
        return self._tap.density_counts(dt, t0, t1)


class FullHistoryConflictReader:
    """Conflict-channel reader that re-reads the tap's full history."""

    def __init__(self, tap):
        self._tap = tap

    def read(self, t0, t1):
        return self._tap.records_in(t0, t1)


def install_full_history_readers(source) -> None:
    """Swap a MachineEventSource's window readers for full-history ones.

    Call after every channel is registered (``CCHunter.audit``) and
    before the first quantum.
    """
    for name, (spec, reader) in source._bursts.items():
        source._bursts[name] = (spec, FullHistoryReader(reader._tap))
    if source._conflict_spec is not None:
        source._conflict_reader = FullHistoryConflictReader(
            source.machine.cache_miss_tap
        )
