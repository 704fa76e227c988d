"""Cache way-partitioning: remove the cache channel's medium.

Partition-Locking-style defenses (Wang & Lee) assign cache ways to
context groups so one group's fills can never evict another group's
blocks. Applied after CC-Hunter identifies a suspect pair, partitioning
eliminates cross-group conflict misses — the cache channel's only
signal — at the cost of reduced effective capacity per group.

The partition is a policy of the shared cache itself
(:attr:`~repro.sim.resources.cache.SharedCache.partition`): each
context belongs to a group and each group owns a number of ways, and a
miss may only evict a block owned by its own group once that group fills
its ways in the set. Mitigated runs therefore stay on the cache's batch
kernel and step its latency-jitter pool like every other access;
:meth:`_WayPartition.remove` clears the policy.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigError
from repro.sim.machine import Machine
from repro.sim.resources.cache import SharedCache


class _WayPartition:
    """Handle on a way partition installed on a SharedCache."""

    def __init__(self, cache: SharedCache, group_of_ctx: Dict[int, int],
                 ways_of_group: Dict[int, int]):
        total_ways = sum(ways_of_group.values())
        if total_ways != cache.config.associativity:
            raise ConfigError(
                f"group ways sum to {total_ways}, cache has "
                f"{cache.config.associativity}"
            )
        self.cache = cache
        self.group_of_ctx = dict(group_of_ctx)
        self.ways_of_group = dict(ways_of_group)
        cache.partition = (self.group_of_ctx, self.ways_of_group)

    @property
    def cross_group_evictions_prevented(self) -> int:
        """Full-set misses that evicted another group's block."""
        return self.cache.cross_group_evictions_prevented

    def remove(self) -> None:
        """Restore unpartitioned replacement."""
        self.cache.partition = None


def partition_cache_ways(
    machine: Machine,
    suspect_contexts: Sequence[int],
    suspect_ways: Optional[int] = None,
) -> _WayPartition:
    """Quarantine each suspect context into its own private cache ways.

    Every suspect gets a *separate* group of ``suspect_ways`` ways
    (default: associativity / 4), so the suspects can no longer evict
    each other's blocks — which is the cache channel's only signal — nor
    anyone else's; the remaining contexts share the leftover ways.
    """
    suspects = list(dict.fromkeys(suspect_contexts))
    if not suspects:
        raise ConfigError("need at least one suspect context")
    assoc = machine.config.l2.associativity
    ways = suspect_ways if suspect_ways is not None else max(1, assoc // 4)
    remaining = assoc - ways * len(suspects)
    if ways < 1 or remaining < 1:
        raise ConfigError(
            f"cannot give {len(suspects)} suspects {ways} ways each out of "
            f"{assoc} and leave any for the rest"
        )
    group_of_ctx = {}
    ways_of_group = {}
    for i, ctx in enumerate(suspects):
        group_of_ctx[ctx] = i
        ways_of_group[i] = ways
    shared_group = len(suspects)
    ways_of_group[shared_group] = remaining
    for ctx in range(machine.config.n_contexts):
        group_of_ctx.setdefault(ctx, shared_group)
    return _WayPartition(machine.l2, group_of_ctx, ways_of_group)
