"""Conflict-miss trackers: the ideal oracle and the paper's practical design.

Both trackers answer one question at cache-miss time: *was the incoming
block prematurely evicted* — i.e. would a fully-associative LRU cache of
the same capacity still hold it? If yes, the miss is a conflict miss, the
raw material of cache-based covert timing channels.

:class:`IdealLRUConflictTracker` shadows accesses in a full LRU stack
(exact, expensive). :class:`GenerationConflictTracker` is the paper's
Figure 9 hardware: recency is approximated by four *generations*; each
cache block carries one access bit per generation, and each generation
owns a three-hash bloom filter holding the tags of blocks that were
replaced while that generation was their most recent access. A new
generation opens whenever ``threshold = capacity / 4`` distinct blocks
have been touched, discarding the oldest generation (flash-clearing its
column and bloom filter). A miss whose tag hits any live bloom filter was
evicted within roughly the last ``capacity`` distinct block touches —
a conflict miss.

The generation tracker is on the simulator's per-access hot path, so it
offers several access grades: the scalar protocol methods, vectorized
batch kernels (``on_access_batch`` / ``check_recent_eviction_batch``)
over whole key columns, :meth:`GenerationConflictTracker.series_ops` —
per-key closures with the tracker's containers pre-bound — and
:meth:`GenerationConflictTracker.replay_check_batch`. The shared cache's
fused access loop keeps bloom traffic out of the loop: it logs each
series' eviction checks, victim inserts and flash-clears by position,
and the replay resolves them afterwards in one sequential walk from the
series-start bloom words — one hash pass per series, then plain
word-and-bit tests, exactly the scalar order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.errors import HardwareError
from repro.hardware.bloom import (
    _MASK64,
    BloomFilter,
    hash_indices_batch,
    probe_words,
)
from repro.hardware.lru_stack import LRUStack


class ConflictMissTracker(Protocol):
    """What the shared cache needs from a conflict-miss tracker."""

    def on_access(self, key: int) -> None:
        """A resident block (or a just-filled block) was accessed."""

    def on_replacement(self, key: int) -> None:
        """Block ``key`` was evicted from the cache."""

    def check_recent_eviction(self, key: int) -> bool:
        """At miss time: was ``key`` recently (prematurely) evicted?"""


class IdealLRUConflictTracker:
    """Exact conflict-miss classification via a fully-associative LRU stack."""

    def __init__(self, capacity: int):
        self._stack = LRUStack(capacity)
        self.capacity = capacity

    def on_access(self, key: int) -> None:
        self._stack.touch(key)

    def on_replacement(self, key: int) -> None:
        # The ideal stack models the fully-associative cache, which has its
        # own replacement order; a set-conflict eviction does not remove the
        # block from the shadow stack.
        pass

    def check_recent_eviction(self, key: int) -> bool:
        # The incoming block missed in the real cache. If the
        # fully-associative shadow still holds it, the eviction was
        # premature: a conflict miss.
        return self._stack.would_hit(key)

    def clear(self) -> None:
        self._stack.clear()


class GenerationConflictTracker:
    """The paper's practical generation-bit + bloom-filter tracker."""

    def __init__(
        self,
        capacity: int,
        generations: int = 4,
        bloom_bits_per_generation: Optional[int] = None,
        bloom_hashes: int = 3,
    ):
        if capacity <= 0:
            raise HardwareError(f"tracker capacity must be positive: {capacity}")
        if generations < 2:
            raise HardwareError(f"need at least 2 generations, got {generations}")
        self.capacity = capacity
        self.generations = generations
        #: New-generation threshold T = capacity / generations (paper: N/4,
        #: "roughly 25% capacity in an ideal LRU stack").
        self.threshold = max(1, capacity // generations)
        bits = bloom_bits_per_generation or capacity
        self._blooms = [
            BloomFilter(bits, bloom_hashes) for _ in range(generations)
        ]
        #: Per-resident-block generation bitmask (bit g set = accessed in g).
        self._gen_bits: Dict[int, int] = {}
        #: Per-generation membership: every key whose generation bit ``g``
        #: was set since generation ``g`` last opened (superset: replaced
        #: keys linger until the generation recycles). Makes
        #: :meth:`_advance_generation` proportional to one generation's
        #: touches instead of every resident block.
        self._members: List[Set[int]] = [set() for _ in range(generations)]
        self._current = 0
        self._accessed_in_current = 0
        self.generation_advances = 0

    @property
    def current_generation(self) -> int:
        return self._current

    def on_access(self, key: int) -> None:
        bit = 1 << self._current
        mask = self._gen_bits.get(key, 0)
        if mask & bit:
            return  # already counted in this generation
        self._gen_bits[key] = mask | bit
        self._members[self._current].add(key)
        self._accessed_in_current += 1
        if self._accessed_in_current >= self.threshold:
            self._advance_generation()

    def _advance_generation(self) -> None:
        """Open a new generation, discarding the oldest.

        With ``G`` generations used as a circular buffer, the slot after the
        current one holds the *oldest* generation; flash-clear its bloom
        filter and its column in every member block's generation bits, then
        make it current (the bottom of the approximate LRU stack falls off).
        Only the cleared generation's membership set is walked — keys that
        never touched it are untouched, and members replaced since simply
        miss in ``_gen_bits`` and are skipped.
        """
        new_gen = (self._current + 1) % self.generations
        cleared_bit = ~(1 << new_gen)
        gen_bits = self._gen_bits
        for key in self._members[new_gen]:
            mask = gen_bits.get(key)
            if mask is None:
                continue  # replaced while this generation was live
            remaining = mask & cleared_bit
            if remaining:
                gen_bits[key] = remaining
            else:
                del gen_bits[key]
        self._members[new_gen] = set()
        self._blooms[new_gen].clear()
        self._current = new_gen
        self._accessed_in_current = 0
        self.generation_advances += 1

    def latest_generation_of(self, key: int) -> Optional[int]:
        """Most recent generation in which ``key`` was accessed, if resident."""
        mask = self._gen_bits.get(key, 0)
        if mask == 0:
            return None
        # Scan generations from current backwards (circularly).
        for back in range(self.generations):
            g = (self._current - back) % self.generations
            if mask & (1 << g):
                return g
        return None

    def on_replacement(self, key: int) -> None:
        """Record the replaced tag in the bloom filter of its latest generation."""
        latest = self.latest_generation_of(key)
        if latest is None:
            # Block was never touched within the live generations (its bits
            # were all flash-cleared); it is old enough that re-fetching it
            # would not be a conflict miss, so don't remember it.
            self._gen_bits.pop(key, None)
            return
        self._blooms[latest].add(key)
        del self._gen_bits[key]

    def check_recent_eviction(self, key: int) -> bool:
        """Bloom-filter probe: does any live generation remember this tag?

        A hit means the block was accessed in that generation but replaced
        to make room for a more recently accessed block — a conflict miss
        (subject to bloom false positives).
        """
        for bloom in self._blooms:
            if bloom.contains(key):
                return True
        return False

    # -------------------------------------------------------------- batch

    def on_access_batch(self, keys) -> None:
        """Sequentially exact batch of :meth:`on_access` over a key column.

        Generation advances fire mid-batch exactly where the scalar loop
        would fire them; the win is one locals-bound loop instead of a
        method call per key.
        """
        gen_bits = self._gen_bits
        gb_get = gen_bits.get
        members = self._members
        threshold = self.threshold
        cur = self._current
        bit = 1 << cur
        member_add = members[cur].add
        count = self._accessed_in_current
        for key in _key_iter(keys):
            mask = gb_get(key, 0)
            if mask & bit:
                continue
            gen_bits[key] = mask | bit
            member_add(key)
            count += 1
            if count >= threshold:
                self._accessed_in_current = count
                self._advance_generation()
                cur = self._current
                bit = 1 << cur
                member_add = members[cur].add
                count = 0
        self._accessed_in_current = count

    def check_recent_eviction_batch(self, keys) -> np.ndarray:
        """Vectorized :meth:`check_recent_eviction` over a key column.

        Valid whenever no replacement or generation advance interleaves
        the checks (the checks themselves never mutate tracker state):
        one hash pass is shared across all generations' filters.
        """
        blooms = self._blooms
        indices = blooms[0].probe_indices_batch(keys)
        out = blooms[0].contains_batch(keys, indices=indices)
        for bloom in blooms[1:]:
            out |= bloom.contains_batch(keys, indices=indices)
        return out

    def replay_check_batch(
        self,
        n: int,
        cand_pos,
        cand_keys,
        ins_pos,
        ins_gen,
        ins_keys,
        clears,
        snapshot_words,
    ) -> np.ndarray:
        """Resolve a series' deferred eviction checks and bloom inserts.

        The cache's batch kernel keeps all bloom traffic out of its
        access loop: it logs, in position order, which keys were checked
        (``cand_*``), which victim keys were inserted into which
        generation's bloom (``ins_*``), and at which positions a
        generation advance flash-cleared which bloom (``clears``, as
        ``(position, generation)``). Each position carries at most one
        of each. This method walks the logs once in position order from
        the series-start ``snapshot_words``, doing at each position what
        the scalar ``SharedCache.access`` order does: check the candidate
        against every generation, OR in the victim insert, then apply the
        flash-clear. It returns each check's verdict and leaves every
        bloom as the scalar path would: final words written back in
        place (hot loops hold the word lists) and the inserts made since
        each generation's last clear added to ``insertions``.

        The caller's generation advances have already cleared the
        blooms (and reset their ``insertions``) during the series; with
        no checks and no inserts that is the final state already.
        """
        if not cand_keys and not ins_keys:
            return np.zeros(0, dtype=bool)
        blooms = self._blooms
        n_cand = len(cand_keys)
        # One hash pass over candidates then inserts; plain-int bit
        # positions (word = i >> 6, bit = i & 63) are cheaper to unbox
        # than per-probe (word, mask) pairs.
        probes = hash_indices_batch(
            cand_keys + ins_keys, blooms[0].n_bits, blooms[0].n_hashes
        ).tolist()
        words = [list(snap) for snap in snapshot_words]
        added = [0] * self.generations
        verdict: List[bool] = []
        answer = verdict.append
        # Sentinel-terminated position streams; each clear closes a
        # segment, and within one the candidate goes first on a tie.
        cpos = [*cand_pos, n]
        ipos = [*ins_pos, n]
        ci = ii = 0
        for last, cleared in [*clears, (n - 1, None)]:
            while True:
                if cpos[ci] <= ipos[ii]:
                    if cpos[ci] > last:
                        break
                    row = probes[ci]
                    for gen_words in words:
                        for i in row:
                            if not gen_words[i >> 6] >> (i & 63) & 1:
                                break
                        else:
                            answer(True)
                            break
                    else:
                        answer(False)
                    ci += 1
                else:
                    if ipos[ii] > last:
                        break
                    g = ins_gen[ii]
                    gen_words = words[g]
                    for i in probes[n_cand + ii]:
                        gen_words[i >> 6] |= 1 << (i & 63)
                    added[g] += 1
                    ii += 1
            if cleared is not None:
                words[cleared] = [0] * len(words[cleared])
                added[cleared] = 0
        for bloom, final, count in zip(blooms, words, added):
            bloom._words[:] = final
            bloom.insertions += count
        return np.array(verdict, dtype=bool)

    def series_ops(
        self,
    ) -> Tuple[Callable[[int], None], Callable[[int], None], Callable[[int], bool]]:
        """Hot-path closures ``(on_access, on_replacement, check)``.

        Behaviorally identical to the scalar protocol methods, with the
        tracker's stable containers (generation-bit dict, membership
        sets, packed bloom words) bound into the closures. The mutable
        scalars (``_current``, ``_accessed_in_current``) are read and
        written through the instance on every call, so closure calls and
        direct method calls can interleave freely.
        """
        tracker = self
        gen_bits = self._gen_bits
        gb_get = gen_bits.get
        members = self._members
        blooms = self._blooms
        words_lists = [bloom._words for bloom in blooms]
        threshold = self.threshold
        generations = self.generations
        n_bits = blooms[0].n_bits
        n_hashes = blooms[0].n_hashes
        probe = probe_words

        def on_access(key: int) -> None:
            cur = tracker._current
            bit = 1 << cur
            mask = gb_get(key, 0)
            if mask & bit:
                return
            gen_bits[key] = mask | bit
            members[cur].add(key)
            count = tracker._accessed_in_current + 1
            if count >= threshold:
                tracker._accessed_in_current = count
                tracker._advance_generation()
            else:
                tracker._accessed_in_current = count

        def on_replacement(key: int) -> None:
            mask = gb_get(key, 0)
            if mask == 0:
                gen_bits.pop(key, None)
                return
            cur = tracker._current
            for back in range(generations):
                g = (cur - back) % generations
                if mask & (1 << g):
                    break
            words = words_lists[g]
            for w, m in probe(key & _MASK64, n_bits, n_hashes):
                words[w] |= m
            blooms[g].insertions += 1
            del gen_bits[key]

        def check(key: int) -> bool:
            pairs = probe(key & _MASK64, n_bits, n_hashes)
            for words in words_lists:
                for w, m in pairs:
                    if not words[w] & m:
                        break
                else:
                    return True
            return False

        return on_access, on_replacement, check

    # -------------------------------------------------------------- state

    def clear(self) -> None:
        for bloom in self._blooms:
            bloom.clear()
        self._gen_bits.clear()
        for g in range(self.generations):
            self._members[g] = set()
        self._current = 0
        self._accessed_in_current = 0

    @property
    def metadata_bits_per_block(self) -> int:
        """Generation bits plus 3-bit owner context, per the paper."""
        return self.generations + 3


def _key_iter(keys):
    """Plain-int iteration over a key column (ndarray or sequence)."""
    if isinstance(keys, np.ndarray):
        return keys.tolist()
    return keys
