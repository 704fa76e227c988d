"""Golden proof: frozen L2 and conflict-tracker state of audited sessions.

``l2_tracker.json`` holds, per (channel, seed) session, what the shared
L2 and its generation tracker produced: hit / miss / conflict-miss
counters, a sha256 of the ``l2.conflict_miss`` tap's (time, replacer,
victim) columns, every generation's final bloom words (as a sha256) and
``insertions``, and ``generation_advances``. The digests were frozen from
the code that preceded the sequential replay walk, so they pin the
tracker's exact behaviour without keeping an older implementation
alive to compare against.

Re-freeze (only when a change is *meant* to alter the simulated cache):

    PYTHONPATH=src python tests/golden/test_l2_tracker_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.util.bitstream import Message

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "l2_tracker.json")
CHANNELS = ("membus", "divider", "cache")
SEEDS = (1, 2, 3)
#: ``repro detect`` defaults (10 bps, background noise on, 256 cache
#: sets) with an 8-bit message, so all nine sessions fit in seconds.
BITS = 8
BANDWIDTH_BPS = 10.0
CACHE_SETS = 256


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def session_digest(channel: str, seed: int) -> dict:
    """The L2 and tracker state one audited session leaves behind."""
    kwargs = {"n_sets_total": CACHE_SETS} if channel == "cache" else {}
    run = run_channel_session(
        channel, Message.random(BITS, seed), BANDWIDTH_BPS, seed=seed,
        **kwargs,
    )
    l2 = run.machine.l2
    tracker = run.machine.tracker
    times, reps, vics = run.machine.cache_miss_tap.records()
    return {
        "hits": int(l2.hits),
        "misses": int(l2.misses),
        "conflict_misses": int(l2.conflict_misses),
        "conflict_tap_sha256": _sha256(times, reps, vics),
        "bloom_words_sha256": [
            _sha256(np.array(b._words, dtype=np.uint64))
            for b in tracker._blooms
        ],
        "bloom_insertions": [int(b.insertions) for b in tracker._blooms],
        "generation_advances": int(tracker.generation_advances),
    }


def _load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", CHANNELS)
def test_session_matches_golden(channel, seed):
    assert session_digest(channel, seed) == _load()[f"{channel}:{seed}"]


def test_golden_covers_every_session():
    assert sorted(_load()) == sorted(
        f"{channel}:{seed}" for channel in CHANNELS for seed in SEEDS
    )


if __name__ == "__main__":
    frozen = {
        f"{channel}:{seed}": session_digest(channel, seed)
        for channel in CHANNELS
        for seed in SEEDS
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(frozen)} sessions into {GOLDEN_PATH}")
