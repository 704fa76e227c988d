"""Golden proof: frozen observable outputs of whole audited sessions.

``sessions.json`` holds, per session, sha256 digests (and small exact
values) of everything an audited session lets a caller observe: the
report, every evidence bundle, the count-type metrics, each burst
analyzer's per-quantum histograms and ``analyses`` length, every unit's
``first_detection_quantum``, the exported trace archive's columns, the
offline replay verdicts of that archive (and which units the live and
the replayed reports each detected), the labeled conflict-miss
train, the shared L2's hit / miss / conflict-miss counters and jitter
pool index, and the generation tracker's state (current generation,
generation bits, accesses in the current generation, bloom words).

Sessions cover the membus, divider and cache channels over two seeds,
with and without fault injectors, plus way-partitioned (mitigated)
membus and cache sessions. The digests were frozen from the code that
still carried a full-history tap reader and a per-access cache loop
next to the production paths, so they pin both production paths bit
for bit without keeping the older implementations alive in the
package; ``tests/sim/cache_oracle.py`` keeps those loops as oracles.
The way-partitioned entries were re-frozen once a partitioned miss
drew its latency jitter from the cache's jitter pool like every other
access (it had drawn it from the RNG the noise traffic draws from).

Re-freeze (only when a change is *meant* to alter session outputs):

    PYTHONPATH=src python tests/golden/test_sessions_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.channels.base import ChannelConfig
from repro.channels.cache import CacheCovertChannel
from repro.channels.membus import MemoryBusCovertChannel
from repro.core.detector import AuditUnit, CCHunter
from repro.faults.injectors import BitFlipInjector, DropInjector
from repro.mitigation import partition_cache_ways
from repro.obs.metrics import MetricsRegistry
from repro.sim.machine import Machine
from repro.traces import analyze_traces, export_traces, load_traces
from repro.util.bitstream import Message
from repro.workloads.noise import background_noise_processes

pytestmark = pytest.mark.parity

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "sessions.json")
CHANNELS = ("membus", "divider", "cache")
SEEDS = (11, 12)
MODES = ("clean", "inject")
#: Way-partitioned sessions: the cache channel's covert sweeps and the
#: membus session's background cache noise, both under the policy.
PARTITION_CHANNELS = ("membus", "cache")
MESSAGE_BITS, MESSAGE_SEED = 12, 7
BANDWIDTH_BPS = 100.0
MAX_QUANTA = 16

#: Monotone count-type metric families (timing histograms are not
#: deterministic and stay out).
COUNT_METRICS = (
    "cchunter_source_observations_total",
    "cchunter_source_channel_events_total",
    "cchunter_source_conflict_records_total",
    "cchunter_session_quanta_total",
    "cchunter_analyzer_windows_total",
    "cchunter_analyzer_events_total",
    "cchunter_analyzer_clamp_events_total",
    "cchunter_analyzer_entry_saturation_total",
    "cchunter_analyzer_train_events_total",
    "cchunter_analyzer_gaps_total",
    "cchunter_analyzer_flagged_faults_total",
)

SESSION_KEYS = tuple(
    f"{channel}:{seed}:{mode}"
    for channel in CHANNELS
    for seed in SEEDS
    for mode in MODES
) + tuple(
    f"{channel}:{seed}:partition"
    for channel in PARTITION_CHANNELS
    for seed in SEEDS
)


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _json_sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _injectors():
    return (DropInjector(p=0.2, seed=5), BitFlipInjector(p=0.05, seed=9))


def _partitioned_session(channel: str, seed: int, metrics):
    """``run_channel_session`` with the suspects way-partitioned apart
    before the first quantum."""
    machine = Machine(seed=seed, metrics=metrics)
    hunter = CCHunter(
        machine, track_detection_latency=True, capture_evidence=True,
        metrics=metrics,
    )
    config = ChannelConfig(
        message=Message.random(MESSAGE_BITS, MESSAGE_SEED),
        bandwidth_bps=BANDWIDTH_BPS,
    )
    if channel == "cache":
        covert = CacheCovertChannel(machine, config)
        hunter.audit(AuditUnit.CACHE)
    else:
        covert = MemoryBusCovertChannel(machine, config)
        hunter.audit(AuditUnit.MEMORY_BUS)
    covert.deploy()
    suspects = (covert.trojan_ctx, covert.spy_ctx)
    partition = partition_cache_ways(machine, suspects)
    quanta = max(1, min(covert.quanta_needed(), MAX_QUANTA))
    background_noise_processes(
        machine, n_quanta=quanta, seed=seed, avoid_contexts=suspects
    )
    machine.run_quanta(quanta)
    return machine, hunter, partition


def _archive_digest(machine) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "session.npz")
        export_traces(machine, path)
        archive = load_traces(path)
    columns = {
        "bus_lock_times": _sha256(archive.bus_lock_times),
        "cache": _sha256(
            archive.cache_times, archive.cache_replacers,
            archive.cache_victims,
        ),
    }
    for core, counts in sorted(archive.divider_wait_counts.items()):
        columns[f"divider{core}"] = _sha256(counts)
    replay = analyze_traces(archive)
    return {
        "columns": columns,
        "replay_sha256": _json_sha256(replay.to_dict()),
        "replay_detected": {v.unit: bool(v.detected) for v in replay.verdicts},
    }


@functools.lru_cache(maxsize=None)
def session_digest(key: str) -> dict:
    """Everything observable about the session named ``key``."""
    channel, seed, mode = key.split(":")
    seed = int(seed)
    metrics = MetricsRegistry()
    partition = None
    if mode == "partition":
        machine, hunter, partition = _partitioned_session(
            channel, seed, metrics
        )
    else:
        run = run_channel_session(
            channel,
            Message.random(MESSAGE_BITS, MESSAGE_SEED),
            bandwidth_bps=BANDWIDTH_BPS,
            seed=seed,
            max_quanta=MAX_QUANTA,
            track_detection_latency=True,
            injectors=_injectors() if mode == "inject" else (),
            capture_evidence=True,
            metrics=metrics,
        )
        machine, hunter = run.machine, run.hunter
    session = hunter.session
    dump = metrics.to_dict()["metrics"]
    histograms, analyses = {}, {}
    for analyzer in session.analyzers:
        hists = getattr(analyzer, "histograms", None)
        if hists is not None:
            histograms[analyzer.unit] = _sha256(np.asarray(hists))
        if getattr(analyzer, "analyses", None) is not None:
            analyses[analyzer.unit] = len(analyzer.analyses)
    l2 = machine.l2
    tracker = machine.tracker
    report = hunter.report()
    digest = {
        "report_sha256": _json_sha256(report.to_dict()),
        "live_detected": {v.unit: bool(v.detected) for v in report.verdicts},
        "evidence_sha256": {
            unit: _json_sha256(bundle.to_dict())
            for unit, bundle in session.evidence().items()
        },
        "count_metrics_sha256": _json_sha256({
            name: dump[name]["series"]
            for name in COUNT_METRICS
            if name in dump
        }),
        "burst_histograms_sha256": histograms,
        "analyses": analyses,
        "first_detection_quantum": {
            unit: session.first_detection_quantum(unit)
            for unit in session.units
        },
        "archive": _archive_digest(machine),
        "conflict_train_sha256": _sha256(*machine.cache_miss_tap.records()),
        "l2": [int(l2.hits), int(l2.misses), int(l2.conflict_misses)],
        "jitter_idx": int(l2._jitter_idx),
        "tracker": {
            "current": int(tracker._current),
            "accessed_in_current": int(tracker._accessed_in_current),
            "gen_bits_sha256": _sha256(
                np.array(sorted(tracker._gen_bits.items()), dtype=np.int64)
            ),
            "bloom_words_sha256": [
                _sha256(np.array(b._words, dtype=np.uint64))
                for b in tracker._blooms
            ],
        },
    }
    if partition is not None:
        digest["cross_group_evictions_prevented"] = int(
            partition.cross_group_evictions_prevented
        )
    return digest


@functools.lru_cache(maxsize=1)
def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def assert_matches_golden(key: str, *fields: str) -> dict:
    """Assert the named digest fields of session ``key`` equal the frozen
    ones; returns the live digest."""
    live, frozen = session_digest(key), load_golden()[key]
    for field in fields:
        assert live[field] == frozen[field], (key, field)
    return live


@pytest.mark.parametrize("key", SESSION_KEYS)
def test_session_matches_golden(key):
    assert session_digest(key) == load_golden()[key]


def test_golden_covers_every_session():
    assert sorted(load_golden()) == sorted(SESSION_KEYS)


if __name__ == "__main__":
    frozen = {key: session_digest(key) for key in SESSION_KEYS}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"froze {len(frozen)} sessions into {GOLDEN_PATH}")
