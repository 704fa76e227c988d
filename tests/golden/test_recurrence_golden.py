"""Golden proof: frozen burst-recurrence verdicts of streaming sessions.

``recurrence.json`` holds, per stream, every verdict a
:class:`~repro.pipeline.analyzers.BurstAnalyzer` gave along it —
``detected``, ``recurrent``, ``max_likelihood_ratio``,
``burst_window_fraction`` and a sha256 of the recurrence clustering's
``cluster_labels`` — plus the analyzer's ``first_detection_quantum``
after a few observation counts (keyed by that count). The streams are
the serve traffic profiles (``make_observations``, a verdict every 8
observations, as ``repro serve`` sends them) and the membus / divider
channel sessions (a verdict every quantum). The digests were frozen from the code that
clustered every window of the horizon, so they pin recurrence
clustering bit for bit without keeping that implementation alive.

Re-freeze (only when a change is *meant* to alter recurrence verdicts):

    PYTHONPATH=src python tests/golden/test_recurrence_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.figures import run_channel_session
from repro.obs.metrics import NULL_REGISTRY
from repro.pipeline import analyzers
from repro.pipeline.session import build_session_from_specs
from repro.pipeline.sinks import CollectingSink
from repro.serve import traffic
from repro.util.bitstream import Message

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "recurrence.json")
PROFILES = ("covert", "benign")
TRAFFIC_SEEDS = (1, 2)
TRAFFIC_QUANTA = 2400
#: ``repro serve``'s default ``verdict_every``.
VERDICT_EVERY = 8
#: Observation counts after which ``first_detection_quantum`` is pinned
#: (each replays every retained prefix, so only a few are affordable):
#: the first verdict, a partial horizon, a full one, the stream's end.
FIRST_DETECTION_AT = (8, 64, 512, TRAFFIC_QUANTA)
CHANNELS = ("membus", "divider")
CHANNEL_SEEDS = (1, 2)
#: ``run_channel_session`` defaults (10 bps, background noise on) with
#: an 8-bit message, as in ``test_l2_tracker_golden.py``.
BITS = 8


class _LabelRecorder:
    """Wraps the analyzers' ``analyze_recurrence`` to keep each result's
    ``cluster_labels`` digest, in call order."""

    def __init__(self):
        self.original = analyzers.analyze_recurrence
        self.digests = []

    def __call__(self, *args, **kwargs):
        result = self.original(*args, **kwargs)
        labels = np.ascontiguousarray(result.cluster_labels, dtype=np.int64)
        self.digests.append(hashlib.sha256(labels.tobytes()).hexdigest())
        return result

    def __enter__(self):
        analyzers.analyze_recurrence = self
        return self

    def __exit__(self, *exc):
        analyzers.analyze_recurrence = self.original


def _verdict_row(verdict, labels_sha256: str) -> list:
    return [
        bool(verdict.detected),
        bool(verdict.recurrent),
        float(verdict.max_likelihood_ratio),
        float(verdict.burst_window_fraction),
        labels_sha256,
    ]


def traffic_digest(profile: str, seed: int) -> dict:
    """Every verdict a served tenant of ``profile`` would be sent."""
    session = build_session_from_specs(traffic.CHANNELS, metrics=NULL_REGISTRY)
    analyzer = session.analyzer_for("membus")
    rows = []
    first = {}
    observations = traffic.make_observations(profile, TRAFFIC_QUANTA, seed=seed)
    for i, obs in enumerate(observations, start=1):
        session.push_quantum(obs)
        if i % VERDICT_EVERY == 0:
            with _LabelRecorder() as recorder:
                verdict = analyzer.verdict()
            assert len(recorder.digests) == 1
            rows.append(_verdict_row(verdict, recorder.digests[0]))
        if i in FIRST_DETECTION_AT:
            first[str(i)] = analyzer.first_detection_quantum()
    return {"verdicts": rows, "first_detection_quantum": first}


def channel_digest(channel: str, seed: int) -> dict:
    """Every per-quantum verdict of one audited channel session."""
    sink = CollectingSink()
    with _LabelRecorder() as recorder:
        run = run_channel_session(
            channel, Message.random(BITS, seed), seed=seed, sinks=[sink],
        )
    analyzer = run.hunter.session.analyzers[0]
    assert isinstance(analyzer, analyzers.BurstAnalyzer)
    assert len(recorder.digests) == len(sink.reports)
    rows = [
        _verdict_row(report.verdict_for(analyzer.unit), digest)
        for (_quantum, report), digest in zip(sink.reports, recorder.digests)
    ]
    first = {str(run.quanta): analyzer.first_detection_quantum()}
    return {"verdicts": rows, "first_detection_quantum": first}


def _load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", TRAFFIC_SEEDS)
@pytest.mark.parametrize("profile", PROFILES)
def test_traffic_matches_golden(profile, seed):
    assert traffic_digest(profile, seed) == _load()[f"{profile}:{seed}"]


@pytest.mark.parametrize("seed", CHANNEL_SEEDS)
@pytest.mark.parametrize("channel", CHANNELS)
def test_channel_session_matches_golden(channel, seed):
    assert channel_digest(channel, seed) == _load()[f"{channel}:{seed}"]


def test_golden_covers_every_stream():
    assert sorted(_load()) == sorted(
        [f"{p}:{s}" for p in PROFILES for s in TRAFFIC_SEEDS]
        + [f"{c}:{s}" for c in CHANNELS for s in CHANNEL_SEEDS]
    )


def _freeze() -> dict:
    frozen = {
        f"{p}:{s}": traffic_digest(p, s)
        for p in PROFILES
        for s in TRAFFIC_SEEDS
    }
    frozen.update(
        (f"{c}:{s}", channel_digest(c, s))
        for c in CHANNELS
        for s in CHANNEL_SEEDS
    )
    return frozen


def _dumps(frozen: dict) -> str:
    """JSON with one verdict row per line, so a diff names the verdict."""
    streams = []
    for key in sorted(frozen):
        digest = frozen[key]
        rows = ",\n".join(
            "   " + json.dumps(row) for row in digest["verdicts"]
        )
        first = json.dumps(digest["first_detection_quantum"], sort_keys=True)
        streams.append(
            f' {json.dumps(key)}: {{\n  "first_detection_quantum": {first},'
            f'\n  "verdicts": [\n{rows}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(streams) + "\n}\n"


if __name__ == "__main__":
    frozen = _freeze()
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(_dumps(frozen))
    print(f"froze {len(frozen)} streams into {GOLDEN_PATH}")
