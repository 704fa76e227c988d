"""How burst analyzers reach recurrence clustering.

``perfbench`` times ``core.recurrence`` by wrapping the
``analyze_recurrence`` name in :mod:`repro.pipeline.analyzers`; if an
analyzer bound the function some other way, that layer would silently
read 0 s. The verdict's recurrence call is also its own profiler stage,
``analyzer.recurrence``, under ``session.verdicts``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.profile import disable_profiling, enable_profiling
from repro.pipeline import analyzers
from repro.pipeline.session import build_session_from_specs
from repro.serve import traffic


def _covert_session(n_quanta: int = 16, eager: bool = False):
    session = build_session_from_specs(
        traffic.CHANNELS,
        metrics=NULL_REGISTRY,
        track_detection_latency=eager,
    )
    for obs in traffic.make_observations("covert", n_quanta, seed=1):
        session.push_quantum(obs)
    return session, session.analyzer_for("membus")


@pytest.fixture
def recurrence_calls(monkeypatch):
    calls = []
    original = analyzers.analyze_recurrence

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(analyzers, "analyze_recurrence", counting)
    return calls


class TestModuleGlobalHook:
    def test_verdict_calls_through_module_global(self, recurrence_calls):
        _session, analyzer = _covert_session()
        assert analyzer.verdict().detected
        assert len(recurrence_calls) == 1

    def test_first_detection_calls_through_module_global(
        self, recurrence_calls
    ):
        _session, analyzer = _covert_session()
        assert analyzer.first_detection_quantum() is not None
        assert recurrence_calls

    def test_hook_result_is_what_the_verdict_reports(self, monkeypatch):
        _session, analyzer = _covert_session()
        original = analyzers.analyze_recurrence

        def not_recurrent(*args, **kwargs):
            return dataclasses.replace(
                original(*args, **kwargs), recurrent=False
            )

        monkeypatch.setattr(analyzers, "analyze_recurrence", not_recurrent)
        assert not analyzer.verdict().detected


class TestRecurrenceStage:
    def test_verdicts_stage_splits_out_recurrence(self):
        profiler = enable_profiling()
        try:
            _covert_session(n_quanta=4, eager=True)
        finally:
            disable_profiling()
        paths = set(profiler.stats())
        assert ("session.verdicts", "analyzer.recurrence[membus]") in paths
