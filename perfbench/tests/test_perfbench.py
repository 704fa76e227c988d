"""The benchmark's own tests. Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import harness  # noqa: E402

harness.import_program()

import detect_load  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402


def test_same_seed_same_digest_and_counts():
    first = detect_load.run_session("membus", 1)
    second = detect_load.run_session("membus", 1)
    assert first["digest"] == second["digest"]
    assert first["stats"] == second["stats"]
    assert first["stats"]["engine_events"] > 0
    reference = harness.load_reference()["detect-burst"]
    assert first["digest"] == reference["membus:1"]


def test_calibrated_session_scales_every_quantum():
    session = detect_load.run_session("membus", 1)
    assert len(session["nominal_latencies_ms"]) == session["quanta"]
    assert all(x > 0 for x in session["nominal_latencies_ms"])
    assert session["slowdown"] > 0
    assert session["nominal_wall_s"] == pytest.approx(
        session["wall_s"] / session["slowdown"], rel=0.5)


def test_same_seed_same_plan():
    assert detect_load.plan("detect-cache", 7) == \
        detect_load.plan("detect-cache", 7)
    assert detect_load.plan("detect-cache", 7) != \
        detect_load.plan("detect-cache", 8)


def test_traced_session_matches_untraced():
    plain = detect_load.run_session("divider", 2)
    traced = detect_load.run_traced_session("divider", 2)
    assert traced["digest"] == plain["digest"]
    layers = traced["layers"]
    assert layers["sim.engine_s"] <= layers["sim.run_quanta_s"]
    assert layers["hw.tracker.replay_calls"] > 0
    # The cache is not audited here: nothing reads its conflict misses.
    assert layers["hw.tracker.useful_frac"] == 0.0
    assert 0.0 < layers["trace.coverage"] <= 1.0


def test_cache_audit_consumes_its_conflict_misses():
    traced = detect_load.run_traced_session("cache", 1)
    reference = harness.load_reference()["detect-cache"]
    assert traced["digest"] == reference["cache:1"]
    layers = traced["layers"]
    assert layers["pipeline.conflict_records"] > 0
    assert layers["hw.tracker.useful_frac"] > 0.0


def test_perturbed_digest_fails_and_exits_nonzero(tmp_path, capsys,
                                                  monkeypatch):
    reference = harness.load_reference()
    for key in reference["detect-burst"]:
        reference["detect-burst"][key] = "0" * 64
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(harness, "REFERENCE_PATH", str(path))
    code = run.main(["--workload", "detect-burst", "--seed", "1",
                     "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_traced_run_reports_every_per_layer_metric(capsys):
    code = run.main(["--workload", "detect-burst", "--seed", "1",
                     "--seconds", "0.1", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(harness.metric_units("per_layer"))
    assert result["metrics"]["hw.tracker.useful_frac"]["value"] == 0.0


class _FakeClient:
    """Answers every 8th observation with a verdict frame covering its
    group, except those at or past ``withhold_from``."""

    def __init__(self, tenant, withhold_from):
        self.tenant = tenant
        self.withhold_from = withhold_from

    async def send(self, obs):
        q = self.tenant.sent
        if (q + 1) % serve_load.VERDICT_EVERY == 0 and q < self.withhold_from:
            self.tenant.on_verdict(types.SimpleNamespace(quantum=q))


def test_unanswered_group_counts_as_failed(monkeypatch):
    monkeypatch.setattr(serve_load, "STALL_S", 0.05)
    tenants = [serve_load.Tenant(f"t{t}", "covert", range(64))
               for t in range(2)]
    tenants[0].client = _FakeClient(tenants[0], withhold_from=64)
    # The second tenant's last group of 8 never gets a verdict frame.
    tenants[1].client = _FakeClient(tenants[1], withhold_from=56)
    stats = asyncio.run(serve_load._phase(tenants, 64, None))
    assert stats["missing"] == 8
    assert not serve_load.rung_passes(stats)
    result = {"tenants": tenants, "scraped": {}, "problems": [],
              "phases": {"closed": stats}}
    assert serve_load._failures(result) == (128, 8)


def _canned_tenants(rate, knee, n=400):
    """Two tenants whose verdicts arrive 20 ms after each observation is
    due while ``rate`` is at most ``knee``; above it a backlog grows by
    half a second per second."""
    tenants = []
    for t in range(2):
        tenant = serve_load.Tenant(f"t{t}", "covert", [])
        per_tenant = rate / 2
        for q in range(n):
            due = q / per_tenant
            tenant.due.append(due)
            tenant.late_ms.append(0.0)
            backlog = 0.5 * due if rate > knee else 0.0
            tenant.verdict_at.append(due + 0.020 + backlog)
            tenant.verdict_q.append(q)
        tenant.sent = n
        tenants.append(tenant)
    return tenants


def test_ladder_picks_expected_rung_on_canned_trace():
    knee = 700.0

    async def probe(rate):
        return serve_load.phase_stats(_canned_tenants(rate, knee), 0, 400,
                                      until=1e9)

    sustained = asyncio.run(serve_load.climb_ladder(probe, 600.0, 2400.0, 6))
    # 1500, 1050, 825, 712.5 fail; 656.25 and 684.375 pass.
    assert sustained == pytest.approx(684.375)


def test_growing_backlog_fails_a_rung():
    below = serve_load.phase_stats(_canned_tenants(600, 700), 0, 400, 1e9)
    above = serve_load.phase_stats(_canned_tenants(800, 700), 0, 400, 1e9)
    assert serve_load.rung_passes(below)
    assert above["growing"] and not serve_load.rung_passes(above)
