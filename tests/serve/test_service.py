"""DetectionService: multiplexing, backpressure, shedding, lifecycle.

The chaos acceptance drill at the bottom is the PR's contract: under
frame drops, stalls, garbage, and 2x-over-capacity load the service
never raises out of the event loop, sheds with bounded queues, reports
affected tenants DEGRADED (never silently OK), and a clean tenant's
verdicts stay bit-identical to an in-process DetectionSession.
"""

import asyncio

import pytest

from repro.errors import ServeError, ServeUnavailableError
from repro.faults.wire import FlakyFrameLink
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import BurnRateRule, SloObjective, SloTracker
from repro.obs.tracing import (
    disable_tracing,
    enable_tracing,
    get_recorder,
    new_trace_id,
)
from repro.pipeline import build_session_from_specs
from repro.serve import (
    DetectionService,
    ServeClient,
    ServeConfig,
    stream_tenant,
)
from repro.serve.traffic import (
    CHANNELS,
    benign_observations,
    covert_observations,
)


def run(coro):
    """Run a scenario and fail the test on any unhandled loop error."""
    failures = []

    async def wrapper():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, ctx: failures.append(ctx.get("message", str(ctx)))
        )
        return await coro

    result = asyncio.run(wrapper())
    assert not failures, f"unhandled event-loop errors: {failures}"
    return result


def reference_report(observations):
    session = build_session_from_specs(CHANNELS)
    for obs in observations:
        session.push_quantum(obs)
    return session.close()


class TestCleanPath:
    def test_covert_and_benign_tenants(self):
        async def scenario():
            service = DetectionService(ServeConfig(verdict_every=4))
            host, port = await service.start()
            try:
                cov, ben = await asyncio.gather(
                    stream_tenant(
                        host, port, "cov", CHANNELS,
                        covert_observations(40, seed=1),
                    ),
                    stream_tenant(
                        host, port, "ben", CHANNELS,
                        benign_observations(40, seed=2),
                    ),
                )
            finally:
                stats = await service.stop()
            return cov, ben, stats

        cov, ben, stats = run(scenario())
        assert cov.report.any_detected and cov.report.health == "ok"
        assert not ben.report.any_detected and ben.report.health == "ok"
        assert cov.goodbye.received == 40 and cov.goodbye.shed == 0
        # Periodic verdict frames arrived (coalesced: the outbox keeps
        # only the newest, so the count is load-dependent but >= 1).
        assert cov.verdicts
        assert cov.verdicts[-1].verdicts[0].detected
        assert stats["cov"].any_detected and not stats["ben"].any_detected

    def test_clean_tenant_bit_identical_to_in_process(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                result = await stream_tenant(
                    host, port, "clean", CHANNELS,
                    covert_observations(32, seed=9),
                )
            finally:
                await service.stop()
            return result

        result = run(scenario())
        assert result.report == reference_report(
            covert_observations(32, seed=9)
        )

    def test_serve_metrics_populated(self):
        registry = MetricsRegistry()

        async def scenario():
            service = DetectionService(ServeConfig(), metrics=registry)
            host, port = await service.start()
            try:
                await stream_tenant(
                    host, port, "m", CHANNELS,
                    benign_observations(10, seed=4),
                )
            finally:
                await service.stop()

        run(scenario())
        text = registry.render_prometheus()
        assert "cchunter_serve_connections_total 1" in text
        assert "cchunter_serve_folded_total 10" in text
        assert "cchunter_serve_obs_total 10" in text


class TestAdmissionAndLifecycle:
    def test_tenant_limit_refuses_with_unavailable(self):
        async def scenario():
            service = DetectionService(ServeConfig(max_tenants=1))
            host, port = await service.start()
            try:
                await stream_tenant(
                    host, port, "first", CHANNELS,
                    benign_observations(4, seed=1),
                )
                # first is now idle but still known; second is refused.
                with pytest.raises(ServeUnavailableError, match="limit"):
                    await stream_tenant(
                        host, port, "second", CHANNELS,
                        benign_observations(4, seed=2),
                    )
            finally:
                await service.stop()

        run(scenario())

    def test_duplicate_live_tenant_refused(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                first = ServeClient(host, port)
                await first.connect("dup", CHANNELS)
                second = ServeClient(host, port)
                with pytest.raises(ServeUnavailableError, match="live"):
                    await second.connect("dup", CHANNELS)
                await first.aclose()
                await second.aclose()
            finally:
                await service.stop()

        run(scenario())

    def test_reconnect_resumes_resident_session(self):
        """A tenant that vanishes mid-stream (no bye) can reconnect and
        finish; the combined stream matches one in-process session."""
        observations = list(covert_observations(40, seed=5))

        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                first = ServeClient(host, port)
                await first.connect("resume", CHANNELS)
                for obs in observations[:20]:
                    await first.send(obs)
                await first.aclose()  # vanish without bye
                await asyncio.sleep(0.05)  # let the server notice EOF
                result = await stream_tenant(
                    host, port, "resume", CHANNELS, observations[20:]
                )
            finally:
                await service.stop()
            return result

        result = run(scenario())
        assert result.goodbye.received == 40
        assert result.report == reference_report(observations)

    def test_reconnect_with_different_channels_refused(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                first = ServeClient(host, port)
                await first.connect("shape", CHANNELS)
                await first.aclose()
                await asyncio.sleep(0.05)
                with pytest.raises(
                    ServeUnavailableError, match="different channels"
                ):
                    await stream_tenant(
                        host, port, "shape", CHANNELS[:1] * 0 or (
                            CHANNELS[0].__class__(
                                name="other", kind=CHANNELS[0].kind, dt=500
                            ),
                        ),
                        benign_observations(2, seed=0),
                    )
            finally:
                await service.stop()

        run(scenario())

    def test_lru_eviction_of_disconnected_tenant(self):
        async def scenario():
            service = DetectionService(
                ServeConfig(max_resident_sessions=1)
            )
            host, port = await service.start()
            try:
                first = ServeClient(host, port)
                await first.connect("old", CHANNELS)
                for obs in benign_observations(4, seed=1):
                    await first.send(obs)
                await first.aclose()
                await asyncio.sleep(0.05)
                # Admitting a second tenant forces eviction of "old".
                await stream_tenant(
                    host, port, "new", CHANNELS,
                    benign_observations(4, seed=2),
                )
                evicted = service.tenant_stats("old")
                # Reconnecting the evicted tenant rebuilds a fresh
                # session and marks the history loss in its verdicts.
                revived = await stream_tenant(
                    host, port, "old", CHANNELS,
                    benign_observations(4, seed=3),
                )
            finally:
                await service.stop()
            return evicted, revived

        evicted, revived = run(scenario())
        assert not evicted.resident
        assert revived.report.health == "degraded"
        notes = " ".join(
            note
            for verdict in revived.report.verdicts
            for note in verdict.notes
        )
        assert "evicted" in notes

    def test_idle_tenant_expires(self):
        async def scenario():
            service = DetectionService(ServeConfig(idle_expiry=0.2))
            host, port = await service.start()
            try:
                client = ServeClient(host, port)
                await client.connect("sleepy", CHANNELS)
                for obs in benign_observations(3, seed=1):
                    await client.send(obs)
                await client.aclose()
                await asyncio.sleep(0.45)
                with pytest.raises(ServeError, match="unknown tenant"):
                    service.tenant_stats("sleepy")
            finally:
                await service.stop()

        run(scenario())

    def test_expired_tenant_leaves_no_slo_state(self):
        # A zero latency bar makes every verdict bad, so the tenant has
        # windows, a firing rule and an alert count before it expires.
        slo = SloTracker(
            objectives=(
                SloObjective("verdict_latency", latency_threshold_s=0.0),
                SloObjective("shed"),
                SloObjective("health"),
            ),
            rules=(BurnRateRule("burn", short_window_s=10.0,
                                long_window_s=40.0, threshold=1.0,
                                min_samples=1),),
            metrics=MetricsRegistry(),
        )

        async def scenario():
            service = DetectionService(
                ServeConfig(idle_expiry=0.2, verdict_every=1), slo=slo
            )
            host, port = await service.start()
            try:
                client = ServeClient(host, port)
                await client.connect("sleepy", CHANNELS)
                for obs in benign_observations(3, seed=1):
                    await client.send(obs)
                await asyncio.sleep(0.05)  # let folds settle
                before = slo.tenant_snapshot("sleepy")
                await client.aclose()
                await asyncio.sleep(0.45)
            finally:
                await service.stop()
            return before

        before = run(scenario())
        assert before["alerts_total"] >= 1 and before["firing"]
        assert not [key for key in slo._samples if key[0] == "sleepy"]
        assert slo.firing("sleepy") == []
        snap = slo.tenant_snapshot("sleepy")
        assert snap["alerts_total"] == 0
        assert all(
            o["samples"] == 0 for o in snap["objectives"].values()
        )

    def test_stop_pushes_goodbye_to_connected_tenants(self):
        """Supervised shutdown: a mid-stream tenant still gets its final
        verdicts."""

        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            client = ServeClient(host, port)
            await client.connect("midstream", CHANNELS)
            for obs in benign_observations(6, seed=8):
                await client.send(obs)
            await asyncio.sleep(0.05)  # let folds settle
            await service.stop()
            goodbye = await asyncio.wait_for(client._goodbye, timeout=2.0)
            await client.aclose()
            return goodbye

        goodbye = run(scenario())
        assert goodbye.received == 6
        assert [v.unit for v in goodbye.report.verdicts] == [
            "membus"
        ]

    def test_stop_is_idempotent(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            await service.start()
            first = await service.stop()
            second = await service.stop()
            return first, second

        first, second = run(scenario())
        assert first == second == {}


class TestSloSpan:
    def test_each_verdict_traces_its_slo_stage(self):
        """``serve.slo`` follows every ``serve.analyze`` of the tenant,
        under the same trace id, instead of hiding in the fold batch."""
        trace_id = new_trace_id()

        async def scenario():
            service = DetectionService(ServeConfig(verdict_every=4))
            host, port = await service.start()
            try:
                await stream_tenant(
                    host, port, "traced", CHANNELS,
                    covert_observations(16, seed=3), trace_id=trace_id,
                )
            finally:
                await service.stop()
            return get_recorder().to_dicts()

        enable_tracing(capacity=4096)
        try:
            spans = run(scenario())
        finally:
            disable_tracing()
        analyze = [s for s in spans if s["name"] == "serve.analyze"]
        slo = [s for s in spans if s["name"] == "serve.slo"]
        assert len(slo) == len(analyze) >= 1
        for before, after in zip(analyze, slo):
            assert after["start_s"] >= before["start_s"] + before["duration_s"]
            assert after["attrs"]["tenant"] == "traced"
            assert after["attrs"]["trace_id"] == trace_id


class TestDegradedPaths:
    def test_dropped_frames_surface_as_lost_and_degraded(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                link = FlakyFrameLink("drop:0.2", seed=7)
                result = await stream_tenant(
                    host, port, "lossy", CHANNELS,
                    covert_observations(60, seed=3), link=link,
                )
            finally:
                stats = await service.stop()
            return link, result, stats

        link, result, stats = run(scenario())
        assert link.dropped > 0
        assert result.report.health == "degraded"
        assert result.report.any_detected  # detection survives loss
        assert stats["lossy"].lost > 0
        notes = " ".join(
            n for v in result.report.verdicts for n in v.notes
        )
        assert "lost" in notes

    def test_garbage_frames_answered_not_fatal(self):
        async def scenario():
            service = DetectionService(ServeConfig())
            host, port = await service.start()
            try:
                link = FlakyFrameLink("garbage:0.3", seed=11)
                result = await stream_tenant(
                    host, port, "garbled", CHANNELS,
                    benign_observations(40, seed=6), link=link,
                )
            finally:
                await service.stop()
            return link, result

        link, result = run(scenario())
        assert link.garbled > 0
        assert result.errors, "expected non-fatal error frames"
        assert all(not e.fatal for e in result.errors)
        assert all(e.code == "decode" for e in result.errors)
        # The stream survived to a clean goodbye despite the garbage.
        assert result.goodbye.received > 0

    def test_overload_sheds_bounded_and_degraded(self):
        cfg = ServeConfig(
            queue_capacity=8,
            initial_credits=8,
            credit_batch=1,
            overload_queue_fraction=0.5,
            shed_sample_every=2,
            fold_batch=2,
            shards=1,
        )

        async def scenario():
            service = DetectionService(cfg)
            host, port = await service.start()
            try:
                results = await asyncio.gather(
                    *(
                        stream_tenant(
                            host, port, f"t{i}", CHANNELS,
                            covert_observations(60, seed=i),
                        )
                        for i in range(6)
                    )
                )
            finally:
                await service.stop()
            return results

        results = run(scenario())
        shed_total = sum(r.goodbye.shed for r in results)
        assert shed_total > 0, "overload scenario did not shed"
        for result in results:
            assert result.goodbye.received + result.goodbye.shed == 60
            if result.goodbye.shed:
                # Shedding is never silent: health degrades and the
                # notes name the shed gaps.
                assert result.report.health == "degraded"
                notes = " ".join(
                    n for v in result.report.verdicts for n in v.notes
                )
                assert "shed" in notes


@pytest.mark.resilience
class TestChaosAcceptance:
    def test_chaos_drill(self):
        """20% drops + stalls + garbage on flaky tenants, 2x-capacity
        load, one clean tenant — the acceptance contract."""
        # Credits are the binding backpressure here: the credit window
        # (8) sits below the sampling-shed threshold (16), so an honest
        # client is throttled rather than shed — shedding is reserved
        # for clients that outrun their credits (covered separately in
        # TestDegradedPaths).
        cfg = ServeConfig(
            queue_capacity=32,
            initial_credits=8,
            credit_batch=2,
            overload_queue_fraction=0.5,
            shed_sample_every=2,
            fold_batch=4,
            shards=2,
            max_tenants=32,
        )
        clean_obs = list(covert_observations(48, seed=100))

        async def scenario():
            service = DetectionService(cfg)
            host, port = await service.start()
            try:
                flaky = [
                    stream_tenant(
                        host, port, f"flaky{i}", CHANNELS,
                        covert_observations(48, seed=i),
                        link=FlakyFrameLink(
                            "drop:0.2,stall:0.05:0.001,garbage:0.05",
                            seed=i,
                        ),
                    )
                    for i in range(8)
                ]
                clean = stream_tenant(
                    host, port, "clean", CHANNELS, clean_obs
                )
                results = await asyncio.gather(clean, *flaky)
            finally:
                stats = await service.stop()
            return results, stats

        results, stats = run(scenario())
        clean_result, flaky_results = results[0], results[1:]

        # The clean tenant is bit-identical to an in-process session.
        assert clean_result.report == reference_report(clean_obs)
        assert clean_result.goodbye.shed == 0

        # Every impaired tenant is DEGRADED, never silently OK.
        for result in flaky_results:
            impaired = (
                result.goodbye.shed > 0
                or stats[result.tenant].lost > 0
            )
            if impaired:
                assert result.report.health == "degraded"
            # Accounting is complete: nothing silently vanished
            # (frames lost in transit are counted by the server).
            assert (
                result.goodbye.received
                + result.goodbye.shed
                + stats[result.tenant].lost
                >= 44
            )
        assert any(
            stats[r.tenant].lost > 0 for r in flaky_results
        ), "drop injection never triggered"
