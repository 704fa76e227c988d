"""SloTracker against the linear-scan oracle of ``slo_oracle.py``.

Random non-decreasing streams over two tenants and every default
objective drive both sides; every query — ``burn_rate``, ``evaluate``'s
alert documents, ``firing`` and ``tenant_snapshot`` — must come out
identical, float for float. Bursts long enough to pass the 4096-sample
cap, gaps longer than the 600 s horizon, queries at a ``now`` earlier
than the newest sample and out-of-order timestamps are all in the op
alphabet; the fixed examples and the direct tests below pin each of
them even if the random draw misses one.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import NULL_REGISTRY
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    DEFAULT_RULES,
    BurnRateRule,
    SloTracker,
)

from tests.obs.slo_oracle import MAX_SAMPLES, SloOracle

TENANTS = ("a", "b")
OBJECTIVES = tuple(obj.name for obj in DEFAULT_OBJECTIVES)
#: Round steps, so window cutoffs land exactly on sample times.
STEPS = (0.0, 0.001, 0.25, 0.5, 1.0, 2.5, 10.0, 30.0)
GAPS = (0.5, 30.0, 120.0, 599.0, 600.0, 601.0, 1500.0)
BACKS = (0.0, 0.5, 10.0, 30.0, 120.0, 1000.0)
WINDOWS = (0.5, 10.0, 30.0, 40.0, 120.0, 600.0, 5000.0)
TIGHT_RULES = (
    BurnRateRule("burn", short_window_s=10.0, long_window_s=40.0,
                 threshold=2.0, min_samples=4),
    BurnRateRule("slow", short_window_s=40.0, long_window_s=120.0,
                 threshold=1.0, min_samples=4),
)
RULESETS = {"default": DEFAULT_RULES, "tight": TIGHT_RULES, "none": ()}

tenant = st.sampled_from(TENANTS)
objective = st.sampled_from(OBJECTIVES)
back = st.sampled_from(BACKS)
ops = st.one_of(
    # n samples on one key, clock stepping `step` after each; a sample
    # is bad when its index is a multiple of `bad_every` (0: all good).
    st.tuples(
        st.just("burst"), tenant, objective,
        st.integers(1, 300) | st.integers(MAX_SAMPLES - 50, MAX_SAMPLES + 600),
        st.sampled_from(STEPS), st.integers(0, 5),
    ),
    st.tuples(st.just("gap"), st.sampled_from(GAPS)),
    st.tuples(st.just("evaluate"), tenant, back),
    st.tuples(st.just("snapshot"), tenant, back),
    st.tuples(
        st.just("burn"), tenant, objective, st.sampled_from(WINDOWS), back
    ),
    st.tuples(st.just("late"), tenant, objective, back),
    st.tuples(st.just("forget"), tenant),
)

BIG = MAX_SAMPLES + 300


def run_differential(ruleset, program):
    rules = RULESETS[ruleset]
    clock = [0.0]
    slo = SloTracker(
        objectives=DEFAULT_OBJECTIVES, rules=rules, metrics=NULL_REGISTRY,
        clock=lambda: clock[0],
    )
    oracle = SloOracle(objectives=DEFAULT_OBJECTIVES, rules=rules)

    def same_snapshots(at):
        for who in TENANTS:
            assert slo.tenant_snapshot(who, now=at) == (
                oracle.tenant_snapshot(who, at)
            )
            assert slo.max_burn_rate(who, now=at) == (
                oracle.tenant_snapshot(who, at)["max_burn_rate"]
            )

    for op in program:
        kind = op[0]
        now = clock[0]
        if kind == "burst":
            _, who, obj, n, step, bad_every = op
            for i in range(n):
                bad = bad_every > 0 and i % bad_every == 0
                slo.observe(who, obj, bad, now=clock[0])
                oracle.observe(who, obj, bad, clock[0])
                clock[0] += step
            same_snapshots(clock[0])
        elif kind == "gap":
            clock[0] += op[1]
        elif kind == "evaluate":
            at = now - op[2]
            assert slo.evaluate(op[1], now=at) == oracle.evaluate(op[1], at)
            for who in TENANTS:
                assert slo.firing(who) == oracle.firing(who)
        elif kind == "snapshot":
            same_snapshots(now - op[2])
        elif kind == "burn":
            _, who, obj, window_s, b = op
            assert slo.burn_rate(who, obj, window_s, now=now - b) == (
                oracle.burn_rate(who, obj, window_s, now - b)
            )
        elif kind == "late":
            _, who, obj, b = op
            at = now - b
            window = oracle.samples.get((who, obj))
            if window and at < window[-1][0]:
                with pytest.raises(ValueError, match="non-decreasing"):
                    slo.observe(who, obj, True, now=at)
            else:
                slo.observe(who, obj, True, now=at)
                oracle.observe(who, obj, True, at)
            same_snapshots(now)
        elif kind == "forget":
            slo.forget(op[1])
            oracle.forget(op[1])
            same_snapshots(now)
    assert slo.alerts_fired == oracle.alerts_fired
    same_snapshots(clock[0])
    for who in TENANTS:
        assert slo.evaluate(who, now=clock[0]) == (
            oracle.evaluate(who, clock[0])
        )
        assert slo.firing(who) == oracle.firing(who)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        ruleset=st.sampled_from(sorted(RULESETS)),
        program=st.lists(ops, min_size=1, max_size=12),
    )
    # Past the cap on one key, twice (so the dead prefix is compacted),
    # with alerts firing, then queried at a `now` before the newest sample.
    @example(ruleset="default", program=[
        ("burst", "a", "shed", BIG, 0.001, 2),
        ("evaluate", "a", 0.0),
        ("burst", "a", "shed", BIG, 0.001, 0),
        ("evaluate", "a", 0.5),
        ("snapshot", "a", 0.5),
        ("burn", "a", "shed", 0.5, 0.5),
    ])
    # Alerts fire, a horizon-long gap drains them, they re-trip; the
    # prune after the gap compacts the whole old window.
    @example(ruleset="tight", program=[
        ("burst", "a", "health", 200, 0.25, 1),
        ("evaluate", "a", 0.0),
        ("gap", 1500.0),
        ("burst", "a", "health", 1, 0.0, 0),
        ("evaluate", "a", 0.0),
        ("burst", "a", "health", 30, 0.5, 1),
        ("evaluate", "a", 0.0),
    ])
    # Out-of-order samples are refused and change nothing; a forgotten
    # tenant's key may restart anywhere.
    @example(ruleset="default", program=[
        ("burst", "b", "verdict_latency", 50, 1.0, 3),
        ("late", "b", "verdict_latency", 10.0),
        ("late", "b", "verdict_latency", 0.0),
        ("forget", "b"),
        ("late", "b", "verdict_latency", 1000.0),
        ("evaluate", "b", 0.0),
    ])
    # No rules: a zero horizon keeps only samples at the newest time.
    @example(ruleset="none", program=[
        ("burst", "a", "shed", 20, 0.0, 2),
        ("burst", "a", "shed", 20, 0.5, 2),
        ("snapshot", "a", 30.0),
    ])
    def test_matches_linear_scan(self, ruleset, program):
        run_differential(ruleset, program)


def fresh(rules=DEFAULT_RULES):
    return SloTracker(
        objectives=DEFAULT_OBJECTIVES, rules=rules, metrics=NULL_REGISTRY,
        clock=lambda: 0.0,
    )


class TestWindowStorage:
    def test_cap_counts_only_newest_samples(self):
        slo = fresh()
        for i in range(MAX_SAMPLES + 904):
            slo.observe("t", "shed", i < 904, now=i * 0.001)
        snap = slo.tenant_snapshot("t", now=10.0)["objectives"]["shed"]
        assert snap["samples"] == MAX_SAMPLES
        assert snap["bad_fraction"] == 0.0

    def test_dead_prefix_is_compacted(self):
        slo = fresh()
        for i in range(5 * MAX_SAMPLES):
            slo.observe("t", "shed", False, now=i * 0.001)
        window = slo._samples[("t", "shed")]
        assert len(window.times) - window.start == MAX_SAMPLES
        assert len(window.times) <= 2 * MAX_SAMPLES
        assert len(window.bad_cum) == len(window.times) + 1

    def test_horizon_gap_prunes_everything_but_the_newest(self):
        slo = fresh()
        for i in range(100):
            slo.observe("t", "shed", True, now=float(i))
        slo.observe("t", "shed", False, now=100.0 + 700.0)
        snap = slo.tenant_snapshot("t", now=800.0)["objectives"]["shed"]
        assert snap["samples"] == 1 and snap["bad_fraction"] == 0.0
        assert slo._samples[("t", "shed")].times == [800.0]

    def test_out_of_order_sample_rejected_without_effect(self):
        slo = fresh()
        for t in (1.0, 2.0, 2.0, 3.0):
            slo.observe("t", "shed", True, now=t)
        with pytest.raises(ValueError, match="non-decreasing"):
            slo.observe("t", "shed", False, now=2.5)
        assert slo.burn_rate("t", "shed", 30.0, now=3.0) == 20.0
        # Order is per key: another objective may start earlier.
        slo.observe("t", "health", False, now=0.5)

    def test_query_before_newest_sample_counts_later_samples(self):
        slo, oracle = fresh(), SloOracle()
        for i in range(40):
            slo.observe("t", "shed", i % 2 == 0, now=float(i))
            oracle.observe("t", "shed", i % 2 == 0, float(i))
        for at in (0.0, 10.0, 25.0, 39.0):
            for window_s in (1.0, 10.0, 30.0):
                assert slo.burn_rate("t", "shed", window_s, now=at) == (
                    oracle.burn_rate("t", "shed", window_s, at)
                )

    def test_forget_drops_every_trace_of_a_tenant(self):
        slo = fresh(TIGHT_RULES)
        for who in ("gone", "kept"):
            for i in range(10):
                slo.observe(who, "shed", True, now=float(i))
            assert slo.evaluate(who, now=10.0)
        slo.forget("gone")
        assert not [key for key in slo._samples if key[0] == "gone"]
        assert slo.firing("gone") == []
        assert slo.tenant_snapshot("gone", now=10.0)["alerts_total"] == 0
        assert slo.firing("kept") and slo.alerts_fired == 4
