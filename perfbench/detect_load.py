"""The ``detect-burst`` and ``detect-cache`` workloads.

Each session is what ``repro detect`` runs with its defaults: a 32-bit
message at 10 bps with the background noise processes on, audited by
CC-Hunter through ``repro.analysis.figures.run_channel_session``, then
closed for its final report. Sessions come from a fixed pool of
(channel, session seed) pairs whose known answers are frozen in
``reference.json``; the workload seed picks the order in which the run
walks the pool.
"""

from __future__ import annotations

import gc
import random
import time
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from harness import (
    BenchError,
    detect_setup_s,
    digest,
    log,
    median,
    percentile,
    report_payload,
    self_peak_rss_mb,
)
from hostspeed import NOMINAL_S, kernel
from layers import (
    Tracer,
    pipeline_metrics,
    trace_analyzers,
    trace_recurrence,
    trace_session,
)

BITS = 32
BANDWIDTH_BPS = 10.0
#: ``repro detect --cache-sets`` default.
CACHE_SETS = 256

#: Per-layer metrics of layers a detect session never runs: there is no
#: service and no load generator. Reported as explicit zeros.
NOT_RUN = (
    "serve.client.send_s", "serve.wire.encode_s", "serve.fold_s",
    "serve.obs", "serve.folded", "serve.folded_frac", "serve.shed",
    "serve.lost", "serve.decode_errors", "serve.coalesced",
    "serve.verdict_ms.p50.light", "serve.verdict_ms.p99.light",
    "serve.verdict_ms.p50.heavy", "serve.verdict_ms.p99.heavy",
    "serve.sustained_obs_per_s", "gen.late_ms.max",
)

#: Session groups per workload. detect-burst alternates the bus and
#: divider channels inside each group, so every run holds both equally.
POOL_SEEDS = {"detect-burst": range(1, 33), "detect-cache": range(1, 25)}


def pool(workload: str) -> List[Tuple[Tuple[str, int], ...]]:
    """Every session group of a workload, in pool order."""
    if workload == "detect-burst":
        return [(("membus", s), ("divider", s))
                for s in POOL_SEEDS[workload]]
    if workload == "detect-cache":
        return [(("cache", s),) for s in POOL_SEEDS[workload]]
    raise BenchError(f"unknown detect workload {workload!r}")


def plan(workload: str, seed: int) -> List[Tuple[Tuple[str, int], ...]]:
    """The pool's groups in the order the workload seed gives them."""
    groups = pool(workload)
    random.Random(seed).shuffle(groups)
    return groups


class _VerdictClock:
    """Verdict sink that timestamps every per-quantum verdict, then
    calibrates the host with one kernel call (see :mod:`hostspeed`).

    The call's own time is kept out of the session's: each quantum is
    timed from the end of the previous call to its verdict. Without
    ``calibrate`` (traced sessions, whose layer spans would hold the
    calls) every slowdown reads 1.
    """

    def __init__(self, t0: float, calibrate: bool):
        self.calibrate = calibrate
        self.resumed: List[float] = [t0]
        self.stamps: List[float] = []
        self.slowdowns: List[float] = []
        self.kernel_cpu_s = 0.0

    def on_quantum(self, quantum, report) -> None:
        stamp = perf_counter()
        if not self.calibrate:
            self.resumed.append(stamp)
            self.stamps.append(stamp)
            self.slowdowns.append(1.0)
            return
        c0 = process_time()
        kernel()
        self.resumed.append(perf_counter())
        self.kernel_cpu_s += process_time() - c0
        self.stamps.append(stamp)
        self.slowdowns.append((self.resumed[-1] - stamp) / NOMINAL_S)

    def on_close(self, report) -> None:
        pass


def run_session(channel: str, seed: int, calibrate: bool = True) -> Dict:
    """One audited covert session, timed from outside.

    Returns wall and CPU time (build, ``run_quanta``, ``close``) and the
    per-quantum verdict latencies, raw and at nominal host speed, the
    host's median slowdown over the session, the known-answer digest
    and the simulated statistics it covers.

    Quantum *i* runs between calibrations *i-1* and *i* (the first one
    also builds the session) and is scaled by their mean; the close,
    after the last calibration, by that one.
    """
    from repro.analysis import figures
    from repro.util.bitstream import Message

    kwargs = {"n_sets_total": CACHE_SETS} if channel == "cache" else {}
    message = Message.random(BITS, seed)
    t0 = perf_counter()
    c0 = process_time()
    clock = _VerdictClock(t0, calibrate)
    run = figures.run_channel_session(
        channel, message, BANDWIDTH_BPS, seed=seed, sinks=[clock],
        track_detection_latency=True, **kwargs,
    )
    report = run.hunter.session.close()
    t_end = perf_counter()
    cpu = process_time() - c0 - clock.kernel_cpu_s
    machine = run.machine
    stats = {
        "quanta": int(run.quanta),
        "engine_events": int(machine.engine.events_executed),
        "l2_hits": int(machine.l2.hits),
        "l2_misses": int(machine.l2.misses),
        "l2_conflict_misses": int(machine.l2.conflict_misses),
    }
    latencies = [(b - a) * 1e3 for a, b in zip(clock.resumed, clock.stamps)]
    slows = clock.slowdowns
    scales = slows[:1] + [(a + b) / 2 for a, b in zip(slows, slows[1:])]
    nominal = [x / f for x, f in zip(latencies, scales)]
    tail = t_end - clock.resumed[-1]
    wall = sum(latencies) / 1e3 + tail
    nominal_wall = sum(nominal) / 1e3 + tail / slows[-1]
    return {
        "channel": channel,
        "seed": seed,
        "wall_s": wall,
        "cpu_s": cpu,
        "nominal_wall_s": nominal_wall,
        # CPU time scaled as the session's wall time was.
        "nominal_cpu_s": cpu * nominal_wall / wall,
        "slowdown": median(slows),
        "quanta": stats["quanta"],
        "latencies_ms": latencies,
        "nominal_latencies_ms": nominal,
        "digest": digest({"report": report_payload(report), **stats}),
        "detected": bool(report.any_detected),
        "stats": stats,
    }


def warm_up(workload: str) -> None:
    """Load every code path the sessions use, outside the timed window."""
    from repro.analysis import figures
    from repro.util.bitstream import Message

    for channel, _seed in pool(workload)[0]:
        kwargs = {"n_sets_total": CACHE_SETS} if channel == "cache" else {}
        figures.run_channel_session(
            channel, Message.random(4, 0), BANDWIDTH_BPS, seed=0,
            max_quanta=2, track_detection_latency=True, **kwargs,
        ).hunter.session.close()


def check(session: Dict, reference: Dict) -> Optional[str]:
    """Why a session's outputs are wrong, or None when they are right."""
    key = f"{session['channel']}:{session['seed']}"
    want = reference.get(key)
    if want is None:
        return f"{key}: no known answer"
    if session["digest"] != want:
        return f"{key}: digest {session['digest'][:12]} != {want[:12]}"
    if not session["detected"]:
        return f"{key}: covert channel not detected"
    return None


def _run_checked(channel, seed, reference, failures, runner=run_session):
    """Run and check one session. Garbage from the previous session is
    collected first, outside the timed region: each session then starts
    from the heap a fresh ``repro detect`` process would have."""
    gc.collect()
    try:
        session = runner(channel, seed)
    except Exception as exc:  # a crashed session is a failed one
        failures.append(f"{channel}:{seed}: {type(exc).__name__}: {exc}")
        return None
    problem = check(session, reference)
    if problem is not None:
        failures.append(problem)
    return session


def _groups_until(deadline: float, groups):
    """Walk ``groups`` cyclically while the next group (as long as the
    longest so far) still fits before ``deadline``; the first always runs."""
    spent: List[float] = []
    i = 0
    while True:
        group = groups[i % len(groups)]
        if i and time.monotonic() + max(spent) > deadline:
            return
        t0 = time.monotonic()
        yield group
        spent.append(time.monotonic() - t0)
        i += 1


def measure(workload: str, seed: int, seconds: float, reference: Dict):
    """Untraced run: end-to-end metrics over ``seconds`` of sessions, at
    nominal host speed (see :func:`run_session`)."""
    setup = detect_setup_s()
    warm_up(workload)
    refs = reference[workload]
    failures: List[str] = []
    sessions = []
    attempted = 0
    deadline = time.monotonic() + seconds
    for group in _groups_until(deadline, plan(workload, seed)):
        for channel, session_seed in group:
            attempted += 1
            session = _run_checked(channel, session_seed, refs, failures)
            if session is not None:
                sessions.append(session)
    if not sessions:
        raise BenchError("no session completed: " + "; ".join(failures))
    latencies = [x for s in sessions for x in s["nominal_latencies_ms"]]
    wall = sum(s["nominal_wall_s"] for s in sessions)
    cpu = sum(s["nominal_cpu_s"] for s in sessions)
    quanta = sum(s["quanta"] for s in sessions)
    log(f"{workload}: {len(sessions)} sessions, {quanta} quanta, raw "
        f"session p50 {median(s['wall_s'] for s in sessions):.3f}s, host "
        f"slowdown p50 {median(s['slowdown'] for s in sessions):.3f} "
        f"(sessions {min(s['slowdown'] for s in sessions):.3f}-"
        f"{max(s['slowdown'] for s in sessions):.3f})")
    metrics = {
        "setup_s": setup,
        "verdict_ms.mean": sum(latencies) / len(latencies),
        "verdict_ms.p90": percentile(latencies, 90),
        "quanta_per_s": quanta / wall,
        "cpu_ms_per_quantum": cpu / quanta * 1e3,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    return attempted, len(failures), failures, metrics


# ------------------------------------------------------------------ traced

_FU_METHODS = ("saturate", "run_loop", "random_use")
_BUS_METHODS = ("lock_burst", "sample", "noise_locks")


def _instrument_machine(tracer: Tracer, machine) -> None:
    tracer.wrap(machine, "run_quanta", "sim.run_quanta")
    tracer.wrap(machine.engine, "run_until", "sim.engine")
    tracer.wrap(machine.l2, "access_series", "sim.l2.access_series")
    tracer.wrap(machine.l2, "random_traffic", "sim.l2.random_traffic")
    tracer.wrap(machine.tracker, "replay_check_batch", "hw.tracker.replay")
    for method in _BUS_METHODS:
        tracer.wrap(machine.bus, method, "sim.bus")
    for unit in list(machine.dividers) + list(machine.multipliers):
        for method in _FU_METHODS:
            tracer.wrap(unit, method, "sim.fu")


def _instrument_hunter(tracer: Tracer, hunter, counts: Dict) -> None:
    session = hunter.session
    trace_session(tracer, session, counts)
    wrapped = set()
    audit = hunter.audit

    def traced_audit(*args, **kwargs):
        audit(*args, **kwargs)
        trace_analyzers(tracer, session, wrapped)

    tracer.replace(hunter, "audit", traced_audit)


def run_traced_session(channel: str, seed: int) -> Dict:
    """:func:`run_session` with every layer wrapped from outside."""
    from repro.analysis import figures

    counts = {"conflict_records": 0}
    with Tracer() as tracer:
        real_machine, real_hunter = figures.Machine, figures.CCHunter

        def machine_factory(*args, **kwargs):
            machine = real_machine(*args, **kwargs)
            _instrument_machine(tracer, machine)
            return machine

        def hunter_factory(*args, **kwargs):
            hunter = real_hunter(*args, **kwargs)
            _instrument_hunter(tracer, hunter, counts)
            return hunter

        tracer.replace(figures, "Machine", machine_factory)
        tracer.replace(figures, "CCHunter", hunter_factory)
        trace_recurrence(tracer)
        session = run_session(channel, seed, calibrate=False)
    session["layers"] = _layer_metrics(tracer, session, counts)
    return session


def _layer_metrics(tracer: Tracer, session: Dict, counts: Dict) -> Dict:
    total, own, calls = tracer.total, tracer.self_time, tracer.calls
    stats = session["stats"]
    run_quanta = total["sim.run_quanta"]
    engine = total["sim.engine"]
    push = total["pipeline.session.push"]
    accesses = stats["l2_hits"] + stats["l2_misses"]
    conflicts = stats["l2_conflict_misses"]
    records = counts["conflict_records"]
    return {
        **pipeline_metrics(tracer, counts),
        "sim.run_quanta_s": run_quanta,
        "sim.engine_s": engine,
        "sim.engine.self_s": own["sim.engine"],
        "sim.engine.events": stats["engine_events"],
        "sim.hooks_s": run_quanta - engine,
        "sim.l2.access_series_s": total["sim.l2.access_series"],
        "sim.l2.access_series.calls": calls["sim.l2.access_series"],
        "sim.l2.random_traffic_s": total["sim.l2.random_traffic"],
        "sim.l2.random_traffic.calls": calls["sim.l2.random_traffic"],
        "sim.l2.self_s": (own["sim.l2.access_series"]
                          + own["sim.l2.random_traffic"]),
        "sim.l2.hit_ratio": stats["l2_hits"] / accesses if accesses else 0.0,
        "sim.l2.conflict_misses": conflicts,
        "hw.tracker.replay_s": total["hw.tracker.replay"],
        "hw.tracker.replay_calls": calls["hw.tracker.replay"],
        "hw.tracker.useful_frac": records / conflicts if conflicts else 0.0,
        "sim.bus_s": total["sim.bus"],
        "sim.fu_s": total["sim.fu"],
        "pipeline.source.self_s": run_quanta - engine - push,
        "trace.coverage": sum(own.values()) / session["wall_s"],
    }


def measure_traced(workload: str, seed: int, seconds: float,
                   reference: Dict):
    """Traced run: per-layer metrics, each traced session paired with an
    untraced session of the same input.

    Both sessions of a pair are checked against the same frozen digest,
    so a traced run that computed anything differently fails. The pair's
    wall times give ``trace.overhead_frac``; which side runs first
    alternates from group to group.
    """
    warm_up(workload)
    refs = reference[workload]
    failures: List[str] = []
    plain, traced = [], []
    attempted = 0
    deadline = time.monotonic() + seconds
    groups = _groups_until(deadline, plan(workload, seed))
    for n_group, group in enumerate(groups):
        order = [run_session, run_traced_session][::1 - 2 * (n_group % 2)]
        for channel, session_seed in group:
            pair = {}
            for runner in order:
                attempted += 1
                session = _run_checked(channel, session_seed, refs,
                                       failures, runner)
                if session is not None:
                    pair[runner] = session
            if len(pair) != 2:
                continue
            plain.append(pair[run_session])
            traced.append(pair[run_traced_session])
    if not traced:
        raise BenchError("no traced session completed: " + "; ".join(failures))
    layers = {
        name: median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    layers["session_s.p50"] = median(s["wall_s"] for s in plain)
    layers["session_cpu_s.p50"] = median(s["cpu_s"] for s in plain)
    layers["trace.overhead_frac"] = median(
        t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
    ) - 1.0
    layers["host.slowdown"] = median(s["slowdown"] for s in plain)
    layers.update(dict.fromkeys(NOT_RUN, 0.0))
    log(f"{workload}: {len(traced)} traced/untraced session pairs")
    return attempted, len(failures), failures, layers
