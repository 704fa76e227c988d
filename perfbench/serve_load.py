"""The ``serve-mixed`` workload: an open loop against ``repro serve``.

The service runs in its own process (``repro serve --port 0 --admin-port
0``). This process opens exactly two tenant connections on one asyncio
loop: one streams covert traffic and one benign traffic, both from
``repro.serve.traffic``. After an untimed warm-up that carries each
session past its cheaper first ~1600 quanta, the untraced run alternates
heavy-rate windows, sent on a fixed schedule, with closed-loop chunks;
the traced run climbs a ladder of total rates. The service answers
every ``VERDICT_EVERY``-th folded observation with a verdict frame that
covers the whole group; an observation that closes a group is timed from
when it was *due* until that frame arrives, so a stall in the service
(or a credit wait) counts against every group queued behind it, but the
wait for the rest of a group to be sent does not. An observation that no
frame ever covers is a failure.

Only after the load stops does the benchmark scrape ``/metrics``, read
the service's CPU time and peak memory from ``/proc``, and send SIGINT
so the service drains. The known answer for each tenant is the final
report of an in-process session fed the same stream.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    ROOT,
    BenchError,
    child_env,
    die_with_parent,
    log,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    report_payload,
    SETUP_REPEATS,
)
from hostspeed import on_cpu, usable_cpus
from layers import (
    Tracer,
    pipeline_metrics,
    trace_analyzers,
    trace_recurrence,
    trace_session,
)

#: Observations per tenant of the closed-loop warm-up (a multiple of
#: ``VERDICT_EVERY``): a session's cost per observation grows steeply
#: over its first ~1600 quanta, slowly after.
WARMUP_OBS = 1600
#: ``repro serve --verdict-every`` default: one verdict frame per 8
#: folded observations.
VERDICT_EVERY = 8
#: Fixed total (both tenants) rates, obs/s, each with its phase length
#: at ``--seconds 30`` in the traced run (phases scale with
#: ``--seconds``). ``heavy`` sits below the service's knee: about 1000
#: obs/s on a quiet 2-CPU host, 500 while it runs slow.
LIGHT_RATE, LIGHT_S = 100, 8.0
HEAVY_RATE, HEAVY_S = 250, 10.0
#: The untraced run alternates, for ``ROUNDS`` rounds at ``--seconds 30``
#: (scaled with ``--seconds``), a heavy-rate window of ``WINDOW_OBS``
#: and a closed-loop chunk of ``CHUNK_OBS`` observations per tenant.
ROUNDS = 8
WINDOW_OBS = 200
CHUNK_OBS = 320
#: The ladder bisects between the highest fixed rate that passed and the
#: throughput of the closed-loop warm-up (an upper bound: the first
#: quanta of a session are its cheapest) for this many rungs.
LADDER_RUNGS = 4
#: Observations per tenant on each rung.
RUNG_OBS = 600
#: A rung passes when its p99 verdict latency is within this limit and
#: its backlog does not grow.
LATENCY_LIMIT_MS = 250.0
#: A generator that fell behind its own schedule by more than this
#: (waiting for credits excluded) invalidates the run.
GEN_LATE_LIMIT_MS = 100.0
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
#: A phase stops waiting for verdicts once no frame has arrived for this
#: long; whatever is still uncovered then counts as never answered.
STALL_S = 5.0

_PROFILES = ("covert", "benign")

#: Per-layer metrics of layers the service never runs: there is no
#: simulator, no audited hardware and no host-speed calibration (see
#: hostspeed.py). Reported as explicit zeros.
NOT_RUN = (
    "sim.run_quanta_s", "sim.engine_s", "sim.engine.self_s",
    "sim.engine.events", "sim.hooks_s", "sim.l2.access_series_s",
    "sim.l2.access_series.calls", "sim.l2.random_traffic_s",
    "sim.l2.random_traffic.calls", "sim.l2.self_s", "sim.l2.hit_ratio",
    "sim.l2.conflict_misses", "hw.tracker.replay_s",
    "hw.tracker.replay_calls", "hw.tracker.useful_frac", "sim.bus_s",
    "sim.fu_s", "pipeline.source.self_s", "session_s.p50",
    "session_cpu_s.p50", "host.slowdown",
)


def phase_obs(rate: float, phase_s: float, seconds: float) -> int:
    """Observations per tenant of a fixed-rate phase (whole verdict groups)."""
    n = rate / len(_PROFILES) * phase_s * seconds / 30.0
    return max(4, int(n) // VERDICT_EVERY) * VERDICT_EVERY


def rounds(seconds: float) -> int:
    """Rounds of the untraced run."""
    return max(2, round(ROUNDS * seconds / 30.0))


def stream_seeds(seed: int) -> Dict[str, int]:
    rng = random.Random(seed)
    return {profile: rng.randrange(1 << 30) for profile in _PROFILES}


# ---------------------------------------------------------------- service


class Service:
    """A ``repro serve`` child process with its two readiness ports."""

    def __init__(self):
        #: The CPU the service runs on: another than the benchmark's own
        #: when the host has two.
        self.cpu = usable_cpus()[-1]
        t0 = time.perf_counter()
        with on_cpu(self.cpu):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--admin-port", "0"],
                stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                preexec_fn=die_with_parent,
            )
        try:
            self.admin_port, self.port = self._await_ports()
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - t0

    def cpu_s(self) -> float:
        """CPU seconds the service has used."""
        return proc_cpu_s(self.proc.pid)

    def _await_ports(self) -> Tuple[int, int]:
        """Read stdout up to the readiness line; the telemetry line
        comes first. Reads the raw pipe, so nothing sits unseen in a
        buffer while ``select`` waits."""
        fd = self.proc.stdout.fileno()
        text = ""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 1.0)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("repro serve exited before it was ready")
            text += chunk.decode()
            admin = re.search(r"telemetry on [^:\s]+:(\d+)", text)
            port = re.search(r"listening on [^:\s]+:(\d+)", text)
            if admin and port:
                return int(admin.group(1)), int(port.group(1))
        raise BenchError("repro serve printed no readiness line")

    def stop(self) -> int:
        """SIGINT, let the service drain, and return its exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("repro serve did not drain after SIGINT")
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` as ``{metric name: value summed over labels}``."""
        url = f"http://127.0.0.1:{self.admin_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode()
        values: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            name = name.split("{", 1)[0]
            values[name] = values.get(name, 0.0) + float(value)
        return values


def start_service() -> Tuple[Service, float]:
    """Spawn the service ``SETUP_REPEATS`` times; keep the last one.

    Returns it with the median spawn-to-readiness time.
    """
    times = []
    for i in range(SETUP_REPEATS):
        service = Service()
        times.append(service.ready_s)
        if i < SETUP_REPEATS - 1 and service.stop() != 0:
            raise BenchError("repro serve exited non-zero after SIGINT")
    return service, median(times)


# ------------------------------------------------------------------- load


class Tenant:
    """One tenant connection and the timeline of everything it sent."""

    def __init__(self, name: str, profile: str, observations: Sequence):
        self.name = name
        self.profile = profile
        self.observations = list(observations)
        self.sent = 0
        self.due: List[float] = []
        self.verdict_at: List[float] = []
        self.verdict_q: List[int] = []
        self.late_ms: List[float] = []
        self.sent_at = 0.0
        self.client = None
        self.goodbye = None

    def on_verdict(self, frame) -> None:
        self.verdict_at.append(time.perf_counter())
        self.verdict_q.append(frame.quantum)

    async def send(self, n: int, rate: Optional[float], start: float):
        """Send the next ``n`` observations, due at ``start + i / rate``
        (all at once, credits permitting, when ``rate`` is None)."""
        prev_done = start
        first = self.sent
        for i in range(n):
            due = start + i / rate if rate else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            began = time.perf_counter()
            self.late_ms.append((began - max(due, prev_done)) * 1e3)
            self.due.append(due)
            await self.client.send(self.observations[first + i])
            prev_done = self.sent_at = time.perf_counter()
            self.sent += 1

    async def drained(self, stall_s: float) -> bool:
        """Wait until a verdict covers everything sent so far; give up
        (False) once no frame has arrived for ``stall_s``."""
        while not (self.verdict_q and self.verdict_q[-1] >= self.sent - 1):
            last = max(self.verdict_at[-1] if self.verdict_at else 0.0,
                       self.sent_at)
            if time.perf_counter() - last > stall_s:
                return False
            await asyncio.sleep(0.002)
        return True

    def latency_ms(self, q: int, until: float) -> Tuple[float, bool]:
        """Due-to-verdict latency of observation ``q`` and whether a frame
        covered it at all; an uncovered one is timed up to ``until``."""
        i = bisect.bisect_left(self.verdict_q, q)
        if i < len(self.verdict_q):
            return (self.verdict_at[i] - self.due[q]) * 1e3, True
        return (until - self.due[q]) * 1e3, False


def phase_stats(tenants: Sequence[Tenant], lo: int, hi: int,
                until: float) -> Dict:
    """Latency figures of one phase (observations ``lo..hi-1``), over the
    observations that close a verdict group; ``missing`` counts every
    observation no frame covered by ``until``."""
    rows = []  # (due, latency) of group-closing observations
    missing = 0
    for tenant in tenants:
        for q in range(lo, hi):
            latency, answered = tenant.latency_ms(q, until)
            missing += not answered
            if q % VERDICT_EVERY == VERDICT_EVERY - 1:
                rows.append((tenant.due[q], latency))
    rows.sort()
    lat = [x for _d, x in rows]
    third = len(rows) // 3
    early = lat[:third]
    late = lat[-third:] if third else []
    return {
        "missing": missing,
        "mean": sum(lat) / len(lat),
        "p50": percentile(lat, 50),
        "p90": percentile(lat, 90),
        "p99": percentile(lat, 99),
        "growing": bool(early and late
                        and median(late) - median(early)
                        > LATENCY_LIMIT_MS / 4),
        "late_ms": max(x for t in tenants for x in t.late_ms[lo:hi]),
    }


def rung_passes(stats: Dict) -> bool:
    return (stats["missing"] == 0 and stats["p99"] <= LATENCY_LIMIT_MS
            and not stats["growing"])


async def _phase(tenants, n: int, total_rate: Optional[float]) -> Dict:
    """Send ``n`` observations per tenant at ``total_rate`` (as fast as
    credits allow when None), wait for their verdicts, return the stats."""
    lo = tenants[0].sent
    start = time.perf_counter() + (0.01 if total_rate else 0.0)
    per_tenant = total_rate / len(tenants) if total_rate else None
    # Offset the tenants by a share of a verdict group, so that their
    # verdict evaluations take turns instead of queueing behind each other.
    offsets = [i * VERDICT_EVERY / len(tenants) / per_tenant
               if per_tenant else 0.0 for i in range(len(tenants))]
    await asyncio.gather(*(
        t.send(n, per_tenant, start + off) for t, off in zip(tenants, offsets)
    ))
    drained = [await tenant.drained(STALL_S) for tenant in tenants]
    until = (max(t.verdict_at[-1] for t in tenants) if all(drained)
             else time.perf_counter())
    stats = phase_stats(tenants, lo, tenants[0].sent, until)
    stats["answered"] = (tenants[0].sent - lo) * len(tenants)
    stats["elapsed_s"] = until - start
    stats["throughput"] = stats["answered"] / stats["elapsed_s"]
    stats["rate"] = total_rate or stats["throughput"]
    return stats


async def _drive(service: Service, tenants: Sequence[Tenant],
                 seconds: float,
                 tracer: Optional[Tracer]) -> Tuple[Dict, Optional[float]]:
    """The whole load on one loop.

    Both runs start with a closed-loop warm-up. Untraced, :func:`rounds`
    rounds follow, each a heavy-rate window and a closed-loop chunk.
    Traced (``tracer`` given), the light and heavy rates, the bisected
    ladder, then the heavy rate again with the client-side layers
    wrapped. Returns the phases' stats, with the service CPU time each
    took, by name; and, traced, the sustained rate (the highest rung
    that passed).
    """
    from repro.serve import ServeClient
    from repro.serve.traffic import CHANNELS

    for tenant in tenants:
        tenant.client = ServeClient("127.0.0.1", service.port,
                                    on_verdict=tenant.on_verdict)
        await tenant.client.connect(tenant.name, CHANNELS)
    phases = {}
    rate = None
    try:
        async def phase(name, n, total_rate):
            cpu0 = service.cpu_s()
            stats = await _phase(tenants, n, total_rate)
            stats["cpu_s"] = service.cpu_s() - cpu0
            phases[name] = stats
            return stats

        await phase("warm-up", WARMUP_OBS, None)
        if tracer is None:
            for i in range(rounds(seconds)):
                await phase(f"window{i}", WINDOW_OBS, HEAVY_RATE)
                await phase(f"chunk{i}", CHUNK_OBS, None)
        else:
            await phase("light", phase_obs(LIGHT_RATE, LIGHT_S, seconds),
                        LIGHT_RATE)
            await phase("heavy", phase_obs(HEAVY_RATE, HEAVY_S, seconds),
                        HEAVY_RATE)
            rungs = iter(range(LADDER_RUNGS))

            async def rung(rung_rate):
                return await phase(f"rung{next(rungs)}", RUNG_OBS, rung_rate)

            rate = await climb_ladder(rung, *ladder_bracket(
                phases["light"], phases["heavy"],
                phases["warm-up"]["throughput"]))
            _trace_clients(tracer, tenants)
            await phase("heavy-traced",
                        phase_obs(HEAVY_RATE, HEAVY_S, seconds), HEAVY_RATE)
        for tenant in tenants:
            tenant.goodbye = await tenant.client.finish(
                timeout=DRAIN_TIMEOUT_S)
    finally:
        for tenant in tenants:
            await tenant.client.aclose()
    return phases, rate


async def climb_ladder(probe, lo: float, hi: float,
                       rungs: int = LADDER_RUNGS) -> float:
    """Bisect ``[lo, hi]`` for ``rungs`` rungs with ``await probe(rate)``
    returning each rung's stats; the highest passing rate wins."""
    for _ in range(rungs):
        rate = (lo + hi) / 2
        if rung_passes(await probe(rate)):
            lo = rate
        else:
            hi = rate
    return lo


def ladder_bracket(light: Dict, heavy: Dict,
                   saturated: float) -> Tuple[float, float]:
    """(highest rate known to pass, rate assumed to fail) where the
    bisected ladder starts."""
    lo = 0.0
    for rate, stats in ((LIGHT_RATE, light), (HEAVY_RATE, heavy)):
        if not rung_passes(stats):
            return lo, float(rate)
        lo = float(rate)
    return lo, max(saturated, 1.25 * lo)


def _trace_clients(tracer: Tracer, tenants: Sequence[Tenant]) -> None:
    from repro.serve import wire

    tracer.wrap(wire, "encode_frame", "serve.wire.encode")
    for tenant in tenants:
        tracer.wrap(tenant.client, "send", "serve.client.send")


def _tenants(seed: int, n_total: int) -> List[Tenant]:
    from repro.serve.traffic import make_observations

    seeds = stream_seeds(seed)
    return [Tenant(f"{p}-{seeds[p]}", p,
                   make_observations(p, n_total, seed=seeds[p]))
            for p in _PROFILES]


def replay(observations: Sequence, tracer: Optional[Tracer] = None,
           counts: Optional[Dict] = None):
    """The final report of an in-process session fed ``observations``,
    asking for verdicts as often as the service does.

    With a ``tracer``, the session's layers are wrapped on the way.
    """
    from repro.pipeline import build_session_from_specs
    from repro.serve.traffic import CHANNELS

    session = build_session_from_specs(CHANNELS)
    if tracer is not None:
        trace_session(tracer, session, counts)
        trace_analyzers(tracer, session, set())
    for i, obs in enumerate(observations, 1):
        session.push_quantum(obs)
        if i % VERDICT_EVERY == 0:
            session.current_verdicts()
    return session.close()


def check_tenants(tenants: Sequence[Tenant],
                  tracer: Optional[Tracer] = None,
                  counts: Optional[Dict] = None) -> List[str]:
    """Each tenant's final report must equal an in-process replay of
    its stream; covert must be detected, benign clear, nothing shed."""
    problems = []
    for tenant in tenants:
        goodbye = tenant.goodbye
        if goodbye is None:
            problems.append(f"{tenant.name}: no final report")
            continue
        want = report_payload(replay(tenant.observations[:tenant.sent],
                                     tracer, counts))
        if report_payload(goodbye.report) != want:
            problems.append(f"{tenant.name}: final report differs from "
                            "the in-process replay")
        if goodbye.report.any_detected != (tenant.profile == "covert"):
            problems.append(f"{tenant.name}: wrong verdict for "
                            f"{tenant.profile} traffic")
        if goodbye.received != tenant.sent or goodbye.shed:
            problems.append(f"{tenant.name}: folded {goodbye.received} and "
                            f"shed {goodbye.shed} of {tenant.sent}")
    return problems


def run_load(seed: int, seconds: float, traced: bool) -> Dict:
    """Set up the service, drive the load, check and tear down."""
    if traced:
        heavy = phase_obs(HEAVY_RATE, HEAVY_S, seconds)
        n_load = (phase_obs(LIGHT_RATE, LIGHT_S, seconds) + 2 * heavy
                  + LADDER_RUNGS * RUNG_OBS)
    else:
        n_load = rounds(seconds) * (WINDOW_OBS + CHUNK_OBS)
    tenants = _tenants(seed, WARMUP_OBS + n_load)
    tracer = Tracer() if traced else None
    service, setup = start_service()
    try:
        cpu0 = service.cpu_s()
        try:
            phases, rate = asyncio.run(_drive(service, tenants, seconds,
                                              tracer))
        finally:
            if tracer is not None:
                tracer.restore()
        scraped = service.scrape()
        cpu = service.cpu_s() - cpu0
        rss = proc_peak_rss_mb(service.proc.pid)
    except BaseException:
        service.kill()
        raise
    exit_code = service.stop()
    # Traced, the known-answer replay times the pipeline layers the
    # service runs on every observation, for covert and benign traffic.
    counts = {"conflict_records": 0}
    with Tracer() as replay_tracer:
        if traced:
            trace_recurrence(replay_tracer)
        problems = check_tenants(tenants, replay_tracer if traced else None,
                                 counts)
    if exit_code != 0:
        problems.append(f"repro serve exited {exit_code} after SIGINT")
    return {
        "setup_s": setup,
        "tenants": tenants,
        "phases": phases,
        # Traced: the ladder's sustained rate.
        "rate": rate,
        "scraped": scraped,
        "service_cpu_s": cpu,
        "peak_rss_mb": rss,
        "problems": problems,
        "tracer": tracer,
        "replay_tracer": replay_tracer,
        "counts": counts,
    }


def _failures(result: Dict) -> Tuple[int, int]:
    """(attempted, failed) observations.

    Shed, lost, undecodable and unanswered observations fail; so does
    every observation of a tenant whose final answer is wrong, and every
    observation when the service itself misbehaved.
    """
    tenants, scraped = result["tenants"], result["scraped"]
    attempted = sum(t.sent for t in tenants)
    failed = int(scraped.get("cchunter_serve_shed_total", 0)
                 + scraped.get("cchunter_serve_lost_total", 0)
                 + scraped.get("cchunter_serve_decode_errors_total", 0))
    failed += sum(s["missing"] for s in result["phases"].values())
    for problem in result["problems"]:
        owner = problem.split(":", 1)[0]
        failed += sum(t.sent for t in tenants if t.name == owner) or attempted
    return attempted, min(failed, attempted)


def _check_generator(result: Dict) -> float:
    """How far the generator itself fell behind (credit waits excluded);
    beyond the limit the latency figures are invalid and so is the run."""
    late = max(s["late_ms"] for s in result["phases"].values())
    if late > GEN_LATE_LIMIT_MS:
        raise BenchError(f"generator ran {late:.0f} ms behind its schedule; "
                         "run invalid")
    return late


def _log_phases(result: Dict) -> None:
    for name, s in result["phases"].items():
        log(f"serve {name:>12} {s['rate']:7.1f} obs/s: p50 {s['p50']:7.2f} "
            f"ms, p99 {s['p99']:7.2f} ms, growing={s['growing']}, "
            f"late {s['late_ms']:.1f} ms, unanswered {s['missing']}, "
            f"service cpu {s['cpu_s'] / s['answered'] * 1e3:.3f} ms/obs")


def measure(seed: int, seconds: float):
    """Untraced run: the end-to-end metrics.

    Each figure is the median over the rounds — of the heavy windows'
    latency, of the chunks' throughput, of each round's service CPU per
    observation — so a burst of contention moves at most a minority of
    them.
    """
    result = run_load(seed, seconds, traced=False)
    _log_phases(result)
    _check_generator(result)
    attempted, failed = _failures(result)
    phases = result["phases"]
    n = rounds(seconds)
    windows = [phases[f"window{i}"] for i in range(n)]
    chunks = [phases[f"chunk{i}"] for i in range(n)]
    metrics = {
        "setup_s": result["setup_s"],
        "verdict_ms.mean": median(w["mean"] for w in windows),
        "verdict_ms.p90": median(w["p90"] for w in windows),
        "quanta_per_s": median(c["throughput"] for c in chunks),
        "cpu_ms_per_quantum": median(
            (w["cpu_s"] + c["cpu_s"]) / (w["answered"] + c["answered"])
            for w, c in zip(windows, chunks)) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return attempted, failed, result["problems"], metrics


def measure_traced(seed: int, seconds: float):
    """Traced run: client-side layer times, scraped service counters,
    and latency at both fixed rates."""
    result = run_load(seed, seconds, traced=True)
    _log_phases(result)
    late = _check_generator(result)
    attempted, failed = _failures(result)
    tracer, scraped, phases = (result["tracer"], result["scraped"],
                               result["phases"])
    obs = scraped.get("cchunter_serve_obs_total", 0.0)
    folded = scraped.get("cchunter_serve_folded_total", 0.0)
    fold_s = scraped.get("cchunter_serve_fold_seconds_sum", 0.0)
    layers = {
        **pipeline_metrics(result["replay_tracer"], result["counts"]),
        **dict.fromkeys(NOT_RUN, 0.0),
        "serve.client.send_s": tracer.total["serve.client.send"],
        "serve.wire.encode_s": tracer.total["serve.wire.encode"],
        "serve.fold_s": fold_s,
        "serve.obs": obs,
        "serve.folded": folded,
        "serve.folded_frac": folded / obs if obs else 0.0,
        "serve.shed": scraped.get("cchunter_serve_shed_total", 0.0),
        "serve.lost": scraped.get("cchunter_serve_lost_total", 0.0),
        "serve.decode_errors":
            scraped.get("cchunter_serve_decode_errors_total", 0.0),
        "serve.coalesced":
            scraped.get("cchunter_serve_verdicts_coalesced_total", 0.0),
        "serve.verdict_ms.p50.light": phases["light"]["p50"],
        "serve.verdict_ms.p99.light": phases["light"]["p99"],
        "serve.verdict_ms.p50.heavy": phases["heavy"]["p50"],
        "serve.verdict_ms.p99.heavy": phases["heavy"]["p99"],
        "serve.sustained_obs_per_s": result["rate"],
        "gen.late_ms.max": late,
        "trace.overhead_frac":
            phases["heavy-traced"]["p50"] / phases["heavy"]["p50"] - 1.0,
        "trace.coverage": fold_s / result["service_cpu_s"],
    }
    return attempted, failed, result["problems"], layers
