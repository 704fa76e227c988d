"""Per-tenant SLO tracking with multi-window burn-rate alerting.

The detection service's job is continuous auditing; its own service
level is therefore part of the security posture — a tenant whose
observations are being shed, whose verdicts arrive late, or whose
pipeline health has degraded is a tenant the auditor is *not* fully
watching, exactly the monitoring gap an adaptive covert sender waits
for (see PAPERS.md, "Towards a Better Indicator for Cache Timing
Channels").

:class:`SloTracker` keeps rolling windows of good/bad events per
``(tenant, objective)`` and evaluates the classic SRE multi-window
burn-rate rules: an alert fires when the error budget is being burned
faster than ``threshold``× over *both* a short window (is it happening
now?) and a long window (is it sustained?). Firing is edge-triggered —
one alert per transition into the firing state, re-armed once both
windows drop back under threshold.

Every fired alert is emitted three ways, so logs, metrics, and
forensic archives join on the same keys:

- a structured ``repro.obs.alert/v1`` record on the ``repro.obs.slo``
  logger (tenant/rule/objective as record attrs for the JSON
  formatter);
- a ``cchunter_alerts_total{rule,tenant}`` counter increment;
- one JSON line appended to the alerts file, when one is configured.

Objectives shipped by default (see docs/OBSERVABILITY.md):

- ``verdict_latency`` — fraction of verdicts slower than the latency
  threshold (a quantile objective expressed as a bad-event rate);
- ``shed`` — fraction of observations shed or lost instead of folded;
- ``health`` — fraction of verdicts carrying a non-OK pipeline health.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_default

_log = get_logger("obs.slo")

#: Format tag stamped into every alert document and JSONL line.
ALERT_FORMAT = "repro.obs.alert/v1"

#: Most samples retained per (tenant, objective) window.
_MAX_SAMPLES = 4096


@dataclass(frozen=True)
class SloObjective:
    """One rolling-window objective: budgeted fraction of bad events.

    ``budget`` is the error budget as a fraction (0.05 = 99.5%-ish of
    events may be bad before the budget is gone at burn rate 1).
    ``latency_threshold_s`` only matters for latency-style objectives,
    where it defines "bad" (slower than the threshold).
    """

    name: str
    budget: float = 0.05
    latency_threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError(
                f"budget must be in (0, 1], got {self.budget} "
                f"for objective {self.name!r}"
            )


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when short- AND long-window burn exceed ``threshold``."""

    name: str
    short_window_s: float
    long_window_s: float
    threshold: float
    #: Minimum short-window samples before the rule may fire, so a
    #: single bad event on a fresh tenant cannot page anyone.
    min_samples: int = 8

    def __post_init__(self) -> None:
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise ValueError(f"rule {self.name!r} windows must be positive")
        if self.short_window_s > self.long_window_s:
            raise ValueError(
                f"rule {self.name!r}: short window "
                f"({self.short_window_s}s) exceeds long window "
                f"({self.long_window_s}s)"
            )
        if self.threshold <= 0:
            raise ValueError(f"rule {self.name!r} threshold must be positive")


#: Service defaults: a 250 ms verdict-latency bar and 5% budgets.
DEFAULT_OBJECTIVES: Tuple[SloObjective, ...] = (
    SloObjective("verdict_latency", budget=0.05, latency_threshold_s=0.25),
    SloObjective("shed", budget=0.05),
    SloObjective("health", budget=0.05),
)

#: Classic two-rule ladder, scaled to service-test time horizons
#: (seconds, not hours): fast burn pages on an acute budget fire,
#: slow burn on a sustained leak.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast_burn", short_window_s=30.0, long_window_s=120.0,
                 threshold=8.0),
    BurnRateRule("slow_burn", short_window_s=120.0, long_window_s=600.0,
                 threshold=2.0),
)


class _Window:
    """One ``(tenant, objective)``'s samples, queried by bisection.

    ``times`` is non-decreasing and ``bad_cum[i]`` counts the bad
    samples before ``times[i]``, so the bad count of any suffix is one
    subtraction. Samples before ``start`` are dead: older than the
    horizon at the newest observation, or beyond the newest
    ``_MAX_SAMPLES``. The dead prefix is deleted once it outgrows the
    live part, which keeps appends amortised O(1).
    """

    __slots__ = ("times", "bad_cum", "start")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.bad_cum: List[int] = [0]
        self.start = 0

    def append(self, t: float, bad: bool, horizon_cut: float) -> None:
        times = self.times
        if times and t < times[-1]:
            raise ValueError(
                f"SLO sample at t={t} precedes the newest sample "
                f"(t={times[-1]}); timestamps must be non-decreasing"
            )
        times.append(t)
        self.bad_cum.append(self.bad_cum[-1] + bad)
        n = len(times)
        start = max(self.start, n - _MAX_SAMPLES)
        if times[start] < horizon_cut:
            start = bisect_left(times, horizon_cut, start, n)
        if start > n - start:
            del times[:start]
            del self.bad_cum[:start]
            start = 0
        self.start = start

    def counts(self, cutoff: float) -> Tuple[int, int]:
        """(bad, total) live samples at or after ``cutoff``."""
        first = bisect_left(self.times, cutoff, self.start)
        n = len(self.times)
        return self.bad_cum[n] - self.bad_cum[first], n - first


def _burn(bad: int, total: int, budget: float) -> float:
    return (bad / total) / budget if total else 0.0


class SloTracker:
    """Rolling per-tenant SLO windows plus burn-rate alert evaluation.

    Each window query costs one bisection, whatever the sample count.
    Timestamps must be non-decreasing per ``(tenant, objective)``;
    :meth:`observe` rejects an earlier one with ``ValueError``.
    """

    def __init__(
        self,
        objectives: Tuple[SloObjective, ...] = DEFAULT_OBJECTIVES,
        rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = monotonic,
        alerts_path: Optional[str] = None,
    ):
        if not objectives:
            raise ValueError("at least one objective is required")
        self.objectives: Dict[str, SloObjective] = {
            obj.name: obj for obj in objectives
        }
        if len(self.objectives) != len(objectives):
            raise ValueError("objective names must be unique")
        self.rules = tuple(rules)
        self.metrics = metrics if metrics is not None else get_default()
        self.clock = clock
        self.alerts_path = alerts_path
        self._horizon = max(
            (rule.long_window_s for rule in self.rules), default=0.0
        )
        self._shortest = min(
            (rule.short_window_s for rule in self.rules),
            default=self._horizon or 60.0,
        )
        self._samples: Dict[Tuple[str, str], _Window] = {}
        #: Keys currently in the firing state (edge-trigger dedup).
        self._firing: Set[Tuple[str, str, str]] = set()
        self.alerts_fired = 0
        self._fired_by_tenant: Dict[str, int] = {}

    # ------------------------------------------------------------ ingestion

    def observe(
        self,
        tenant: str,
        objective: str,
        bad: bool,
        now: Optional[float] = None,
    ) -> None:
        """Record one good/bad event against a tenant's objective."""
        if objective not in self.objectives:
            raise ValueError(
                f"unknown objective {objective!r} "
                f"(known: {', '.join(sorted(self.objectives))})"
            )
        t = self.clock() if now is None else now
        key = (tenant, objective)
        window = self._samples.get(key)
        if window is None:
            window = self._samples[key] = _Window()
        window.append(t, bool(bad), t - self._horizon)

    def observe_latency(
        self, tenant: str, seconds: float, now: Optional[float] = None
    ) -> None:
        """A verdict latency sample; bad iff over the objective's bar."""
        threshold = self.objectives["verdict_latency"].latency_threshold_s
        bad = threshold is not None and seconds > threshold
        self.observe(tenant, "verdict_latency", bad, now=now)

    def observe_shed(
        self, tenant: str, bad: bool, now: Optional[float] = None
    ) -> None:
        """One observation's fate: bad when shed/lost, good when folded."""
        self.observe(tenant, "shed", bad, now=now)

    def observe_health(
        self, tenant: str, health: str, now: Optional[float] = None
    ) -> None:
        """A verdict's pipeline health; bad when not "ok"."""
        self.observe(tenant, "health", health != "ok", now=now)

    def forget(self, tenant: str) -> None:
        """Drop a departed tenant's windows, firing state and alert count."""
        for objective in self.objectives:
            self._samples.pop((tenant, objective), None)
            for rule in self.rules:
                self._firing.discard((tenant, rule.name, objective))
        self._fired_by_tenant.pop(tenant, None)

    # ----------------------------------------------------------- evaluation

    def _window_counts(
        self, key: Tuple[str, str], window_s: float, now: float
    ) -> Tuple[int, int]:
        """(bad, total) samples within the trailing ``window_s``."""
        window = self._samples.get(key)
        if window is None:
            return 0, 0
        return window.counts(now - window_s)

    def burn_rate(
        self,
        tenant: str,
        objective: str,
        window_s: float,
        now: Optional[float] = None,
    ) -> float:
        """Budget-burn multiple over the trailing window (0 when idle).

        1.0 means bad events arrive exactly at the budgeted fraction;
        ``1 / budget`` is the ceiling (every event bad).
        """
        budget = self.objectives[objective].budget
        t = self.clock() if now is None else now
        return _burn(
            *self._window_counts((tenant, objective), window_s, t), budget
        )

    def evaluate(
        self, tenant: str, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Run every rule×objective for one tenant; emit fresh alerts.

        Returns the alert documents fired by *this* call (empty for
        steady states — already-firing combinations stay silent until
        they clear and re-trip).
        """
        t = self.clock() if now is None else now
        fired: List[Dict[str, Any]] = []
        for objective, obj in self.objectives.items():
            # Rules share windows (the default ladder's 120 s is one
            # rule's long and the other's short): count each once.
            counts: Dict[float, Tuple[int, int]] = {}
            for rule in self.rules:
                key = (tenant, rule.name, objective)
                for window_s in (rule.short_window_s, rule.long_window_s):
                    if window_s not in counts:
                        counts[window_s] = self._window_counts(
                            (tenant, objective), window_s, t
                        )
                short_bad, short_total = counts[rule.short_window_s]
                burn_short = _burn(short_bad, short_total, obj.budget)
                burn_long = _burn(*counts[rule.long_window_s], obj.budget)
                firing = (
                    short_total >= rule.min_samples
                    and burn_short >= rule.threshold
                    and burn_long >= rule.threshold
                )
                if not firing:
                    self._firing.discard(key)
                    continue
                if key in self._firing:
                    continue
                self._firing.add(key)
                fired.append(
                    self._emit(tenant, rule, objective,
                               burn_short, burn_long, t)
                )
        return fired

    def _emit(
        self,
        tenant: str,
        rule: BurnRateRule,
        objective: str,
        burn_short: float,
        burn_long: float,
        now: float,
    ) -> Dict[str, Any]:
        alert = {
            "format": ALERT_FORMAT,
            "rule": rule.name,
            "tenant": tenant,
            "objective": objective,
            "burn_short": burn_short,
            "burn_long": burn_long,
            "threshold": rule.threshold,
            "budget": self.objectives[objective].budget,
            "short_window_s": rule.short_window_s,
            "long_window_s": rule.long_window_s,
            "ts": now,
        }
        self.alerts_fired += 1
        self._fired_by_tenant[tenant] = (
            self._fired_by_tenant.get(tenant, 0) + 1
        )
        if self.metrics.enabled:
            self.metrics.counter(
                "cchunter_alerts_total",
                "SLO burn-rate alerts fired, by rule and tenant.",
                labels={"rule": rule.name, "tenant": tenant},
            ).inc()
        _log.warning(
            "SLO alert %s: tenant %r burning %s budget at %.1fx "
            "(short) / %.1fx (long), threshold %.1fx",
            rule.name,
            tenant,
            objective,
            burn_short,
            burn_long,
            rule.threshold,
            extra={
                "tenant": tenant,
                "rule": rule.name,
                "objective": objective,
                "alert_format": ALERT_FORMAT,
            },
        )
        if self.alerts_path is not None:
            with open(self.alerts_path, "a") as handle:
                handle.write(json.dumps(alert, sort_keys=True) + "\n")
        return alert

    # ------------------------------------------------------------ snapshots

    def firing(self, tenant: str) -> List[Dict[str, str]]:
        """Currently-firing (rule, objective) pairs for one tenant."""
        return [
            {"rule": rule, "objective": objective}
            for (who, rule, objective) in sorted(self._firing)
            if who == tenant
        ]

    def max_burn_rate(
        self, tenant: str, now: Optional[float] = None
    ) -> float:
        """Worst short-window burn across objectives — ``repro top``'s sort
        key."""
        t = self.clock() if now is None else now
        return max(
            self.burn_rate(tenant, objective, self._shortest, now=t)
            for objective in self.objectives
        )

    def tenant_snapshot(
        self, tenant: str, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """JSON-ready SLO state for ``/tenants/<id>`` and ``repro top``."""
        t = self.clock() if now is None else now
        objectives: Dict[str, Any] = {}
        for objective in self.objectives:
            bad, total = self._window_counts(
                (tenant, objective), self._horizon or self._shortest, t
            )
            objectives[objective] = {
                "samples": total,
                "bad_fraction": (bad / total) if total else 0.0,
                "burn_rate": self.burn_rate(
                    tenant, objective, self._shortest, now=t
                ),
            }
        return {
            "alerts_total": self._fired_by_tenant.get(tenant, 0),
            "firing": self.firing(tenant),
            "max_burn_rate": self.max_burn_rate(tenant, now=t),
            "objectives": objectives,
        }


__all__ = [
    "ALERT_FORMAT",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_RULES",
    "BurnRateRule",
    "SloObjective",
    "SloTracker",
]
