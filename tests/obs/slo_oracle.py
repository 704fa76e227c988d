"""Reference SLO windows by linear scan (test oracle).

This is the storage production used before window queries became
bisections: each ``(tenant, objective)`` keeps a ``deque`` of
``(timestamp, bad)`` samples capped at the newest 4096, pruned past the
horizon on every append, and every window query walks it back from the
newest sample. ``repro.obs.slo.SloTracker`` must match it exactly —
burn rates, alert documents, firing sets and tenant snapshots
(``test_slo_oracle``). Alerts here are returned, not logged, counted
or written, so the oracle has no side effects to configure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Set, Tuple

from repro.obs.slo import (
    ALERT_FORMAT,
    DEFAULT_OBJECTIVES,
    DEFAULT_RULES,
    BurnRateRule,
    SloObjective,
)

MAX_SAMPLES = 4096


class SloOracle:
    """Linear-scan twin of ``SloTracker``'s window and alert logic."""

    def __init__(
        self,
        objectives: Tuple[SloObjective, ...] = DEFAULT_OBJECTIVES,
        rules: Tuple[BurnRateRule, ...] = DEFAULT_RULES,
    ):
        self.objectives = {obj.name: obj for obj in objectives}
        self.rules = tuple(rules)
        self.horizon = max(
            (rule.long_window_s for rule in self.rules), default=0.0
        )
        self.samples: Dict[Tuple[str, str], Deque[Tuple[float, bool]]] = {}
        self.firing_keys: Set[Tuple[str, str, str]] = set()
        self.alerts_fired = 0
        self.fired_by_tenant: Dict[str, int] = {}

    def observe(self, tenant: str, objective: str, bad: bool, now: float):
        window = self.samples.get((tenant, objective))
        if window is None:
            window = self.samples[(tenant, objective)] = deque(
                maxlen=MAX_SAMPLES
            )
        window.append((now, bool(bad)))
        horizon = now - self.horizon
        while window and window[0][0] < horizon:
            window.popleft()

    def window_counts(
        self, key: Tuple[str, str], window_s: float, now: float
    ) -> Tuple[int, int]:
        samples = self.samples.get(key)
        if not samples:
            return 0, 0
        cutoff = now - window_s
        bad = total = 0
        for t, is_bad in reversed(samples):
            if t < cutoff:
                break
            total += 1
            bad += is_bad
        return bad, total

    def burn_rate(
        self, tenant: str, objective: str, window_s: float, now: float
    ) -> float:
        bad, total = self.window_counts((tenant, objective), window_s, now)
        if total == 0:
            return 0.0
        return (bad / total) / self.objectives[objective].budget

    def evaluate(self, tenant: str, now: float) -> List[Dict[str, Any]]:
        fired = []
        for objective in self.objectives:
            for rule in self.rules:
                key = (tenant, rule.name, objective)
                _, short_total = self.window_counts(
                    (tenant, objective), rule.short_window_s, now
                )
                burn_short = self.burn_rate(
                    tenant, objective, rule.short_window_s, now
                )
                burn_long = self.burn_rate(
                    tenant, objective, rule.long_window_s, now
                )
                if not (
                    short_total >= rule.min_samples
                    and burn_short >= rule.threshold
                    and burn_long >= rule.threshold
                ):
                    self.firing_keys.discard(key)
                    continue
                if key in self.firing_keys:
                    continue
                self.firing_keys.add(key)
                self.alerts_fired += 1
                self.fired_by_tenant[tenant] = (
                    self.fired_by_tenant.get(tenant, 0) + 1
                )
                fired.append({
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
                })
        return fired

    def forget(self, tenant: str) -> None:
        for key in [k for k in self.samples if k[0] == tenant]:
            del self.samples[key]
        self.firing_keys = {k for k in self.firing_keys if k[0] != tenant}
        self.fired_by_tenant.pop(tenant, None)

    def firing(self, tenant: str) -> List[Dict[str, str]]:
        return [
            {"rule": rule, "objective": objective}
            for (who, rule, objective) in sorted(self.firing_keys)
            if who == tenant
        ]

    def tenant_snapshot(self, tenant: str, now: float) -> Dict[str, Any]:
        shortest = min(
            (rule.short_window_s for rule in self.rules),
            default=self.horizon or 60.0,
        )
        objectives = {}
        for objective in self.objectives:
            bad, total = self.window_counts(
                (tenant, objective), self.horizon or shortest, now
            )
            objectives[objective] = {
                "samples": total,
                "bad_fraction": (bad / total) if total else 0.0,
                "burn_rate": self.burn_rate(
                    tenant, objective, shortest, now
                ),
            }
        return {
            "alerts_total": self.fired_by_tenant.get(tenant, 0),
            "firing": self.firing(tenant),
            "max_burn_rate": max(
                self.burn_rate(tenant, objective, shortest, now)
                for objective in self.objectives
            ),
            "objectives": objectives,
        }
