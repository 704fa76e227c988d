"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public callables — methods on live instances,
or names in a module's globals — with timing wrappers, and puts every
original back on :meth:`Tracer.restore`. Wrappers keep a stack of open
calls, so a layer's *self* time is its own duration minus the time of
the wrapped calls nested inside it (the conflict tracker runs inside
the L2 kernels, which run inside ``Engine.run_until``).

Rules the wrappers keep so a traced run computes exactly what an
untraced one does:

- Only public names are wrapped; arguments and results pass through.
- ``SharedCache.access`` is never set on an instance: the cache turns
  its batch kernel off when ``"access"`` is in the instance dict.
- A replaced class is a factory returning the real class's instance,
  so identity and ``type()`` checks inside the program still hold.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, List, Optional, Tuple


class Tracer:
    """Nested wall-time spans over wrapped callables."""

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack: List[float] = []
        self._patched: List[Tuple[object, str, object, bool]] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under span ``name``.

        ``on_call(*args, **kwargs)`` runs before the call, outside the
        timed region, for counts read off the arguments.
        """
        if attr == "access" and type(owner).__name__ == "SharedCache":
            raise ValueError("wrapping SharedCache.access disables its "
                             "batch kernel")
        original = getattr(owner, attr)
        stack = self._stack
        total, self_time, calls = self.total, self.self_time, self.calls

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = stack.pop()
                total[name] += elapsed
                self_time[name] += elapsed - nested
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        async def traced_async(*args, **kwargs):
            # Coroutines interleave across awaits, so they keep no place
            # on the nesting stack: their spans give totals, not self time.
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                total[name] += perf_counter() - t0
                calls[name] += 1

        is_async = inspect.iscoroutinefunction(original)
        self.replace(owner, attr, traced_async if is_async else traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        had_own = attr in getattr(owner, "__dict__", {})
        self._patched.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every wrapped callable, last wrapped first."""
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ------------------------------------------------------- detection pipeline


def trace_session(tracer: Tracer, session, counts: dict) -> None:
    """Wrap a ``DetectionSession``'s ``push_quantum`` and ``close``.

    ``counts["conflict_records"]`` grows by the L2 conflict records each
    pushed observation carries.
    """

    def count_records(obs):
        if obs.conflicts is not None:
            counts["conflict_records"] += int(obs.conflicts.times.size)

    tracer.wrap(session, "push_quantum", "pipeline.session.push",
                on_call=count_records)
    tracer.wrap(session, "close", "pipeline.session.close")


def trace_analyzers(tracer: Tracer, session, wrapped: set) -> None:
    """Wrap ``push`` and ``verdict`` of each analyzer of ``session`` not
    yet in ``wrapped`` (a set of analyzer ids)."""
    from repro.pipeline.analyzers import OscillationAnalyzer

    for analyzer in session.analyzers:
        if id(analyzer) in wrapped:
            continue
        wrapped.add(id(analyzer))
        kind = ("oscillation" if isinstance(analyzer, OscillationAnalyzer)
                else "burst")
        tracer.wrap(analyzer, "push", f"pipeline.analyzer.push.{kind}")
        tracer.wrap(analyzer, "verdict", "pipeline.analyzer.verdict")


def trace_recurrence(tracer: Tracer) -> None:
    """Wrap the recurrence analysis the oscillation analyzers call."""
    from repro.pipeline import analyzers

    tracer.wrap(analyzers, "analyze_recurrence", "core.recurrence")


def pipeline_metrics(tracer: Tracer, counts: dict) -> dict:
    """The ``pipeline.*`` and ``core.*`` per-layer metrics."""
    total = tracer.total
    return {
        "pipeline.conflict_records": counts["conflict_records"],
        "pipeline.session.push_s": total["pipeline.session.push"],
        "pipeline.analyzer.push_s.burst":
            total["pipeline.analyzer.push.burst"],
        "pipeline.analyzer.push_s.oscillation":
            total["pipeline.analyzer.push.oscillation"],
        "pipeline.analyzer.verdict_s": total["pipeline.analyzer.verdict"],
        "core.recurrence_s": total["core.recurrence"],
        "pipeline.session.close_s": total["pipeline.session.close"],
    }
