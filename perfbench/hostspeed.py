"""Host-speed calibration.

The small shared hosts this benchmark runs on change speed all the
time: short bursts of contention, a fraction of a second to a few
seconds long, and shifts of the whole host by 10% to 2x that last
minutes. Every CPU-bound figure moves with them, CPU time included (the
cause sits outside the guest, which cannot see it).

A fixed calibration :func:`kernel`, timed next to the work it scales,
in the same process and while it is busy, measures the host's current
*slowdown*: its time divided by :data:`NOMINAL_S`, its time on the
nominal host. Dividing a time by the slowdown measured with it gives
the time at nominal host speed, which is what the detect workloads
report: a session times one kernel call after every simulated quantum
and scales each quantum by the calls around it, and a set-up probe
calibrates in its own process right after its set-up.

Calibrations taken apart from the work read the host wrongly, by up to
2x either way: between sessions, between serve phases, or in a child
that only runs while the service idles. The serve workload, whose work
runs in another process, is therefore not calibrated.

The kernel mixes what the program spends its time on: interpreted
method calls, attribute and dict traffic, integer arithmetic, small
NumPy calls and a few sorts and scans over thousands of elements. It
never touches the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter
from typing import Iterator, List, Optional

import numpy as np

#: The time of one :func:`kernel` call on the nominal host (a 2-CPU Xeon
#: KVM guest running Python 3.11 at its fast speed). Only a unit: it
#: scales every normalized figure alike.
NOMINAL_S = 0.00265
#: A full calibration times this many kernel calls in a row, this many
#: times; the fastest counts, so a stray interrupt does not read as a
#: slow host.
CALLS, REPEATS = 4, 3


class _Particle:
    __slots__ = ("x", "v")

    def __init__(self, x: int) -> None:
        self.x = x
        self.v = 1

    def step(self, table: dict) -> int:
        self.x = (self.x * 1103515245 + 12345) & 0xFFFF
        table[self.x & 255] = table.get(self.x & 255, 0) + self.v
        return self.x


_VALUES = np.arange(512, dtype=np.int64)
_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 4096)


def kernel() -> int:
    """A fixed amount of interpreter and NumPy work, about 2.7 ms on the
    nominal host; returns a checksum."""
    table: dict = {}
    particles = [_Particle(i) for i in range(64)]
    acc = 0
    for _ in range(80):
        for particle in particles:
            acc ^= particle.step(table)
    for i in range(400):
        window = _VALUES[i & 255:(i & 255) + 64]
        acc += int(np.searchsorted(_VALUES, i)) + int(window.sum() & 7)
    for i in range(5):
        acc += (int(np.sort(_KEYS)[i]) + int(np.cumsum(_KEYS)[-1] & 7)
                + int(np.unique(_KEYS[i:i + 1024]).size))
    return acc + len(table)


def slowdown() -> float:
    """The host's current slowdown (1.0 at nominal speed) where this
    process runs: the fastest of :data:`REPEATS` timings of
    :data:`CALLS` kernel calls in a row."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(CALLS):
            kernel()
        best = min(best, perf_counter() - t0)
    return best / CALLS / NOMINAL_S


def usable_cpus() -> List[int]:
    """The CPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


@contextlib.contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Run this process on ``cpu`` alone for the block (no-op for None).

    Children spawned inside the block inherit the placement.
    """
    if cpu is None:
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)
