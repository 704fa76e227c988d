"""Shared plumbing for the end-to-end benchmark: paths, statistics,
digests, set-up probes and the result line.

Everything here runs outside the program under test: it locates the
source tree of the checkout, spawns fresh interpreters to time set-up,
and formats the one JSON result line the benchmark prints last.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Mapping, Sequence


#: Checkout root: the directory that holds ``perfbench/`` and ``src/``.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: ``prctl`` option: the signal a child gets when its parent dies.
PR_SET_PDEATHSIG = 1

#: Fresh-interpreter set-up probes per run; ``setup_s`` is the median of
#: their times at nominal host speed.
SETUP_REPEATS = 5


class BenchError(Exception):
    """The benchmark cannot run or cannot judge its outputs."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and import it.

    Raises :class:`BenchError` when the tree holds no program, so a
    checkout stripped to the benchmark's own files exits non-zero
    without printing a result.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program source under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def die_with_parent() -> None:
    """``preexec_fn`` for long-lived children: the kernel sends them
    SIGTERM when this process dies, however it dies."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ------------------------------------------------------------- statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


# ---------------------------------------------------------------- digests


def digest(payload: Mapping) -> str:
    """Stable sha256 of a JSON-serializable mapping."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_payload(report) -> dict:
    """A detection report as plain JSON, without evidence bundles."""
    payload = report.to_dict()
    for verdict in payload.get("verdicts", ()):
        verdict.pop("evidence", None)
    return payload


def load_reference() -> dict:
    """The frozen known-answer digests, read from :data:`REFERENCE_PATH`."""
    path = REFERENCE_PATH
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read reference digests {path}: {exc}")


# ---------------------------------------------------------------- memory


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds a live child process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ------------------------------------------------------------ set-up probe

# After the set-up, the probe calibrates the host (see hostspeed.py) and
# prints how long that took and the slowdown it found.
_DETECT_SETUP = (
    "from repro.analysis import figures\n"
    "from repro.core.detector import CCHunter\n"
    "from repro.sim.machine import Machine\n"
    "CCHunter(Machine(seed=0))\n"
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "from hostspeed import slowdown\n"
    "t0 = time.perf_counter()\n"
    "slow = slowdown()\n"
    "print(time.perf_counter() - t0, slow)\n"
)


def detect_setup_s() -> float:
    """Median time, at nominal host speed, of a fresh interpreter
    importing the detector and building its first Machine + CCHunter.

    Each probe calibrates the host right after its set-up, in the same
    busy process, and is scaled by that; the calibration's own time is
    left out.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _DETECT_SETUP],
            env=child_env(), cwd=ROOT, capture_output=True, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(
                "set-up probe failed: " + proc.stderr.decode()[-400:]
            )
        calibration_s, slow = map(float, proc.stdout.split())
        times.append((elapsed - calibration_s) / slow)
    return median(times)


# ------------------------------------------------------------ result line


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, float],
    units: Mapping[str, str],
) -> str:
    """The benchmark's last stdout line: one JSON object."""
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    unknown = set(metrics) - set(units)
    if unknown:
        raise BenchError(f"metrics not declared: {sorted(unknown)}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })


def log(message: str) -> None:
    """Progress to stderr, so stdout ends with the result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}
