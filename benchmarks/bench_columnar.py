"""Extension: columnar hot path vs legacy full-history reads.

The structure-of-arrays refactor (docs/PERFORMANCE.md, "Columnar hot
path") claims two things: the streaming window readers make a whole
audited session markedly faster than re-reading full tap history each
quantum, and the vectorized ``push_batch`` estimator kernels beat their
per-event ``push`` adapters by an order of magnitude or more. This bench
measures both claims on the same hardware and commits the numbers to
``BENCH_columnar.json`` at the repo root. The legacy side is the same
session with its source's window readers swapped, after ``audit``, for
the full-history reader oracles of ``tests/sim/cache_oracle.py``; the
two sides must produce identical verdicts.

``REPRO_BENCH_QUICK=1`` shrinks the trial count for CI smoke runs (the
speedup assertions still apply; the committed JSON is only rewritten by
a full run).
"""

import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np

from conftest import record

from repro.config import MachineConfig
from repro.core.autocorr import RunningAutocorrelogram
from repro.core.density import StreamingDensityHistogram
from repro.core.detector import AuditUnit, CCHunter
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.machine import Machine
from repro.sim.process import BusLockBurst, Process

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
from tests.sim.cache_oracle import install_full_history_readers  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_QUANTA = 30
N_TRIALS = 2 if QUICK else 5
KERNEL_SAMPLES = 50_000 if QUICK else 200_000

_OUT_PATH = os.path.join(_ROOT, "BENCH_columnar.json")


def _run_session(columnar):
    """One audited membus session; returns (seconds, verdict dict).

    ``columnar=False`` reads the taps' full history every quantum.
    """
    config = MachineConfig(os_quantum_seconds=0.002)
    machine = Machine(config=config, seed=7, metrics=NULL_REGISTRY)
    hunter = CCHunter(
        machine, track_detection_latency=True, metrics=NULL_REGISTRY
    )
    hunter.audit(AuditUnit.MEMORY_BUS, dt=1000)
    if not columnar:
        install_full_history_readers(hunter.source)

    def trojan(proc):
        while True:
            yield BusLockBurst(count=300, period=200)

    machine.spawn(Process("trojan", body=trojan), ctx=0)
    t0 = perf_counter()
    machine.run_quanta(N_QUANTA)
    return perf_counter() - t0, hunter.report().to_dict()


def _median_session_seconds():
    for mode in (True, False):  # warmup
        _run_session(mode)
    timings = {"columnar": [], "legacy": []}
    verdicts = {}
    for round_idx in range(N_TRIALS):
        order = (True, False) if round_idx % 2 == 0 else (False, True)
        for columnar in order:
            sec, verdict = _run_session(columnar)
            key = "columnar" if columnar else "legacy"
            timings[key].append(sec)
            verdicts[key] = verdict
    return (
        {k: statistics.median(v) for k, v in timings.items()},
        verdicts["columnar"] == verdicts["legacy"],
    )


def _time_kernel(fn, *args):
    # One untimed call first: a cold kernel's first BLAS calls can take
    # hundreds of times longer than warm ones, and best-of-3 need not
    # outlast that warm-up.
    fn(*args)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def _kernel_results():
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 2, size=KERNEL_SAMPLES).astype(np.int64)
    counts = rng.integers(0, 40, size=KERNEL_SAMPLES).astype(np.int64)

    def acf_push(values):
        est = RunningAutocorrelogram(64)
        for v in values:
            est.push(int(v))
        return est

    def acf_batch(values):
        est = RunningAutocorrelogram(64)
        est.push_batch(values)
        return est

    def density_push(values):
        est = StreamingDensityHistogram(dt=1000, n_bins=128)
        for v in values:
            est.push(int(v))
        return est

    def density_batch(values):
        est = StreamingDensityHistogram(dt=1000, n_bins=128)
        est.push_batch(values)
        return est

    out = {}
    for name, push, batch, data in (
        ("autocorrelogram", acf_push, acf_batch, labels),
        ("density_histogram", density_push, density_batch, counts),
    ):
        push_sec = _time_kernel(push, data)
        batch_sec = _time_kernel(batch, data)
        out[name] = {
            "samples": int(data.size),
            "push_seconds": push_sec,
            "push_batch_seconds": batch_sec,
            "speedup": push_sec / batch_sec,
        }
    return out


def measure_columnar():
    medians, verdicts_identical = _median_session_seconds()
    return {
        "n_quanta": N_QUANTA,
        "n_trials": N_TRIALS,
        "session": {
            "columnar_seconds": medians["columnar"],
            "legacy_seconds": medians["legacy"],
            "columnar_quanta_per_second": N_QUANTA / medians["columnar"],
            "legacy_quanta_per_second": N_QUANTA / medians["legacy"],
            "speedup": medians["legacy"] / medians["columnar"],
            "verdicts_identical": verdicts_identical,
        },
        "kernels": _kernel_results(),
    }


def test_columnar_speedup(benchmark):
    results = benchmark.pedantic(measure_columnar, rounds=1, iterations=1)
    if not QUICK:  # quick CI smoke must not rewrite the committed JSON
        with open(_OUT_PATH, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    ses = results["session"]
    lines = [
        f"session   columnar {ses['columnar_quanta_per_second']:8.1f} q/s, "
        f"legacy {ses['legacy_quanta_per_second']:8.1f} q/s "
        f"({ses['speedup']:.2f}x, verdicts identical: "
        f"{ses['verdicts_identical']})",
    ]
    for name, k in sorted(results["kernels"].items()):
        lines.append(
            f"{name:<18} push_batch {k['speedup']:6.1f}x faster than "
            f"per-event push ({k['samples']} samples)"
        )
    if not QUICK:
        lines.append(f"(written to {_OUT_PATH})")
    record("Extension: columnar hot path", *lines)
    # The streaming readers must actually pay for themselves...
    assert ses["speedup"] > 1.5, results
    # ...without changing a single verdict field.
    assert ses["verdicts_identical"], results
    # And the batch kernels must dominate their per-event adapters.
    for name, k in results["kernels"].items():
        assert k["speedup"] > 5.0, (name, results)
