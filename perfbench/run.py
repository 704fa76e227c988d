"""End-to-end benchmark of the CC-Hunter reproduction.

Run one workload from the checkout root::

    python3 perfbench/run.py --workload detect-burst --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Progress goes to stderr; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Any wrong output (a known-answer mismatch,
a wrong verdict, a shed or unanswered observation) sets ``correct`` to
false and the exit code to 1; a run that cannot be measured exits 2
without a result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys

from harness import (
    BenchError,
    import_program,
    load_reference,
    log,
    metric_units,
    result_line,
)
from hostspeed import on_cpu, usable_cpus

WORKLOADS = ("detect-burst", "detect-cache", "serve-mixed")


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (attempted, failed, problems, metrics).

    The benchmark process runs on one CPU throughout; the service of
    serve-mixed gets another one when there is one.
    """
    import_program()
    with on_cpu(usable_cpus()[0]):
        return _measure(workload, seed, seconds, trace)


def _measure(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "serve-mixed":
        import serve_load

        measure = serve_load.measure_traced if trace else serve_load.measure
        return measure(seed, seconds)
    import detect_load

    measure = detect_load.measure_traced if trace else detect_load.measure
    return measure(workload, seed, seconds, load_reference())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one, so it stops its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        attempted, failed, problems, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
        )
        line = result_line(not failed, attempted, failed, metrics, units)
    except (BenchError, OSError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        log(f"FAILED {problem}")
    print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
