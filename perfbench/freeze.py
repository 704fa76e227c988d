"""Freeze the detect workloads' known answers into ``reference.json``.

Run from the checkout root after a change that is *meant* to alter
simulated results (a speed-only change must leave every digest as it
is)::

    python3 perfbench/freeze.py

Each pool session runs once, untraced; its digest covers the final
report JSON, the engine's event count and the L2 hit, miss and
conflict-miss counters.
"""

from __future__ import annotations

import json
import sys

from harness import REFERENCE_PATH, import_program, log
import detect_load


def freeze() -> dict:
    reference = {}
    for workload in ("detect-burst", "detect-cache"):
        digests = {}
        for group in detect_load.pool(workload):
            for channel, seed in group:
                session = detect_load.run_session(channel, seed)
                if not session["detected"]:
                    log(f"warning: {channel}:{seed} is not detected")
                digests[f"{channel}:{seed}"] = session["digest"]
                log(f"{channel}:{seed} {session['wall_s']:.2f}s")
        reference[workload] = digests
    return reference


if __name__ == "__main__":
    import_program()
    reference = freeze()
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.exit(0)
