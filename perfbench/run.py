"""Repository benchmark: one workload, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload small_reduce --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a run that adds the
benchmark's call spans and, where the runtime supports it, the
runtime's Figure-3 spans.  Every metric is printed by name with its
unit on the last line of standard output, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any correctness check failed and 2 when the program under
test is missing.  As a check on the host's load, a fixed Python loop
is timed before and after the run, and the share of CPU time the
hypervisor stole during the run is read from ``/proc/stat``.  Both go
to standard error, and the run is flagged when the steal is above the
quiet-host range; a ``--trace 1`` run also prints them as
``host.loop_ms`` and ``host.steal_frac``.  ``NOTES.md`` explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("small_reduce", "large_reduce", "gateway_mix")
#: Upper end of the stolen CPU share on a quiet host (2-CPU VM).  Runs
#: above it were the slow ones; the loop time, also printed, varied as
#: much between steady runs as between slow ones, so it flags nothing.
QUIET_STEAL_FRAC = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_loop_ms() -> float:
    """Median of three timings of a fixed pure-Python loop, in ms."""

    def once() -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(2_000_000):
            x += i * i
        return time.perf_counter() - t0

    return statistics.median(once() for _ in range(3)) * 1e3


def cpu_jiffies() -> tuple:
    """(stolen, total) CPU time of the machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Comm-node processes import the package too: without this they
    # fail at start-up with "No module named 'repro'".
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    loop_before = host_loop_ms()
    stolen0, total0 = cpu_jiffies()
    correct, attempted, failed, metrics = workload.run(args.seconds, bool(args.trace))
    stolen1, total1 = cpu_jiffies()
    loop_after = host_loop_ms()
    steal = (stolen1 - stolen0) / max(total1 - total0, 1)
    print(
        f"host check: fixed loop {loop_before:.1f} ms before, {loop_after:.1f} ms "
        f"after the run, {steal:.1%} of CPU time stolen during it (quiet host: "
        f"at most {QUIET_STEAL_FRAC:.0%})"
        + (" -- LOADED HOST, figures not comparable"
           if steal > QUIET_STEAL_FRAC else ""),
        file=sys.stderr,
    )
    if args.trace:
        metrics["host.loop_ms"] = (max(loop_before, loop_after), "ms")
        metrics["host.steal_frac"] = (steal, "frac")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
