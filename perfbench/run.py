#!/usr/bin/env python3
"""The repository benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table7 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload half untraced and half with spans around every layer's entry
points, and prints the per-layer metrics.  Every metric is printed as a
line with its unit and sample count; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output check fails and 2 when the program cannot be found.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

WORKLOADS = ("table7", "design_space", "serve", "serve_crashsafe")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # One core for the benchmark and every process it starts: the host
    # speed probes then measure the core the program runs on (a serve
    # client waits while its server computes, so they never compete).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Unwind on SIGTERM so a started server is stopped, not orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    from common import END_TO_END, PER_LAYER, remove_scratch

    try:
        if args.workload in ("table7", "design_space"):
            import sweeps

            workload = getattr(sweeps, args.workload)(args.seed)
            result = (workload.per_layer if args.trace else workload.end_to_end)(args.seconds)
        else:
            import serving

            result = serving.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        remove_scratch()
    result.emit(PER_LAYER if args.trace else END_TO_END)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
