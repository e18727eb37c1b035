"""CI sanitize smoke: the checked engine's overhead over the reference loop.

A small, dependency-free timing check (no pytest-benchmark) for the CI
sanitize-smoke step::

    PYTHONPATH=src python benchmarks/bench_abscache.py [--length N] [--max-overhead X]

Runs the PDP-11 ED trace through the ``reference`` and ``checked``
engines and writes ``BENCH_abscache.json``.  The checked engine
asserts the full cache-invariant suite after every access, so it is
expected to be much slower; the gate only fails when the two disagree
on the miss ratio or the overhead exceeds ``--max-overhead`` (default
400x), i.e. when the sanitizer stops being usable even for smoke runs.
The abstract cache analysis is timed, under its own gate, by
``benchmarks/bench_abschain.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.config import CacheGeometry
from repro.engine import TraceView, make_engine
from repro.trace.filters import reads_only
from repro.workloads.suites import suite_trace

GEOMETRY = CacheGeometry(1024, 16, 8)


def _time_engines(length, repeats):
    trace = reads_only(suite_trace("pdp11", "ED", length=length))
    view = TraceView.of(trace)
    results = {}
    for name in ("reference", "checked"):
        engine = make_engine(name)
        engine.run(GEOMETRY, view)  # warm caches (decode, fetch plans)
        best = float("inf")
        stats = None
        for _ in range(repeats):
            start = time.perf_counter()
            stats = engine.run(GEOMETRY, view)
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "accesses": len(trace),
            "best_seconds": best,
            "accesses_per_second": len(trace) / best,
            "miss_ratio": stats.miss_ratio,
        }
        print(
            f"{name:>10s}: {len(trace) / best:12,.0f} accesses/s "
            f"({best * 1e3:7.2f} ms, miss ratio {stats.miss_ratio:.4f})"
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--max-overhead", type=float, default=400.0)
    args = parser.parse_args(argv)

    print("engine overhead (pdp11/ED, reads only, 1024:16,8):")
    engines = _time_engines(args.length, args.repeats)

    if engines["reference"]["miss_ratio"] != engines["checked"]["miss_ratio"]:
        print("sanitize-smoke: FAIL — checked engine disagrees on the miss ratio")
        return 1

    overhead = (
        engines["reference"]["accesses_per_second"]
        / engines["checked"]["accesses_per_second"]
    )
    artifact = Path(__file__).resolve().parent / "BENCH_abscache.json"
    artifact.write_text(
        json.dumps(
            {
                "geometry": "1024:16,8@4",
                "engines": engines,
                "overhead_checked_vs_reference": overhead,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"  overhead: {overhead:.1f}x (artifact: {artifact})")
    if overhead > args.max_overhead:
        print(
            f"sanitize-smoke: FAIL — checked engine is > {args.max_overhead}x "
            "slower than the reference loop"
        )
        return 1
    print("sanitize-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
