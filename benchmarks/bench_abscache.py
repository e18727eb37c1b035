"""CI sanitize smoke: abstract-analysis runtime and sanitizer overhead.

A small, dependency-free timing check (no pytest-benchmark) for the CI
sanitize-smoke step::

    PYTHONPATH=src python benchmarks/bench_abscache.py [--length N] [--max-overhead X]

Two measurements, one artifact (``BENCH_abscache.json``):

* **Analysis runtime** — :func:`repro.staticcheck.classify_program` over
  every bundled toy-ISA program on the paper's headline geometry, with
  the per-program site classification counts recorded alongside the
  wall time.  The analysis is the cheap half of the differential
  soundness story, and this keeps it honest: a fixpoint regression that
  blows the worklist up shows here long before a test times out.
* **CheckedEngine overhead** — the PDP-11 ED trace through
  ``reference`` and ``checked`` engines; the checked engine asserts the
  full cache-invariant suite after every access, so it is expected to
  be much slower.  The gate only fails when the overhead exceeds
  ``--max-overhead`` (default 400x), i.e. when the sanitizer stops
  being usable even for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.config import CacheGeometry
from repro.engine import TraceView, make_engine
from repro.staticcheck import classify_program
from repro.trace.filters import reads_only
from repro.workloads import assemble_program
from repro.workloads.programs import PROGRAMS
from repro.workloads.suites import suite_trace

GEOMETRY = CacheGeometry(1024, 16, 8)


def _time_analysis():
    results = {}
    for name in sorted(PROGRAMS):
        program = assemble_program(name, 2)
        start = time.perf_counter()
        report = classify_program(program, GEOMETRY, name=name)
        seconds = time.perf_counter() - start
        results[name] = {
            "seconds": seconds,
            "sites": len(report.sites),
            "counts": report.counts,
            "unclassified_fraction": report.unclassified_fraction,
        }
        print(
            f"{name:>12s}: {seconds * 1e3:7.2f} ms, {len(report.sites):4d} sites, "
            f"{report.unclassified_fraction:.2f} unclassified"
        )
    return results


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

    print("abstract-interpretation analysis (1024:16,8):")
    analysis = _time_analysis()
    print("engine overhead (pdp11/ED, reads only):")
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
                "analysis": analysis,
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
