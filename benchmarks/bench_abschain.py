"""CI abschain smoke: hierarchical analysis runtime and coverage.

A small, dependency-free timing check (no pytest-benchmark) for the CI
abschain-smoke step::

    PYTHONPATH=src python benchmarks/bench_abschain.py [--max-seconds X]

Two measurements, one artifact (``BENCH_abschain.json``):

* **Analysis runtime** — :func:`repro.staticcheck.classify_chain_program`
  over every bundled toy-ISA program on the regression geometry with
  the full victim+stream+L2 chain.  The chain analysis composes four
  abstract domains on top of the L1 fixpoint, so this is where a
  worklist regression would blow up first.
* **Classification coverage** — the fraction of sites the hierarchical
  analysis proves something about; a program dropping to zero fails
  the smoke.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.config import CacheGeometry
from repro.staticcheck import classify_chain_program
from repro.workloads import assemble_program
from repro.workloads.programs import PROGRAMS

GEOMETRY = CacheGeometry(256, 16, 16, associativity=2)
CHAIN = {"victim_entries": 4, "stream_buffers": 2, "l2_net_size": 4096}


def bench_program(name):
    program = assemble_program(name, 2)
    start = time.perf_counter()
    chained = classify_chain_program(
        program, GEOMETRY, miss_path=CHAIN, name=name
    )
    seconds = time.perf_counter() - start
    return {
        "analysis_seconds": seconds,
        "sites": len(chained.sites),
        "classified_fraction": chained.classified_fraction,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=30.0,
                        help="per-program analysis time gate")
    args = parser.parse_args(argv)

    chain_key = f"vc4+sb2x4+l2:{CHAIN['l2_net_size']}"
    print(f"hierarchical chain analysis (256:16,16@2, {chain_key}):")
    results = {}
    failures = []
    for name in sorted(PROGRAMS):
        row = results[name] = bench_program(name)
        print(
            f"{name:>12s}: {row['analysis_seconds'] * 1e3:7.2f} ms, "
            f"{row['sites']:4d} sites, "
            f"{row['classified_fraction']:.2f} classified"
        )
        if row["classified_fraction"] == 0:
            failures.append(f"{name}: analysis classified nothing")
        if row["analysis_seconds"] > args.max_seconds:
            failures.append(
                f"{name}: analysis took {row['analysis_seconds']:.1f}s "
                f"(gate {args.max_seconds}s)"
            )

    artifact = Path(__file__).resolve().parent / "BENCH_abschain.json"
    artifact.write_text(
        json.dumps(
            {
                "geometry": "256:16,16@2",
                "chain": chain_key,
                "programs": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"  artifact: {artifact}")
    for failure in failures:
        print(f"abschain-smoke: FAIL — {failure}")
    if failures:
        return 1
    print("abschain-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
