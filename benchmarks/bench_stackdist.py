"""CI grid-speedup gate: one-pass stackdist vs per-cell sweeps.

A dependency-free timing check for the CI stackdist-smoke step::

    PYTHONPATH=src python benchmarks/bench_stackdist.py [--length N] [--min-speedup X]

Builds a 64-cell constant-sets LRU grid (16 associativities x 4
sub-block sizes, net size co-varying with associativity so every cell
shares one ``(block_size, num_sets)`` pass group), runs it through
``run_sweep`` twice — the default engine, which answers it from
stack-distance passes, versus ``engine="vectorized"``, which runs every
cell on its own — verifies every ratio triple is identical, writes
``BENCH_stackdist.json`` next to this file, and exits non-zero if the
pass engine is not at least ``--min-speedup`` (default 10) times
faster.

The grid is the stack-distance engine's home turf on purpose: the
whole point of the subsystem is collapsing O(cells x trace) to
O(groups x trace), and this gate pins the collapse at >= 10x so a
regression back toward per-cell cost fails loudly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.config import CacheGeometry
from repro.runner.chaos import points_digest
from repro.runner.runner import RunnerConfig, run_sweep
from repro.workloads.suites import suite_trace

ASSOCIATIVITIES = (1, 2, 4, 8, 16, 32, 64, 128)
BLOCKS_AND_SUBS = ((16, (2, 4, 8, 16)), (32, (2, 4, 8, 16, 32)))
NUM_SETS = 64

#: Artifact key -> the RunnerConfig of that sweep.
RUNS = {"percell": {"engine": "vectorized"}, "stackdist": {}}


def build_grid():
    """72 geometries in two (block, sets=64) pass groups.

    Net size co-varies with associativity, so each block size's nine
    sub x eight assoc cells share one group.  With the two traces
    below that is a 144-cell sweep answered by four passes instead of
    144 per-cell runs.
    """
    return [
        CacheGeometry(
            net_size=block * NUM_SETS * assoc, block_size=block,
            sub_block_size=sub, associativity=assoc,
        )
        for block, subs in BLOCKS_AND_SUBS
        for assoc in ASSOCIATIVITIES
        for sub in subs
    ]


def _time_sweep(traces, grid, run: str, repeats: int):
    best = float("inf")
    points = None
    for _ in range(repeats):
        start = time.perf_counter()
        points, _report = run_sweep(
            traces, grid, config=RunnerConfig(**RUNS[run])
        )
        best = min(best, time.perf_counter() - start)
    return points, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Long enough to amortize per-sweep fixed costs (prep, planning,
    # report); at 60k accesses the measured speedup is ~12x, giving
    # the 10x gate real headroom.
    parser.add_argument("--length", type=int, default=60_000)
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)

    traces = [
        suite_trace("pdp11", "ED", length=args.length),
        suite_trace("pdp11", "ROFF", length=args.length),
    ]
    grid = build_grid()
    # Warm the shared decode caches so the comparison is sweep cost,
    # not first-touch decode cost.
    _time_sweep(traces, grid[:4], "percell", 1)

    cells = len(grid) * len(traces)
    results = {}
    points = {}
    for run in RUNS:
        pts, seconds = _time_sweep(traces, grid, run, args.repeats)
        points[run] = pts
        results[run] = {
            "cells": cells,
            "best_seconds": seconds,
            "cells_per_second": cells / seconds,
        }
        print(
            f"{run:>10s}: {cells} cells in {seconds * 1e3:9.1f} ms "
            f"({cells / seconds:8.1f} cells/s)"
        )

    if points_digest(points["percell"]) != points_digest(points["stackdist"]):
        print("bench-stackdist: FAIL — passes and per-cell runs disagree on the ratios")
        return 1

    speedup = (
        results["stackdist"]["cells_per_second"]
        / results["percell"]["cells_per_second"]
    )
    artifact = Path(__file__).resolve().parent / "BENCH_stackdist.json"
    artifact.write_text(
        json.dumps(
            {
                "trace": f"pdp11/ED+ROFF length={args.length}",
                "grid": (
                    f"{cells} cells: blocks {{16, 32}}, sets {NUM_SETS}, "
                    f"assoc {ASSOCIATIVITIES[0]}..{ASSOCIATIVITIES[-1]} x "
                    f"subs 2..block x {len(traces)} traces"
                ),
                "engines": results,
                "speedup_stackdist_vs_percell": speedup,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"   speedup: {speedup:.2f}x (artifact: {artifact})")
    if speedup < args.min_speedup:
        print(
            f"bench-stackdist: FAIL — stackdist must be >= "
            f"{args.min_speedup}x the per-cell sweep"
        )
        return 1
    print("bench-stackdist: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
