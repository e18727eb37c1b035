"""Engineering benchmarks: simulator throughput (both engines).

These time the library itself rather than reproducing a paper artifact:
cache-access throughput bounds how long a full 1M-reference
reproduction takes, and the reference-versus-vectorized comparison
measures the engine layer's speedup (and re-checks equivalence on the
way).  The "LRU permits more efficient simulation" point (one pass
instead of one simulation per cache size) is gated by
``bench_stackdist.py``.

The engine comparison also writes a ``BENCH_engines.json`` artifact
next to this file, with per-engine ``accesses_per_second`` and the
speedup — the machine-readable form the CI perf-smoke step checks.
"""

import json
from pathlib import Path

from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.sim import simulate
from repro.engine import TraceView, make_engine
from repro.trace.filters import reads_only
from repro.workloads.suites import suite_trace

_ENGINE_RESULTS = {}
_ARTIFACT = Path(__file__).resolve().parent / "BENCH_engines.json"


def _bench_trace(trace_length):
    return reads_only(suite_trace("pdp11", "ED", length=trace_length))


def test_simulator_throughput(benchmark, trace_length):
    trace = _bench_trace(trace_length)

    def run():
        cache = SubBlockCache(CacheGeometry(1024, 16, 8))
        simulate(cache, trace)
        return cache.stats.accesses

    accesses = benchmark(run)
    benchmark.extra_info["accesses_per_round"] = accesses
    # Throughput counts simulated accesses (the whole trace), not just
    # the post-warm-up window the stats cover.
    benchmark.extra_info["accesses_per_second"] = len(trace) / benchmark.stats["mean"]


def _bench_engine(benchmark, trace_length, name):
    trace = _bench_trace(trace_length)
    engine = make_engine(name)
    geometry = CacheGeometry(1024, 16, 8)
    view = TraceView.of(trace)
    # Decode outside the timed region for the vectorized engine, as a
    # sweep would: the arrays are computed once and shared by every
    # geometry ("decode once, simulate many").
    view.demand(geometry, 2)
    view.set_and_tag(geometry)

    def run():
        return engine.run(geometry, view)

    stats = benchmark(run)
    # Throughput counts simulated accesses (the whole trace), not just
    # the post-warm-up window the stats cover.
    per_second = len(trace) / benchmark.stats["mean"]
    benchmark.extra_info["engine"] = name
    benchmark.extra_info["accesses_per_round"] = len(trace)
    benchmark.extra_info["accesses_per_second"] = per_second
    _ENGINE_RESULTS[name] = {
        "accesses": len(trace),
        "mean_seconds": benchmark.stats["mean"],
        "accesses_per_second": per_second,
        "miss_ratio": stats.miss_ratio,
    }
    return stats


def test_engine_reference_throughput(benchmark, trace_length):
    _bench_engine(benchmark, trace_length, "reference")


def test_engine_vectorized_throughput(benchmark, trace_length):
    stats = _bench_engine(benchmark, trace_length, "vectorized")
    reference = _ENGINE_RESULTS.get("reference")
    if reference is not None:
        # Cross-engine checks ride along with the timing: identical
        # results, and the batch engine must actually be faster.
        assert stats.miss_ratio == reference["miss_ratio"]
        speedup = (
            _ENGINE_RESULTS["vectorized"]["accesses_per_second"]
            / reference["accesses_per_second"]
        )
        benchmark.extra_info["speedup_vs_reference"] = speedup
        _ARTIFACT.write_text(
            json.dumps(
                {
                    "trace": "pdp11/ED (reads only)",
                    "geometry": "1024:16,8@4",
                    "engines": _ENGINE_RESULTS,
                    "speedup_vectorized_vs_reference": speedup,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        assert speedup > 1.0

