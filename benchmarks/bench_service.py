"""Load generator for the simulation service (CI service-smoke gate).

Dependency-free::

    PYTHONPATH=src python benchmarks/bench_service.py [--url http://...]

Without ``--url`` it spawns ``python -m repro serve --port 0`` as a
subprocess and aims at that.  Two phases drive ``POST /simulate`` from
a thread pool of concurrent clients:

* **cold** — every query is a distinct geometry, so every request
  simulates (this also fills the result cache);
* **warm** — a repeat-heavy mix (90% duplicates of the cold set by
  default), the query distribution interactive cache studies actually
  produce.

The run prints throughput and latency percentiles per phase, reads the
cache hit ratio back from ``GET /metrics``, writes
``BENCH_service.json`` next to this file, and exits non-zero unless
every request succeeded, the warm phase actually hit the cache, and
warm throughput beats cold throughput by ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SUITE = "pdp11"
TRACE = "ED"

#: Geometry axes the unique-query generator draws from.  Every combo is
#: a valid shape (sub <= block, net large enough for one set).
NETS = (128, 256, 512, 1024, 2048, 4096)
BLOCKS = (8, 16, 32)
SUBS = (2, 4, 8)
ASSOCS = (1, 2, 4)


def unique_geometries(count: int, seed: int) -> List[Dict[str, int]]:
    """The first ``count`` distinct shapes of a seeded shuffle."""
    combos = [
        {"net": net, "block": block, "sub": sub, "assoc": assoc}
        for net in NETS
        for block in BLOCKS
        for sub in SUBS
        if sub <= block
        for assoc in ASSOCS
        if net // (block * assoc) >= 1
    ]
    random.Random(seed).shuffle(combos)
    if count > len(combos):
        raise SystemExit(
            f"bench_service: only {len(combos)} distinct geometries "
            f"available, {count} requested"
        )
    return combos[:count]


class Client:
    """Minimal blocking HTTP client for one base URL."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def post(self, path: str, payload: dict) -> Tuple[int, dict]:
        request = urllib.request.Request(
            self.base_url + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read() or b"{}")

    def get_text(self, path: str) -> str:
        with urllib.request.urlopen(
            self.base_url + path, timeout=self.timeout
        ) as resp:
            return resp.read().decode()


def percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1) + 0.5)
    )
    return sorted_values[index]


def run_phase(
    client: Client,
    name: str,
    queries: List[dict],
    concurrency: int,
) -> Dict[str, float]:
    """Fire one phase's queries concurrently; return its summary."""
    latencies: List[float] = []
    failures = 0
    by_source: Dict[str, List[float]] = {}

    def one(query: dict) -> None:
        nonlocal failures
        started = time.perf_counter()
        status, payload = client.post("/simulate", query)
        elapsed = time.perf_counter() - started
        latencies.append(elapsed)
        if status != 200:
            failures += 1
        else:
            by_source.setdefault(payload.get("source", "?"), []).append(elapsed)

    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(one, queries))
    wall = time.perf_counter() - wall_started

    ordered = sorted(latencies)
    summary = {
        "requests": len(queries),
        "failures": failures,
        "success_rate": (len(queries) - failures) / len(queries),
        "wall_seconds": wall,
        "throughput_rps": len(queries) / wall,
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "sources": {source: len(times) for source, times in by_source.items()},
        "p50_ms_by_source": {
            source: percentile(sorted(times), 0.50) * 1e3
            for source, times in by_source.items()
        },
    }
    print(
        f"{name:>5s}: {summary['throughput_rps']:8.1f} req/s  "
        f"p50 {summary['p50_ms']:7.2f} ms  p95 {summary['p95_ms']:7.2f} ms  "
        f"p99 {summary['p99_ms']:7.2f} ms  "
        f"failures {failures}/{len(queries)}  sources {summary['sources']}"
    )
    print("       p50 by source: " + "  ".join(
        f"{source} {ms:.2f} ms"
        for source, ms in sorted(summary["p50_ms_by_source"].items())
    ))
    return summary


def scrape_hit_ratio(metrics_text: str) -> float:
    match = re.search(
        r"^repro_service_cache_hit_ratio ([0-9.eE+-]+)$",
        metrics_text,
        re.MULTILINE,
    )
    return float(match.group(1)) if match else -1.0


def spawn_server(
    length: int,
    extra_args: Tuple[str, ...] = (),
    env: Optional[Dict[str, str]] = None,
) -> Tuple[subprocess.Popen, str]:
    """Start ``python -m repro serve --port 0``; return (proc, url)."""
    full_env = None
    if env:
        full_env = dict(os.environ)
        full_env.update(env)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--length", str(length),
            "serve", "--port", "0", "--workers", "2",
            *extra_args,
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=full_env,
    )
    assert proc.stderr is not None
    deadline = time.time() + 30
    while time.time() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            raise SystemExit("bench_service: server exited before listening")
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if match:
            return proc, match.group(1)
    proc.terminate()
    raise SystemExit("bench_service: server never reported its port")


def scrape_metric(metrics_text: str, name: str, labels: str = "") -> float:
    needle = f"{name}{labels} "
    for line in metrics_text.splitlines():
        if line.startswith(needle):
            return float(line[len(needle):])
    return 0.0


def run_degraded(args) -> int:
    """Degraded mode: 1 of N supervised workers crash-looping.

    Two supervised runs over the same unique-query set: a healthy
    fleet, then one where worker 0 exits at startup forever (the
    supervisor keeps restarting it with backoff while worker 1 carries
    the load).  The service must stay at 100% success — slower is
    expected and reported, broken is a failure.  Writes
    ``BENCH_service_chaos.json``.
    """
    base = {"suite": SUITE, "trace": TRACE, "length": args.length}
    queries = [
        dict(base, **geometry)
        for geometry in unique_geometries(args.cold, args.seed)
    ]
    supervised = ("--supervised",)  # two workers: spawn_server's --workers 2
    phases = {}
    restarts = workers_alive = 0.0
    for name, env in (
        ("healthy", None),
        ("degraded", {
            "REPRO_WORKER_CRASH_ON_START": "1",
            "REPRO_WORKER_CHAOS_INDEX": "0",
        }),
    ):
        proc, url = spawn_server(args.length, supervised, env)
        client = Client(url)
        try:
            phases[name] = run_phase(client, name, queries, args.concurrency)
            metrics = client.get_text("/metrics")
            if name == "degraded":
                restarts = scrape_metric(
                    metrics,
                    "repro_service_worker_restarts_total",
                    '{reason="crashed"}',
                )
                workers_alive = scrape_metric(
                    metrics, "repro_service_workers_alive"
                )
        finally:
            proc.terminate()
            proc.wait(timeout=15)

    slowdown = (
        phases["degraded"]["wall_seconds"] / phases["healthy"]["wall_seconds"]
    )
    artifact = Path(
        args.out
        if args.out is not None
        else Path(__file__).resolve().parent / "BENCH_service_chaos.json"
    )
    artifact.write_text(
        json.dumps(
            {
                "workload": {
                    "suite": SUITE, "trace": TRACE, "length": args.length,
                    "unique_queries": args.cold,
                    "concurrency": args.concurrency, "seed": args.seed,
                },
                "fleet": {"workers": 2, "crash_looping": 1},
                "healthy": phases["healthy"],
                "degraded": phases["degraded"],
                "degraded_slowdown": slowdown,
                "worker_restarts_crashed": restarts,
                "workers_alive_at_end": workers_alive,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(
        f"  degraded slowdown: {slowdown:.2f}x   crash-loop restarts: "
        f"{restarts:.0f}   (artifact: {artifact})"
    )

    failed = []
    for name in ("healthy", "degraded"):
        if phases[name]["success_rate"] < args.min_success:
            failed.append(
                f"{name} success rate {phases[name]['success_rate']:.3f} "
                f"< {args.min_success}"
            )
    if restarts < 1:
        failed.append("the crash-looping worker was never restarted")
    if failed:
        for reason in failed:
            print(f"service-chaos-bench: FAIL — {reason}")
        return 1
    print("service-chaos-bench: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default=None,
        help="target a running service instead of spawning one",
    )
    parser.add_argument("--length", type=int, default=8_000)
    parser.add_argument("--cold", type=int, default=32, metavar="N",
                        help="unique queries in the cold phase")
    parser.add_argument("--warm", type=int, default=200, metavar="N",
                        help="queries in the warm phase")
    parser.add_argument("--duplicate-fraction", type=float, default=0.9)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-success", type=float, default=1.0)
    parser.add_argument("--min-hit-ratio", type=float, default=0.5)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="artifact path (default: BENCH_service.json "
                             "next to this script)")
    parser.add_argument(
        "--degraded", action="store_true",
        help="benchmark a supervised fleet with 1 of 2 workers "
             "crash-looping instead (writes BENCH_service_chaos.json)",
    )
    args = parser.parse_args(argv)

    if args.degraded:
        if args.url is not None:
            parser.error("--degraded spawns its own servers; drop --url")
        return run_degraded(args)

    base = {"suite": SUITE, "trace": TRACE, "length": args.length}
    rng = random.Random(args.seed)
    cold_set = unique_geometries(args.cold, args.seed)
    # Warm mix: mostly re-asks of the cold set, plus a fresh minority.
    fresh_needed = sum(
        1 for _ in range(args.warm) if rng.random() >= args.duplicate_fraction
    )
    fresh = unique_geometries(args.cold + fresh_needed, args.seed)[args.cold:]
    rng = random.Random(args.seed)  # replay the same duplicate/fresh coin
    warm_set = []
    fresh_iter = iter(fresh)
    for _ in range(args.warm):
        if rng.random() < args.duplicate_fraction:
            warm_set.append(rng.choice(cold_set))
        else:
            warm_set.append(next(fresh_iter))

    proc: Optional[subprocess.Popen] = None
    if args.url is None:
        proc, url = spawn_server(args.length)
    else:
        url = args.url
    client = Client(url)

    try:
        cold = run_phase(
            client, "cold",
            [dict(base, **geometry) for geometry in cold_set],
            args.concurrency,
        )
        warm = run_phase(
            client, "warm",
            [dict(base, **geometry) for geometry in warm_set],
            args.concurrency,
        )
        hit_ratio = scrape_hit_ratio(client.get_text("/metrics"))
        health = json.loads(client.get_text("/healthz"))
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)

    speedup = warm["throughput_rps"] / cold["throughput_rps"]
    artifact = Path(
        args.out
        if args.out is not None
        else Path(__file__).resolve().parent / "BENCH_service.json"
    )
    artifact.write_text(
        json.dumps(
            {
                "workload": {
                    "suite": SUITE, "trace": TRACE, "length": args.length,
                    "duplicate_fraction": args.duplicate_fraction,
                    "concurrency": args.concurrency, "seed": args.seed,
                },
                "cold": cold,
                "warm": warm,
                "cache_hit_ratio": hit_ratio,
                "speedup_warm_vs_cold": speedup,
                "server": {
                    "version": health.get("version"),
                    "breaker": health.get("breaker"),
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(
        f"  hit ratio: {hit_ratio:.3f}   warm/cold speedup: {speedup:.1f}x "
        f"(artifact: {artifact})"
    )

    failed = []
    for phase_name, phase in (("cold", cold), ("warm", warm)):
        if phase["success_rate"] < args.min_success:
            failed.append(
                f"{phase_name} success rate {phase['success_rate']:.3f} "
                f"< {args.min_success}"
            )
    if hit_ratio < args.min_hit_ratio:
        failed.append(f"cache hit ratio {hit_ratio:.3f} < {args.min_hit_ratio}")
    if speedup < args.min_speedup:
        failed.append(f"warm/cold speedup {speedup:.1f}x < {args.min_speedup}x")
    if failed:
        for reason in failed:
            print(f"service-smoke: FAIL — {reason}")
        return 1
    print("service-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
