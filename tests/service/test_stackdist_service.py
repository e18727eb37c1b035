"""Service-side stack-distance passes: equality, caching, export compat.

A batch answers two or more coverable queries that share a
``(block, sets)`` pass group from one pass; a lone query runs per cell.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec, prepare_trace, run_cell
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.workloads.suites import suite_trace


def grid_queries(**overrides):
    """Constant-sets quartet sharing one (block, sets) pass group."""
    return [
        SimQuery(
            suite="pdp11", trace="ED", length=4000, filter_writes=True,
            spec=CellSpec(
                CacheGeometry(256 * assoc, 16, 8, associativity=assoc),
                **overrides,
            ),
        )
        for assoc in (1, 2, 4, 8)
    ]


def simulate_batch(queries, config, deadline=None):
    async def main():
        service = SimulationService(config)
        await service.start()
        try:
            results = await asyncio.gather(
                *(service.simulate(query, deadline) for query in queries)
            )
            return results, service
        finally:
            await service.stop()

    return asyncio.run(main())


def test_batched_grid_answers_from_passes_and_matches_percell():
    queries = grid_queries()
    fast, _ = simulate_batch(queries, ServiceConfig(batch_window=0.05))
    # A forced engine runs every query per cell, like a sweep's engine=.
    slow, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, engine="vectorized")
    )
    for lhs, rhs in zip(fast, slow):
        assert lhs.entry.engine == "stackdist"
        assert rhs.entry.engine == "vectorized"
        # Exact equality of the ratio triple AND the full counter dump:
        # the pass path must be indistinguishable from per-cell.
        assert (lhs.entry.miss, lhs.entry.traffic, lhs.entry.scaled) == (
            rhs.entry.miss, rhs.entry.traffic, rhs.entry.scaled
        )
        assert lhs.entry.stats == rhs.entry.stats


def test_explicit_query_engine_stays_per_cell_like_the_runner():
    queries = grid_queries(engine="vectorized")
    results, _ = simulate_batch(queries, ServiceConfig(batch_window=0.05))
    assert [r.entry.engine for r in results] == ["vectorized"] * 4


def test_lone_query_runs_per_cell_and_a_pair_shares_one_pass():
    lone, pair = grid_queries()[:1], grid_queries()[:2]
    (single,), _ = simulate_batch(lone, ServiceConfig(batch_window=0.05))
    assert single.entry.engine == "vectorized"
    results, service = simulate_batch(pair, ServiceConfig(batch_window=0.05))
    assert [r.entry.engine for r in results] == ["stackdist"] * 2
    assert service.metrics.stage_seconds.count(
        labels={"stage": "simulate"}
    ) == 1
    # Same answer and same cache identity on either path.
    assert results[0].entry.stats == single.entry.stats
    assert results[0].entry.fingerprint == single.entry.fingerprint


def test_a_burst_on_an_idle_service_still_shares_one_pass():
    """Dispatch-at-once yields one loop turn first, so a gathered burst
    forms one batch under the default config."""
    results, service = simulate_batch(grid_queries(), ServiceConfig())
    assert [r.entry.engine for r in results] == ["stackdist"] * 4
    assert service.metrics.stage_seconds.count(
        labels={"stage": "simulate"}
    ) == 1


def test_a_mixed_fetch_burst_answers_each_query_under_its_own_fetch():
    demand = grid_queries()[:2]
    forward = grid_queries(fetch="load-forward")[:2]
    results, service = simulate_batch(demand + forward, ServiceConfig())
    assert [r.entry.engine for r in results] == ["stackdist"] * 4
    # One pass per fetch policy: a batch never mixes them.
    assert service.metrics.stage_seconds.count(
        labels={"stage": "simulate"}
    ) == 2
    prepared = prepare_trace(suite_trace("pdp11", "ED", length=4000), True)
    for query, result in zip(demand + forward, results):
        want = run_cell(prepared, query.spec)
        assert result.entry.stats == want.to_dict()
        assert (result.entry.miss, result.entry.traffic, result.entry.scaled) == (
            want.miss_ratio,
            want.traffic_ratio(),
            want.scaled_traffic_ratio(NIBBLE_MODE_BUS, query.spec.word_size),
        )
    assert results[0].entry.stats != results[2].entry.stats


def test_queries_with_deadlines_still_share_one_pass():
    pair = grid_queries()[:2]
    results, service = simulate_batch(
        pair, ServiceConfig(batch_window=0.05),
        deadline=time.monotonic() + 600.0,
    )
    assert [r.entry.engine for r in results] == ["stackdist"] * 2
    assert service.metrics.stage_seconds.count(
        labels={"stage": "simulate"}
    ) == 1


def test_noncoverable_queries_stay_percell():
    queries = grid_queries(replacement="fifo")
    results, _ = simulate_batch(queries, ServiceConfig(batch_window=0.05))
    assert all(r.entry.engine == "vectorized" for r in results)


def test_pass_results_are_cached():
    queries = grid_queries()

    async def main():
        service = SimulationService(ServiceConfig(batch_window=0.05))
        await service.start()
        try:
            first = await asyncio.gather(
                *(service.simulate(query) for query in queries)
            )
            again = await asyncio.gather(
                *(service.simulate(query) for query in queries)
            )
            return first, again
        finally:
            await service.stop()

    first, again = asyncio.run(main())
    assert all(r.source == "computed" for r in first)
    assert all(r.source in ("memory", "disk") for r in again)
    for lhs, rhs in zip(first, again):
        assert lhs.entry.stats == rhs.entry.stats


def test_exported_checkpoint_stays_byte_compatible(tmp_path):
    """Export of a stackdist-computed entry carries no engine key."""
    queries = grid_queries()
    results, service = simulate_batch(
        queries, ServiceConfig(batch_window=0.05)
    )
    assert results[0].entry.engine == "stackdist"
    checkpoint = tmp_path / "exported.jsonl"
    service.cache.export_checkpoint(results[0].entry.fingerprint, checkpoint)
    records = [
        json.loads(line) for line in checkpoint.read_text().splitlines()
    ]
    cells = [r for r in records if r.get("kind") == "cell"]
    assert cells and all("engine" not in record for record in cells)


def test_disk_hit_after_restart_reports_disk(tmp_path):
    """The batch's stack-distance pre-check must not promote a disk
    entry: after a restart the cell is served, and counted, as a disk
    hit."""
    query = grid_queries()[0]
    config = ServiceConfig(batch_window=0.05, store_dir=str(tmp_path))
    (first,), _ = simulate_batch([query], config)
    assert first.source == "computed"
    (again,), service = simulate_batch([query], config)
    assert again.source == "disk"
    assert service.metrics.cache_lookups_total.value(
        labels={"outcome": "disk"}
    ) == 1
    assert again.entry == first.entry
