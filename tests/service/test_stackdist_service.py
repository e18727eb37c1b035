"""Service-side stack-distance passes: equality, caching, export compat."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.service import ServiceConfig, SimQuery, SimulationService


def grid_queries(**overrides):
    """Constant-sets quartet sharing one (block, sets) pass group."""
    return [
        SimQuery(
            suite="pdp11", trace="ED", length=4000,
            net=256 * assoc, block=16, sub=8, assoc=assoc,
            **overrides,
        )
        for assoc in (1, 2, 4, 8)
    ]


def simulate_batch(queries, config):
    async def main():
        service = SimulationService(config)
        await service.start()
        try:
            results = await asyncio.gather(
                *(service.simulate(query) for query in queries)
            )
            return results, service
        finally:
            await service.stop()

    return asyncio.run(main())


def test_grid_engine_validated():
    with pytest.raises(ConfigurationError):
        SimulationService(ServiceConfig(grid_engine="warp"))


def test_batched_grid_answers_from_passes_and_matches_percell():
    queries = grid_queries()
    fast, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, grid_engine="auto")
    )
    slow, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, grid_engine="percell")
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
        assert lhs.entry.fingerprint == rhs.entry.fingerprint


def test_forced_grid_overrides_an_explicit_engine_like_the_runner():
    """``grid_engine="stackdist"`` answers an explicit ``vectorized``
    query from a pass, exactly as the sweep runner plans it; the
    ``auto`` grid defers to the explicit engine, again like the runner.
    """
    from repro.stackdist.planner import plan_grid

    queries = grid_queries(engine="vectorized")
    forced, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, grid_engine="stackdist")
    )
    deferred, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, grid_engine="auto")
    )
    assert [r.entry.engine for r in forced] == ["stackdist"] * 4
    assert [r.entry.engine for r in deferred] == ["vectorized"] * 4
    for lhs, rhs in zip(forced, deferred):
        assert lhs.entry.stats == rhs.entry.stats
        assert lhs.entry.fingerprint == rhs.entry.fingerprint
    geometries = [query.geometry() for query in queries]
    assert plan_grid(geometries, "stackdist", engine="vectorized").covered == 4
    assert plan_grid(geometries, "auto", engine="vectorized").covered == 0


def test_noncoverable_queries_stay_percell():
    queries = grid_queries(replacement="fifo")
    results, _ = simulate_batch(
        queries, ServiceConfig(batch_window=0.05, grid_engine="auto")
    )
    assert all(r.entry.engine == "vectorized" for r in results)


def test_pass_results_are_cached():
    queries = grid_queries()

    async def main():
        service = SimulationService(
            ServiceConfig(batch_window=0.05, grid_engine="auto")
        )
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
        queries, ServiceConfig(batch_window=0.05, grid_engine="stackdist")
    )
    checkpoint = tmp_path / "exported.jsonl"
    service.cache.export_checkpoint(results[0].entry.fingerprint, checkpoint)
    records = [
        json.loads(line) for line in checkpoint.read_text().splitlines()
    ]
    cells = [r for r in records if r.get("kind") == "cell"]
    assert cells and all("engine" not in record for record in cells)
