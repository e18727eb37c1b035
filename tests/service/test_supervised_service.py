"""The supervised service answers what the in-process service answers.

Both modes run a trace group through one function
(:func:`repro.service.simulator.run_trace_group`), on a pool thread or
in a worker process.  These tests drive one supervised service — real
worker processes — and hold it to the in-process answers: passes for a
gathered burst, the same response bodies on every route, cache hits
before any cell runs, and disk hits after a restart.

The service's event loop runs on a background thread for the whole
module, so the supervisor keeps reading heartbeats between tests.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.runner.runner import RunnerConfig, run_sweep
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.workloads.suites import suite_trace

from tests.service.test_route_agreement import CASES, QUERY as ROUTE_QUERY

LENGTH = 2000


def in_process(queries, config=None):
    """Answer ``queries`` as one gathered burst on a fresh in-process
    service; returns (results, service)."""

    async def main():
        service = SimulationService(config or ServiceConfig(allow_sampling=True))
        await service.start()
        try:
            results = await asyncio.gather(
                *(service.simulate(query) for query in queries)
            )
            return results, service
        finally:
            await service.stop()

    return asyncio.run(main())


class LoopThread:
    """An event loop running on a daemon thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def call(self, coroutine, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


@pytest.fixture(scope="module")
def supervised():
    """``(loop, service)``: one supervised service with two workers."""
    loop = LoopThread()
    service = SimulationService(
        ServiceConfig(supervised=True, workers=2, allow_sampling=True)
    )
    loop.call(service.start())
    try:
        yield loop, service
    finally:
        loop.call(service.stop())
        loop.close()


def burst(supervised, queries):
    loop, service = supervised

    async def main():
        return await asyncio.gather(
            *(service.simulate(query) for query in queries)
        )

    return loop.call(main())


def body(result):
    """The ``/simulate`` body without its timing, as the edge writes it."""
    payload = result.to_payload()
    del payload["elapsed_ms"]
    return payload


def grid_queries(trace: str):
    """Four queries sharing one (block, sets) pass group."""
    return [
        SimQuery(
            suite="pdp11", trace=trace, length=LENGTH, filter_writes=True,
            spec=CellSpec(CacheGeometry(256 * assoc, 16, 8, associativity=assoc)),
        )
        for assoc in (1, 2, 4, 8)
    ]


def test_a_gathered_burst_runs_on_one_pass_in_a_worker(supervised):
    queries = grid_queries("ED")
    results = burst(supervised, queries)
    assert [r.entry.engine for r in results] == ["stackdist"] * 4
    assert [r.source for r in results] == ["computed"] * 4
    expected, _ = in_process(queries)
    assert [body(r) for r in results] == [body(r) for r in expected]


@pytest.mark.parametrize("case", sorted(CASES) + ["sampled"])
def test_every_route_gives_the_in_process_body(supervised, case):
    extra, _ = CASES.get(case, ({"sample": {"interval": 500, "k": 2}}, None))
    query = SimQuery.from_payload(dict(ROUTE_QUERY, **extra), LENGTH)
    (worker,) = burst(supervised, [query])
    (thread,), _ = in_process([query])
    assert worker.source == thread.source == "computed"
    assert body(worker) == body(thread)
    # Byte for byte, as the edge serializes it: the stats keep their
    # field order across the pipe.
    assert json.dumps(body(worker)) == json.dumps(body(thread))
    if case == "sampled":
        assert worker.entry.engine == "sampled"
        assert worker.entry.stats["sampled"]["exact"] is False


def test_a_seeded_cache_answers_before_any_cell_runs(supervised, tmp_path):
    # A trace group this service has not seen: its prepared length is
    # learned from a query-less run, then the cache answers.
    query = grid_queries("PLOT")[0]
    checkpoint = tmp_path / "cell.jsonl"
    run_sweep(
        [suite_trace("pdp11", "PLOT", length=LENGTH)], [query.spec.geometry],
        config=RunnerConfig(checkpoint=str(checkpoint)),
    )
    fingerprint = json.loads(checkpoint.read_text().splitlines()[0])["fingerprint"]
    _, service = supervised
    assert service.cache.seed_from_checkpoint(checkpoint, fingerprint) == 1
    computed = service.metrics.cells_total.value(labels={"status": "ok"})
    (result,) = burst(supervised, [query])
    assert result.source == "memory"
    assert result.entry.fingerprint == fingerprint
    assert service.metrics.cells_total.value(labels={"status": "ok"}) == computed


def test_a_restarted_service_answers_from_disk(tmp_path):
    query = grid_queries("ED")[0]
    config = ServiceConfig(supervised=True, workers=1, store_dir=str(tmp_path))
    (first,), _ = in_process([query], config=config)
    assert first.source == "computed"
    (again,), service = in_process([query], config=config)
    assert again.source == "disk"
    assert again.entry == first.entry
    assert service.metrics.cache_lookups_total.value(
        labels={"outcome": "disk"}
    ) == 1
