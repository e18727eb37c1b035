"""SimulationService tests: identity with the runner, coalescing, overload.

These drive the service core directly (no HTTP) with ``asyncio.run``;
the HTTP edge is covered in ``test_http.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec, execute_cell
from repro.errors import ReproError, StaticCheckError
from repro.runner.runner import run_sweep
from repro.service import (
    RejectedError,
    ServiceConfig,
    SimQuery,
    SimulationService,
    simulator,
)
from repro.workloads.suites import suite_trace



def ed_query(net: int) -> SimQuery:
    return SimQuery(
        suite="pdp11", trace="ED", length=4000, filter_writes=True,
        spec=CellSpec(CacheGeometry(net, 16, 8)),
    )


QUERY = ed_query(1024)


def run(coroutine):
    return asyncio.run(coroutine)


async def with_service(config, body):
    service = SimulationService(config)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


def hold(monkeypatch, release):
    """Block ``QUERY``'s cell on the pool until ``release`` is set.

    Returns a future that resolves once the cell is running, i.e. once
    its trace group has been dispatched and is in flight.
    """
    loop = asyncio.get_event_loop()
    entered = loop.create_future()

    def held(prepared, spec, deadline=None):
        if spec == QUERY.spec:
            loop.call_soon_threadsafe(entered.set_result, None)
            release.wait()
        return execute_cell(prepared, spec, deadline)

    monkeypatch.setattr(simulator, "execute_cell", held)
    return entered


async def queue_behind(service, query):
    """Submit ``query`` while a trace group is running.

    Gives the scheduler a few loop turns, then checks that the query is
    still queued: behind a running group it waits out ``batch_window``
    (a test sets it well above the test's own run time).
    """
    future = asyncio.ensure_future(service.simulate(query))
    for _ in range(5):
        await asyncio.sleep(0)
    assert any(pending.query == query for pending in service._queue)
    return future


class TestResultIdentity:
    def test_served_result_is_byte_identical_to_a_runner_cell(self):
        trace = suite_trace("pdp11", "ED", length=4000)
        points, _report = run_sweep([trace], [CacheGeometry(1024, 16, 8)])
        direct = points[0].per_trace["ED"]

        async def body(service):
            return await service.simulate(QUERY)

        result = run(with_service(ServiceConfig(batch_window=0.0), body))
        # Exact float equality, not approx: the acceptance criterion is
        # repr-identical results, so both paths must run the same code
        # on the same prepared trace.
        assert (result.entry.miss, result.entry.traffic, result.entry.scaled) == direct
        assert result.source == "computed"
        assert result.entry.key == "1024:16,8@4/ED"

    def test_engine_override_forces_reference(self):
        async def body(service):
            return await service.simulate(QUERY)

        config = ServiceConfig(batch_window=0.0, engine="reference")
        result = run(with_service(config, body))
        assert result.entry.engine == "reference"

    @pytest.mark.parametrize("engine", ["warp", "Vectorized"])
    def test_unknown_engine_override_is_refused_at_construction(self, engine):
        with pytest.raises(StaticCheckError) as excinfo:
            SimulationService(ServiceConfig(engine=engine))
        (finding,) = excinfo.value.diagnostics
        assert finding.rule == "policy-unknown-engine"
        assert finding.location == "engine"


class TestCachingAndCoalescing:
    def test_repeat_query_hits_memory(self):
        async def body(service):
            first = await service.simulate(QUERY)
            second = await service.simulate(QUERY)
            return first, second, service

        first, second, service = run(
            with_service(ServiceConfig(batch_window=0.0), body)
        )
        assert first.source == "computed"
        assert second.source == "memory"
        assert second.entry == first.entry
        assert service.metrics.cache_lookups_total.value(
            labels={"outcome": "memory"}
        ) == 1
        assert service.metrics.cache_hit_ratio.value() == 0.5

    def test_concurrent_identical_queries_coalesce(self):
        async def body(service):
            results = await asyncio.gather(
                *(service.simulate(QUERY) for _ in range(4))
            )
            return results, service

        results, service = run(
            with_service(ServiceConfig(batch_window=0.01), body)
        )
        sources = sorted(result.source for result in results)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == 3
        assert service.metrics.coalesced_total.value() == 3
        # All four waiters got the same entry; only one cell ran.
        assert len({result.entry.fingerprint for result in results}) == 1
        assert service.metrics.cells_total.value(labels={"status": "ok"}) == 1

    def test_distinct_queries_in_one_batch_share_the_prepared_trace(self):
        queries = [ed_query(net) for net in (256, 512, 1024)]

        async def body(service):
            results = await asyncio.gather(
                *(service.simulate(query) for query in queries)
            )
            return results, service

        results, service = run(
            with_service(ServiceConfig(batch_window=0.01), body)
        )
        assert [result.source for result in results] == ["computed"] * 3
        # One batch, one trace group, one prepare observation.
        assert service.metrics.stage_seconds.count(
            labels={"stage": "prepare"}
        ) == 1


class TestDispatch:
    def test_lone_query_on_an_idle_service_skips_the_batch_window(self):
        async def body(service):
            started = time.monotonic()
            result = await service.simulate(QUERY)
            return result, time.monotonic() - started, service

        result, elapsed, service = run(
            with_service(ServiceConfig(batch_window=5.0), body)
        )
        assert result.source == "computed"
        assert elapsed < 1.0
        assert service.metrics.stage_seconds.count(
            labels={"stage": "queue"}
        ) == 1

    def test_the_first_query_of_a_group_is_not_queued_for_its_prepare(self, monkeypatch):
        # A fresh service learns the group's prepared length with a
        # query-less run first; that run's trace generation (slowed here
        # to 0.2 s) is a prepare sample, not queue time of the query.
        generate = simulator.suite_trace
        slowed = []

        def slow_first_generation(*args, **kwargs):
            if not slowed:
                slowed.append(True)
                time.sleep(0.2)
            return generate(*args, **kwargs)

        monkeypatch.setattr(simulator, "suite_trace", slow_first_generation)

        async def body(service):
            result = await service.simulate(QUERY)
            return result, service

        result, service = run(with_service(ServiceConfig(), body))
        assert result.source == "computed"
        stages = service.metrics.stage_seconds
        queue = {"stage": "queue"}
        prepare = {"stage": "prepare"}
        assert stages.count(labels=queue) == stages.count(labels=prepare) == 1
        assert stages.sum(labels=prepare) >= 0.2
        assert stages.sum(labels=queue) < 0.1

    def test_queries_arriving_while_a_group_runs_go_out_as_one_group(self, monkeypatch):
        release = threading.Event()

        async def body(service):
            entered = hold(monkeypatch, release)
            try:
                first = asyncio.ensure_future(service.simulate(QUERY))
                await entered
                later = [
                    await queue_behind(service, ed_query(net))
                    for net in (256, 512)
                ]
                assert len(service._queue) == 2
            finally:
                release.set()
            results = await asyncio.gather(first, *later)
            return results, service

        results, service = run(
            with_service(ServiceConfig(batch_window=0.2), body)
        )
        assert [result.source for result in results] == ["computed"] * 3
        # QUERY's group, then one group for both later arrivals.
        assert service.metrics.stage_seconds.count(
            labels={"stage": "prepare"}
        ) == 2


class TestOverloadAndFailure:
    def test_zero_queue_rejects_with_429_semantics(self):
        async def body(service):
            with pytest.raises(RejectedError) as excinfo:
                await service.simulate(QUERY)
            return excinfo.value, service

        error, service = run(
            with_service(ServiceConfig(batch_window=0.0, max_queue=0), body)
        )
        assert error.reason == "queue_full"
        assert error.retry_after > 0
        assert service.metrics.rejected_total.value(
            labels={"reason": "queue_full"}
        ) == 1

    def test_bounded_queue_rejects_the_overflow_query(self, monkeypatch):
        slow = ServiceConfig(batch_window=5.0, max_queue=1)
        release = threading.Event()

        async def body(service):
            entered = hold(monkeypatch, release)
            try:
                running = asyncio.ensure_future(service.simulate(QUERY))
                await entered
                queued = await queue_behind(service, ed_query(512))
                with pytest.raises(RejectedError) as excinfo:
                    await service.simulate(ed_query(256))
                await service.stop()  # fails the still-queued query
                for future in (running, queued):
                    with pytest.raises(ReproError, match="stopped"):
                        await future
            finally:
                release.set()
            return excinfo.value

        error = run(with_service(slow, body))
        assert error.reason == "queue_full"

    def test_failures_open_the_breaker_and_cached_results_survive(self, monkeypatch):
        config = ServiceConfig(
            batch_window=0.0, breaker_failures=1, breaker_reset=60.0
        )
        other = ed_query(512)

        async def body(service):
            cached = await service.simulate(QUERY)  # populate the cache
            assert cached.source == "computed"

            def explode(prepared, spec, deadline=None):
                raise ReproError("injected cell failure")

            monkeypatch.setattr(simulator, "execute_cell", explode)
            with pytest.raises(ReproError, match="injected"):
                await service.simulate(other)
            assert service.admission.breaker.state == "open"
            assert service.healthz()["status"] == "degraded"

            # New work is shed...
            with pytest.raises(RejectedError) as excinfo:
                await service.simulate(ed_query(256))
            assert excinfo.value.reason == "breaker_open"
            # ...but cached answers are still served.
            hit = await service.simulate(QUERY)
            assert hit.source == "memory"

        run(with_service(config, body))

    def test_stop_fails_queued_queries(self, monkeypatch):
        release = threading.Event()

        async def body(service):
            entered = hold(monkeypatch, release)
            try:
                running = asyncio.ensure_future(service.simulate(QUERY))
                await entered
                queued = await queue_behind(service, ed_query(512))
                await service.stop()
                for future in (running, queued):
                    with pytest.raises(ReproError, match="stopped"):
                        await future
            finally:
                release.set()

        run(with_service(ServiceConfig(batch_window=5.0), body))

    def test_stop_fails_dispatched_queries(self, monkeypatch):
        release = threading.Event()

        async def body(service):
            entered = hold(monkeypatch, release)
            try:
                future = asyncio.ensure_future(service.simulate(QUERY))
                await entered  # dispatched: its group is on the pool
                await service.stop()
                with pytest.raises(ReproError, match="stopped"):
                    await asyncio.wait_for(future, 2.0)
                assert service._inflight_futures == {}
            finally:
                release.set()

        run(with_service(ServiceConfig(), body))


class TestHealthz:
    def test_healthz_shape(self):
        async def body(service):
            await service.simulate(QUERY)
            return service.healthz()

        health = run(with_service(ServiceConfig(batch_window=0.0), body))
        assert health["status"] == "ok"
        assert health["breaker"] == "closed"
        assert health["cache_entries"] == 1
        assert health["cells"] == {"completed": 1, "skipped": 0}
        assert health["uptime_seconds"] >= 0
