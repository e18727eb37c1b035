"""Supervised workers and in-process cells report the same record.

Both answer a trace group through
:func:`repro.service.simulator.run_trace_group`, whose per-cell path
plans the route once and labels the result with it; a chained query
therefore says ``vectorized`` in the WAL store and exports no matter
which execution mode served it.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.engine import ReferenceEngine
from repro.engine.batch import prepare_trace
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.service.worker import WorkerLoop
from repro.workloads.suites import suite_trace

LENGTH = 2000
QUERY = {"suite": "pdp11", "trace": "ED", "length": LENGTH,
         "net": 1024, "block": 16, "sub": 16, "assoc": 4}

CASES = {
    "auto": ({}, "vectorized"),
    "chained": ({"miss_path": {"victim_entries": 4}}, "vectorized"),
    "vectorized": ({"engine": "vectorized"}, "vectorized"),
    "checked": ({"engine": "checked"}, "checked"),
}


def serve_in_process(query):
    async def main():
        service = SimulationService(ServiceConfig(batch_window=0.0))
        await service.start()
        try:
            return await service.simulate(query)
        finally:
            await service.stop()

    return asyncio.run(main()).entry


@pytest.mark.parametrize("case", sorted(CASES))
def test_worker_and_in_process_agree_on_engine(case):
    extra, expected = CASES[case]
    query = SimQuery.from_payload(dict(QUERY, **extra), LENGTH)
    worker = WorkerLoop(stdin=io.StringIO(), stdout=io.StringIO())
    response = worker._handle(
        {"kind": "group", "id": 1, "group": list(query.trace_group()),
         "queries": [{"query": query.to_dict(), "deadline_ms": None}]}
    )
    entry = serve_in_process(query)
    assert response["ok"] is True
    (result,) = response["results"]
    record = result["record"]
    assert record["engine"] == entry.engine == expected
    for field in ("key", "trace", "miss", "traffic", "scaled", "stats"):
        assert record[field] == getattr(entry, field), field
    # Whatever path served it, the cell is the reference loop's answer.
    spec = query.spec
    reference = ReferenceEngine().run(
        spec.geometry, prepare_trace(suite_trace("pdp11", "ED", length=LENGTH)),
        word_size=spec.word_size, warmup=spec.warmup, miss_path=spec.miss_path,
    )
    assert entry.stats == reference.to_dict()
