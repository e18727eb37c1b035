"""Supervised workers and in-process cells report the same path.

Both execute through :func:`repro.engine.batch.execute_cell`, which
plans the route once and labels the result with it; a chained query
therefore says ``reference`` in the WAL store and exports no matter
which execution mode served it.
"""

from __future__ import annotations

import asyncio
import io

import pytest

from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.service.worker import WorkerLoop

LENGTH = 2000
QUERY = {"suite": "pdp11", "trace": "ED", "length": LENGTH,
         "net": 1024, "block": 16, "sub": 16, "assoc": 4}

CASES = {
    "auto": ({}, "vectorized"),
    "chained": ({"miss_path": {"victim_entries": 4}}, "reference"),
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
        {"kind": "req", "id": 1, "query": query.to_dict(),
         "default_length": LENGTH}
    )
    entry = serve_in_process(query)
    assert response["ok"] is True
    assert response["engine"] == entry.engine == expected
    assert response["stats"] == entry.stats
