"""Deadline propagation and back-pressure hygiene.

Covers the budget's whole path: the ``X-Repro-Deadline-Ms`` header is
parsed at the edge, carried through admission and dispatch, and ends
as cooperative cancellation *inside* the engines — plus the jittered
``Retry-After`` hint and the slow-loris read timeout that keep
rejected or stuck clients from re-synchronizing into a thundering
herd.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec, predecode, prepare_trace, run_cell
from repro.errors import DeadlineExceededError
from repro.stackdist.engine import MemberSpec, run_group_pass
from repro.trace.record import Trace
from repro.service.app import ServiceApp, _retry_after_header
from repro.service.query import SimQuery
from repro.service.simulator import ServiceConfig
from repro.workloads.suites import suite_trace

QUERY = {
    "suite": "pdp11", "trace": "ED", "length": 4000,
    "net": 1024, "block": 16, "sub": 8,
}


async def request(
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange; returns (status, headers, raw body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    head += f"Content-Length: {len(data)}\r\n\r\n"
    writer.write(head.encode() + data)
    await writer.drain()
    raw = await reader.read()  # Connection: close — read to EOF
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    header_blob, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    parsed = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        parsed[name.strip().lower()] = value.strip()
    return status, parsed, payload


def serve(body, config: Optional[ServiceConfig] = None, **app_kwargs):
    """Run ``body(port)`` against a live app, tearing down afterwards."""

    async def main():
        app = ServiceApp(
            config=config or ServiceConfig(batch_window=0.0),
            port=0,
            **app_kwargs,
        )
        await app.start()
        try:
            return await body(app.port)
        finally:
            await app.stop()

    return asyncio.run(main())


class TestEngineCancellation:
    """The budget's last hop: cancellation inside the engines."""

    @pytest.mark.parametrize("engine", ["reference", "checked", "vectorized"])
    def test_an_expired_deadline_cancels_every_engine(self, engine):
        query = SimQuery.from_payload(
            dict(QUERY, engine=engine), default_length=4000
        )
        prepared = prepare_trace(
            suite_trace(query.suite, query.trace, length=query.length),
            query.filter_writes,
        )
        spec = query.spec
        predecode(prepared, [spec])
        with pytest.raises(DeadlineExceededError) as excinfo:
            run_cell(prepared, spec, deadline=time.monotonic() - 1.0)
        assert excinfo.value.stage == "simulate"

    @pytest.mark.parametrize("engine", ["reference", "checked", "vectorized"])
    def test_an_expired_deadline_cancels_a_short_trace(self, engine):
        # Shorter than one clock-check period of the per-access engines.
        short = Trace([(i * 12) % 2048 for i in range(500)], [0] * 500, 2)
        spec = CellSpec.of(CacheGeometry(256, 16, 8), engine=engine)
        with pytest.raises(DeadlineExceededError):
            run_cell(short, spec, deadline=time.monotonic() - 1.0)

    def test_an_expired_deadline_cancels_a_pass(self):
        reads = Trace([(i * 12) % 2048 for i in range(500)], [0] * 500, 2)
        members = [MemberSpec(ways=ways, sub_block_size=8) for ways in (1, 2)]
        with pytest.raises(DeadlineExceededError):
            run_group_pass(
                reads, 16, 16, members, deadline=time.monotonic() - 1.0
            )
        unbounded = run_group_pass(reads, 16, 16, members)
        bounded = run_group_pass(
            reads, 16, 16, members, deadline=time.monotonic() + 600.0
        )
        assert [s.to_dict() for s in bounded] == [
            s.to_dict() for s in unbounded
        ]

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_a_slack_deadline_changes_nothing(self, engine):
        query = SimQuery.from_payload(
            dict(QUERY, engine=engine), default_length=4000
        )
        prepared = prepare_trace(
            suite_trace(query.suite, query.trace, length=query.length),
            query.filter_writes,
        )
        spec = query.spec
        predecode(prepared, [spec])
        unbounded = run_cell(prepared, spec)
        bounded = run_cell(prepared, spec, deadline=time.monotonic() + 600.0)
        assert bounded.to_dict() == unbounded.to_dict()


class TestDeadlineHeader:
    def test_a_tiny_budget_maps_to_504_with_its_stage(self):
        async def body(port):
            return await request(
                port, "POST", "/simulate", QUERY,
                headers={"X-Repro-Deadline-Ms": "0.01"},
            )

        status, _, raw = serve(body)
        assert status == 504
        payload = json.loads(raw)
        assert payload["stage"] in {"admission", "queue", "dispatch",
                                    "simulate"}
        assert "deadline" in payload["error"]

    def test_a_slack_budget_changes_nothing(self):
        async def body(port):
            bare = await request(port, "POST", "/simulate", QUERY)
            budgeted = await request(
                port, "POST", "/simulate", QUERY,
                headers={"X-Repro-Deadline-Ms": "60000"},
            )
            return bare, budgeted

        (bare_status, _, bare_raw), (status, _, raw) = serve(body)
        assert bare_status == status == 200
        bare_payload = json.loads(bare_raw)
        payload = json.loads(raw)
        assert payload["fingerprint"] == bare_payload["fingerprint"]
        assert (
            payload["result"]["miss_ratio"]
            == bare_payload["result"]["miss_ratio"]
        )

    @pytest.mark.parametrize("raw_header", ["abc", "0", "-5", "nan"])
    def test_an_unusable_budget_is_a_400(self, raw_header):
        async def body(port):
            return await request(
                port, "POST", "/simulate", QUERY,
                headers={"X-Repro-Deadline-Ms": raw_header},
            )

        status, _, raw = serve(body)
        assert status == 400
        assert b"X-Repro-Deadline-Ms" in raw

    def test_sweep_honors_the_budget_too(self):
        async def body(port):
            return await request(
                port, "POST", "/sweep",
                {"base": QUERY, "grid": {"net": [256, 512]}},
                headers={"X-Repro-Deadline-Ms": "0.01"},
            )

        status, _, raw = serve(body)
        assert status == 504
        assert "stage" in json.loads(raw)


class TestRetryAfterJitter:
    def test_the_hint_stays_inside_the_jitter_envelope(self):
        samples = {_retry_after_header(4.0) for _ in range(200)}
        values = {int(sample) for sample in samples}
        # Never less than the true back-off, never more than +50%.
        assert all(4 <= value <= 6 for value in values)
        assert len(values) >= 2, "the jitter never jittered"

    def test_the_hint_is_always_at_least_one_second(self):
        assert _retry_after_header(0.0) == "1"
        assert _retry_after_header(-3.0) == "1"

    def test_a_rejected_request_carries_the_jittered_hint(self):
        config = ServiceConfig(batch_window=0.0, max_queue=0,
                               retry_after=4.0)

        async def body(port):
            return await request(port, "POST", "/simulate", QUERY)

        status, headers, raw = serve(body, config)
        assert status == 429
        assert 4 <= int(headers["retry-after"]) <= 6
        assert json.loads(raw)["retry_after"] == 4.0


class TestSlowLoris:
    def test_a_stalled_client_gets_408_and_the_service_lives_on(self):
        async def body(port):
            # A connection that sends half a request line and stalls.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /simulate HTTP/1.1\r\nContent-Le")
            await writer.drain()
            # A well-behaved concurrent client is unaffected.
            healthy = await request(port, "POST", "/simulate", QUERY)
            stuck = await reader.read()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return healthy, stuck

        (status, _, _), stuck = serve(body, read_timeout=1.0)
        assert status == 200
        assert stuck.startswith(b"HTTP/1.1 408")
