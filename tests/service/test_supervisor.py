"""Supervisor tests: real child processes, injected crashes, drains.

These spawn actual ``python -m repro.service.worker`` subprocesses, so
each test pays a ~1s interpreter cold start per worker — the suite is
deliberately small and each test asserts several properties.  The
full fault matrix (torn stores, bit flips, slow loris) lives in the
service chaos harness (``python -m repro chaos --serve``).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.errors import WorkerCrashError
from repro.service import supervisor
from repro.service.admission import RejectedError
from repro.service.query import SimQuery
from repro.service.simulator import ServiceConfig
from repro.service.supervisor import Supervisor

PAYLOAD = {
    "suite": "pdp11", "trace": "ED", "length": 2000,
    "net": 512, "block": 16, "sub": 8,
}
QUERY = SimQuery.from_payload(PAYLOAD, 2000)
GROUP = QUERY.trace_group()


def query(net: int) -> SimQuery:
    return SimQuery.from_payload(dict(PAYLOAD, net=net), 2000)


async def run_one(sup: Supervisor, one: SimQuery = QUERY):
    """One query as a group of one; returns its outcome."""
    (outcome,) = (await sup.run(GROUP, [one], [None])).outcomes
    return outcome


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout: float, step: float = 0.1) -> bool:
    for _ in range(int(timeout / step) + 1):
        if predicate():
            return True
        await asyncio.sleep(step)
    return predicate()


class TestWorkerImports:
    def test_worker_import_skips_the_analysis_layer(self):
        # Every worker spawn pays its imports; the analysis layer
        # (experiments, figures, tables) serves no cell.
        probe = (
            "import sys, repro.service.worker; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestHappyPath:
    def test_submit_answers_and_drain_retires_the_fleet(self):
        async def main():
            sup = Supervisor(ServiceConfig(workers=1))
            await sup.start()
            try:
                learned = await sup.run(GROUP, [], [])
                ran = await sup.run(GROUP, [QUERY], [None])
            finally:
                elapsed = await sup.drain()
            # A query-less run only prepares: it reports the length.
            assert learned.outcomes == []
            assert learned.prepared_length == ran.prepared_length > 0
            (record,) = ran.outcomes
            assert 0.0 < record["miss"] <= 1.0
            assert record["trace"] == "ED"
            assert record["stats"]["accesses"] > 0
            # Drain retired every worker and exported its latency.
            assert sup.describe()["alive"] == 0
            assert sup.metrics.drain_seconds.value() == elapsed
            assert elapsed < 10.0

        run(main())


class TestCrashContainment:
    def test_sigkill_mid_request_is_retried_on_a_sibling(self):
        async def main():
            sup = Supervisor(
                ServiceConfig(
                    workers=2,
                    worker_env={
                        "REPRO_WORKER_CRASH_AFTER": "1",
                        "REPRO_WORKER_CHAOS_INDEX": "0",
                    },
                )
            )
            await sup.start()
            try:
                # Worker 0 (fewest in flight, picked first) SIGKILLs
                # itself with the request in flight; the supervisor
                # must re-dispatch to worker 1 invisibly.
                record = await run_one(sup)
                assert record["trace"] == "ED"
                crashed = await wait_for(
                    lambda: sup.metrics.worker_restarts_total.value(
                        labels={"reason": "crashed"}
                    ) >= 1,
                    timeout=5.0,
                )
                assert crashed, "the SIGKILL was never accounted as a crash"
            finally:
                await sup.drain()

        run(main())

    def test_crash_loop_keeps_restarting_with_backoff(self):
        async def main():
            sup = Supervisor(
                ServiceConfig(
                    workers=1,
                    worker_env={"REPRO_WORKER_CRASH_ON_START": "1"},
                )
            )
            await sup.start()
            try:
                # With the only worker crash-looping, dispatch refuses
                # (or reports the crash) rather than hanging — never a
                # success, and the edge turns the refusal into a 503.
                rejected = None
                for _ in range(50):
                    try:
                        outcome = await run_one(sup)
                    except RejectedError as exc:
                        rejected = exc
                        break
                    if not isinstance(outcome, WorkerCrashError):
                        raise AssertionError(
                            "a crash-on-start worker answered a request"
                        )
                    # The death raced the dispatch; the breaker and
                    # backoff are being fed, try again.
                    await asyncio.sleep(0.1)
                assert rejected is not None
                assert rejected.reason == "no_workers"
                restarted = await wait_for(
                    lambda: sup.metrics.worker_restarts_total.value(
                        labels={"reason": "crashed"}
                    ) >= 2,
                    timeout=10.0,
                )
                assert restarted, "the crash loop was not restarted"
            finally:
                await sup.drain()

        run(main())

    def test_hung_worker_is_killed_and_counted_as_hung(self, monkeypatch):
        monkeypatch.setattr(supervisor, "CRASH_RETRIES", 0)

        async def main():
            sup = Supervisor(
                ServiceConfig(
                    workers=1,
                    heartbeat_timeout=1.0,
                    worker_env={"REPRO_WORKER_STALL_HEARTBEAT_AFTER": "1"},
                )
            )
            await sup.start()
            try:
                # Wait out the cold start so the stall is judged
                # against the tight heartbeat timeout, not the
                # startup grace.
                heard = await wait_for(
                    lambda: sup._workers[0].heard_once, timeout=10.0
                )
                assert heard, "worker never sent its first heartbeat"
                outcome = await run_one(sup)
                assert isinstance(outcome, WorkerCrashError)
                assert "hung" in str(outcome)
                assert sup.metrics.worker_restarts_total.value(
                    labels={"reason": "hung"}
                ) >= 1
            finally:
                await sup.drain()

        run(main())

    def test_a_poison_query_fails_alone(self):
        async def main():
            sup = Supervisor(
                ServiceConfig(
                    workers=2,
                    worker_env={"REPRO_WORKER_CRASH_ON_NET": "1024"},
                )
            )
            await sup.start()
            try:
                # The group kills its worker; each query is then re-run
                # on its own, where the poison kills one more worker
                # (its retry budget) and its neighbours are answered.
                ran = await sup.run(
                    GROUP, [query(512), query(1024), query(256)],
                    [None, None, None],
                )
                first, poisoned, last = ran.outcomes
                assert first["key"] == "512:16,8@4/ED"
                assert isinstance(poisoned, WorkerCrashError)
                assert last["key"] == "256:16,8@4/ED"
                assert ran.prepared_length > 0
                crashed = await wait_for(
                    lambda: sup.metrics.worker_restarts_total.value(
                        labels={"reason": "crashed"}
                    ) >= 2,
                    timeout=5.0,
                )
                assert crashed
                assert sup.metrics.worker_restarts_total.value(
                    labels={"reason": "crashed"}
                ) == 2
            finally:
                await sup.drain()

        run(main())


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class _AnsweringPipe:
    """A worker's stdin that answers every request at once."""

    def __init__(self, worker, ok: bool) -> None:
        self.worker = worker
        self.ok = ok

    def write(self, data: bytes) -> None:
        request_id = json.loads(data)["id"]
        self.worker.inflight.pop(request_id).set_result(
            {"kind": "res", "id": request_id, "ok": self.ok}
        )

    async def drain(self) -> None:
        pass


class TestRestartSchedule:
    """One worker's restart backoff, on a fake clock, with no process."""

    def fleet(self, monkeypatch, **config):
        clock = FakeClock()
        monkeypatch.setattr(supervisor, "time", SimpleNamespace(monotonic=clock))
        sup = Supervisor(ServiceConfig(workers=1, **config))
        return sup, sup._workers[0], clock

    @staticmethod
    def die(sup, worker, clock) -> float:
        sup._on_death(worker, reason="crashed")
        return worker.next_start_at - clock()

    @staticmethod
    def respond(sup, worker, ok: bool) -> None:
        worker.proc = SimpleNamespace(
            returncode=None, stdin=_AnsweringPipe(worker, ok)
        )
        run(sup._send(worker, {"kind": "group"}))
        worker.proc = None

    def test_delays_double_from_a_tenth_to_a_five_second_cap(self, monkeypatch):
        sup, worker, clock = self.fleet(monkeypatch)
        delays = [self.die(sup, worker, clock) for _ in range(8)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0])

    def test_the_streak_outlives_a_breaker_trip(self, monkeypatch):
        sup, worker, clock = self.fleet(monkeypatch, breaker_failures=2)
        delays = [self.die(sup, worker, clock) for _ in range(4)]
        assert sup.describe()["workers"][0]["breaker"] == "open"
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_a_good_response_restarts_the_schedule(self, monkeypatch):
        sup, worker, clock = self.fleet(monkeypatch)
        for _ in range(3):
            self.die(sup, worker, clock)
        self.respond(sup, worker, ok=True)
        assert self.die(sup, worker, clock) == pytest.approx(0.1)

    def test_a_failed_response_keeps_the_schedule(self, monkeypatch):
        sup, worker, clock = self.fleet(monkeypatch)
        for _ in range(3):
            self.die(sup, worker, clock)
        self.respond(sup, worker, ok=False)
        assert self.die(sup, worker, clock) == pytest.approx(0.8)
