"""Worker supervision: heartbeats, backoff restarts, crash containment.

The :class:`Supervisor` owns N child worker processes
(:mod:`repro.service.worker`), each a crash domain of its own: a
SIGKILL, a segfault, or a wedge in one worker costs at most the cells
that worker held in flight — never the service, never a committed
result (those are already fsync'd in the WAL store by the time a
client sees them).

Health model, on the runner's primitives and the service's
:class:`~repro.service.simulator.ServiceConfig` (``workers``,
``heartbeat_timeout``, ``breaker_failures``, ``breaker_reset``,
``worker_env``):

* **Liveness** — every worker heartbeats on its stdout every
  :data:`HEARTBEAT_INTERVAL` seconds; a worker silent for
  ``heartbeat_timeout`` seconds is presumed hung, killed, and counted
  as a ``hung`` restart (distinct from ``crashed``, where the process
  died on its own).
* **Circuit breaker** — each worker feeds a
  :class:`~repro.runner.health.Breaker`, the one that aborts a
  drowning sweep: a worker that keeps dying is taken out of dispatch
  until its breaker half-opens, while the others keep serving.
* **Restart policy** — :data:`RESTART_BACKOFF` over the breaker's
  failure streak (0.1 s doubling to 5 s), reset by a good response,
  so a crash-looping worker cannot monopolize the CPU a healthy
  sibling needs.

The supervisor is the service's out-of-process executor: its one
operation, :meth:`Supervisor.run`, sends a whole trace group to the
live worker with the fewest requests in flight, with each query's
*remaining* deadline budget, and the worker answers it with
:func:`repro.service.simulator.run_trace_group`, passes included.  A
group orphaned by a crash is re-dispatched one query at a time, so a
single worker SIGKILL is invisible to the client and a query that
kills workers fails alone.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    WorkerCrashError,
)
from repro.runner.health import Breaker
from repro.runner.retry import RetryPolicy
from repro.service.admission import RejectedError
from repro.service.metrics import MetricsRegistry
from repro.service.query import GroupResult, SimQuery

if TYPE_CHECKING:
    from repro.service.simulator import ServiceConfig

__all__ = ["Supervisor"]

logger = logging.getLogger("repro.service.supervisor")

#: Seconds between a worker's heartbeats; the supervisor polls its
#: fleet's liveness at the same period, or at a quarter of the
#: heartbeat timeout when that is shorter.
HEARTBEAT_INTERVAL = 0.25
#: Silence tolerated before a worker's *first* heartbeat: interpreter
#: and NumPy imports take ~1 s, which must not read as a hang.
STARTUP_GRACE = 15.0
#: Backoff before restarting a worker, by its breaker's failure streak.
RESTART_BACKOFF = RetryPolicy(base_delay=0.1, max_delay=5.0, jitter=0.0)
#: Times each query of a crashed group is re-dispatched, on its own,
#: before the caller sees the crash.
CRASH_RETRIES = 1

#: ``error_type`` names a worker may report, mapped back to the
#: exception the caller would have seen in-process.
_ERROR_TYPES = {
    "ConfigurationError": ConfigurationError,
    "DeadlineExceededError": DeadlineExceededError,
}


def _error(reported: Dict[str, Any]) -> ReproError:
    """The exception a worker's ``error``/``error_type`` fields name."""
    error_type = reported.get("error_type", "ReproError")
    message = reported.get("error", "worker reported an error")
    if error_type == "DeadlineExceededError":
        return DeadlineExceededError(
            message, stage=reported.get("stage", "simulate")
        )
    return _ERROR_TYPES.get(error_type, ReproError)(message)


@dataclass
class _Worker:
    """One supervised child and its in-flight bookkeeping."""

    index: int
    breaker: Breaker
    proc: Optional[asyncio.subprocess.Process] = None
    reader: Optional[asyncio.Task] = None
    inflight: Dict[int, asyncio.Future] = field(default_factory=dict)
    last_heartbeat: float = 0.0
    restarts: int = 0
    next_start_at: float = 0.0
    draining: bool = False
    hung: bool = False
    heard_once: bool = False

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    def dispatchable(self) -> bool:
        return self.alive and not self.draining and self.breaker.allow()


class Supervisor:
    """Runs and heals the worker fleet; see the module docstring."""

    def __init__(
        self,
        config: "ServiceConfig",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        if self.config.workers < 1:
            raise ConfigurationError(
                f"supervisor needs >= 1 worker, got {self.config.workers}"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._workers: List[_Worker] = [
            _Worker(
                index=i,
                breaker=Breaker(
                    max_consecutive_failures=self.config.breaker_failures,
                    reset_after=self.config.breaker_reset,
                ),
            )
            for i in range(self.config.workers)
        ]
        self._next_id = 0
        # Re-dispatched queries run one at a time across the fleet, so
        # a retry never shares a worker with another crash suspect.
        self._retry_lane: Optional[asyncio.Lock] = None
        self._monitor: Optional[asyncio.Task] = None
        self._stopping = False

    # -- Lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._stopping = False
        self._retry_lane = asyncio.Lock()
        for worker in self._workers:
            await self._spawn(worker)
        self._monitor = asyncio.ensure_future(self._monitor_loop())

    async def _spawn(self, worker: _Worker) -> None:
        env = dict(os.environ)
        env["REPRO_WORKER_INDEX"] = str(worker.index)
        env.setdefault("PYTHONUNBUFFERED", "1")
        if self.config.worker_env:
            env.update(self.config.worker_env)
        worker.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.service.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
            env=env,
        )
        worker.last_heartbeat = time.monotonic()
        worker.heard_once = False
        worker.reader = asyncio.ensure_future(self._read_loop(worker))
        self._set_alive_gauge()

    def _set_alive_gauge(self) -> None:
        self.metrics.workers_alive.set(
            sum(1 for worker in self._workers if worker.alive)
        )

    async def _read_loop(self, worker: _Worker) -> None:
        proc = worker.proc
        assert proc is not None and proc.stdout is not None
        while True:
            raw = await proc.stdout.readline()
            if not raw:
                break
            try:
                message = json.loads(raw)
            except ValueError:
                continue
            kind = message.get("kind")
            if kind == "hb":
                worker.last_heartbeat = time.monotonic()
                worker.heard_once = True
            elif kind == "res":
                worker.last_heartbeat = time.monotonic()
                worker.heard_once = True
                future = worker.inflight.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        # EOF: the process died (or drained).  Orphan every in-flight
        # request; the dispatcher decides whether to retry them.
        await proc.wait()
        self._set_alive_gauge()
        if not self._stopping and not worker.draining:
            self._on_death(worker, reason="hung" if worker.hung else "crashed")
        worker.hung = False

    def _on_death(self, worker: _Worker, reason: str) -> None:
        code = worker.proc.returncode if worker.proc else None
        logger.warning(
            "worker %d died (%s, exit code %s); restart backoff engaged",
            worker.index, reason, code,
        )
        crash = WorkerCrashError(
            f"worker {worker.index} died ({reason}, exit code {code}) "
            "with the request in flight"
        )
        for future in worker.inflight.values():
            if not future.done():
                future.set_exception(crash)
        worker.inflight.clear()
        worker.breaker.record(f"worker-{worker.index}", "supervisor", error=reason)
        worker.next_start_at = time.monotonic() + RESTART_BACKOFF.delay(
            worker.breaker.streak
        )
        self.metrics.worker_restarts_total.inc(labels={"reason": reason})

    async def _monitor_loop(self) -> None:
        interval = min(HEARTBEAT_INTERVAL, self.config.heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(max(0.05, interval))
            if self._stopping:
                return
            now = time.monotonic()
            for worker in self._workers:
                if worker.alive:
                    silent = now - worker.last_heartbeat
                    threshold = (
                        self.config.heartbeat_timeout
                        if worker.heard_once
                        else max(self.config.heartbeat_timeout, STARTUP_GRACE)
                    )
                    if silent > threshold:
                        # Hung: alive but not talking.  SIGKILL — a
                        # wedged process can't be trusted to honor
                        # anything gentler — and let the read loop's
                        # EOF path orphan its requests.
                        logger.warning(
                            "worker %d heartbeat silent for %.2fs; killing",
                            worker.index, silent,
                        )
                        worker.hung = True
                        worker.last_heartbeat = now  # one kill per stall
                        try:
                            worker.proc.kill()
                        except ProcessLookupError:
                            pass
                elif not self._stopping and now >= worker.next_start_at:
                    worker.restarts += 1
                    try:
                        await self._spawn(worker)
                    except OSError as exc:
                        logger.error(
                            "worker %d respawn failed: %s", worker.index, exc
                        )
                        worker.next_start_at = (
                            time.monotonic() + RESTART_BACKOFF.max_delay
                        )

    # -- Dispatch ---------------------------------------------------------

    def _pick(self) -> Optional[_Worker]:
        candidates = [w for w in self._workers if w.dispatchable()]
        if not candidates:
            return None
        return min(candidates, key=lambda w: len(w.inflight))

    async def run(
        self,
        group: Tuple[str, str, int, bool],
        queries: Sequence[SimQuery],
        deadlines: Sequence[Optional[float]],
    ) -> GroupResult:
        """Run one trace group on a worker; the executor operation.

        When the worker dies with the group in flight, its queries are
        re-dispatched one at a time, each with :data:`CRASH_RETRIES` more
        attempts (the group attempt counts as every query's first), so
        a poison query kills no more workers than it would alone and
        fails alone, in its outcome.  A re-dispatch waits out a restart
        rather than fail while every worker is down.

        Raises:
            RejectedError: No dispatchable worker exists right now
                (all dead or breaker-open) — HTTP 503 at the edge.
            WorkerCrashError: A query-less run crashed through its
                retry budget.
            ReproError: The worker could not prepare the trace.
        """
        try:
            return await self._attempt(group, queries, deadlines)
        except WorkerCrashError as crash:
            if not queries:
                return await self._retry(group, [], [], crash)
            result = GroupResult(None)
            for query, deadline in zip(queries, deadlines):
                try:
                    part = await self._retry(group, [query], [deadline], crash)
                except ReproError as exc:
                    part = GroupResult(None, [exc])
                result.extend(part)
            return result

    async def _retry(
        self,
        group: Tuple[str, str, int, bool],
        queries: Sequence[SimQuery],
        deadlines: Sequence[Optional[float]],
        crash: WorkerCrashError,
    ) -> GroupResult:
        assert self._retry_lane is not None, "start() the supervisor first"
        async with self._retry_lane:
            for _ in range(CRASH_RETRIES):
                try:
                    return await self._attempt(
                        group, queries, deadlines, wait=True
                    )
                except WorkerCrashError as exc:
                    # The breaker and backoff were already fed by the
                    # read loop's death handling; try another worker.
                    crash = exc
        raise crash

    async def _attempt(
        self,
        group: Tuple[str, str, int, bool],
        queries: Sequence[SimQuery],
        deadlines: Sequence[Optional[float]],
        wait: bool = False,
    ) -> GroupResult:
        """One dispatch; ``wait`` lets a retry wait out a restart."""
        now = time.monotonic()
        if queries and all(d is not None and now >= d for d in deadlines):
            raise DeadlineExceededError(
                "deadline expired before a worker could run the query",
                stage="dispatch",
            )
        worker = self._pick()
        give_up = now + RESTART_BACKOFF.max_delay
        while worker is None and wait and time.monotonic() < give_up:
            await asyncio.sleep(0.05)
            worker = self._pick()
        if worker is None:
            raise RejectedError(
                "no live simulation worker (crashed workers are "
                "restarting with backoff); retry shortly",
                reason="no_workers",
                retry_after=RESTART_BACKOFF.base_delay * 2,
            )
        # Each deadline travels as the budget left, in milliseconds.
        response = await self._send(worker, {
            "kind": "group",
            "group": list(group),
            "queries": [
                {"query": query.to_dict(), "deadline_ms": None if deadline is None
                 else max(0.0, (deadline - time.monotonic()) * 1000.0)}
                for query, deadline in zip(queries, deadlines)
            ],
        })
        if not response.get("ok"):
            raise _error(response)
        return GroupResult(
            response["prepared_length"],
            [
                item["record"] if "record" in item else _error(item)
                for item in response["results"]
            ],
            response["prepare_s"],
            response["simulate_s"],
        )

    async def _send(
        self, worker: _Worker, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        proc = worker.proc
        if proc is None or proc.stdin is None or not worker.alive:
            raise WorkerCrashError(
                f"worker {worker.index} died before accepting the request"
            )
        self._next_id += 1
        request_id = self._next_id
        loop = asyncio.get_event_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        worker.inflight[request_id] = future
        try:
            proc.stdin.write(
                (json.dumps(dict(request, id=request_id)) + "\n").encode("utf-8")
            )
            await proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            worker.inflight.pop(request_id, None)
            raise WorkerCrashError(
                f"worker {worker.index} pipe broke mid-send: {exc}"
            ) from exc
        response = await future
        if response.get("ok"):
            worker.breaker.record(f"worker-{worker.index}", "supervisor")
        return response

    # -- Drain ------------------------------------------------------------

    async def drain(self, timeout: float = 10.0) -> float:
        """Graceful stop: wait for in-flight work, then retire workers.

        Returns:
            Wall-clock seconds the drain took (also exported as the
            ``repro_service_drain_seconds`` gauge).
        """
        started = time.monotonic()
        self._stopping = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except asyncio.CancelledError:
                pass
            self._monitor = None
        pending = [
            future
            for worker in self._workers
            for future in worker.inflight.values()
            if not future.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=timeout)
        for worker in self._workers:
            worker.draining = True
            proc = worker.proc
            if proc is None:
                continue
            if proc.stdin is not None:
                try:
                    proc.stdin.close()  # EOF: the worker's drain signal
                except (BrokenPipeError, OSError):
                    pass
            if worker.alive:
                try:
                    proc.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + max(0.5, timeout / 2)
        for worker in self._workers:
            proc = worker.proc
            if proc is None:
                continue
            remaining = deadline - time.monotonic()
            try:
                await asyncio.wait_for(proc.wait(), timeout=max(0.1, remaining))
            except asyncio.TimeoutError:
                try:
                    proc.kill()
                except ProcessLookupError:
                    pass
                await proc.wait()
            if worker.reader is not None:
                try:
                    await worker.reader
                except (asyncio.CancelledError, Exception):
                    pass
        self._set_alive_gauge()
        elapsed = time.monotonic() - started
        self.metrics.drain_seconds.set(elapsed)
        return elapsed

    # -- Introspection ----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The ``/healthz`` supervisor block."""
        return {
            "workers": [
                {
                    "index": worker.index,
                    "alive": worker.alive,
                    "pid": worker.proc.pid if worker.proc else None,
                    "inflight": len(worker.inflight),
                    "restarts": worker.restarts,
                    "breaker": worker.breaker.state,
                }
                for worker in self._workers
            ],
            "alive": sum(1 for worker in self._workers if worker.alive),
        }
