"""Supervised simulation worker: one child process, JSON lines, heartbeats.

Run as ``python -m repro.service.worker`` by the supervisor
(:mod:`repro.service.supervisor`).  The protocol is newline-delimited
JSON over the standard pipes:

* **stdin** (supervisor -> worker): ``{"kind": "req", "id": N,
  "query": {...}, "deadline_ms": M | null}`` — one simulation request.
  EOF means drain-and-exit.
* **stdout** (worker -> supervisor): ``{"kind": "res", "id": N,
  "ok": true, ...result fields...}`` or ``{"kind": "res", "id": N,
  "ok": false, "error": msg, "error_type": name, "stage": s}``, plus
  unsolicited ``{"kind": "hb", "ts": T}`` heartbeats from a daemon
  thread.  A worker that stops heartbeating is presumed hung and gets
  SIGKILLed by the supervisor.

The worker keeps a tiny LRU of prepared traces so the query mix's
trace-group locality survives process isolation, and converts the
request's *remaining* deadline milliseconds into a local monotonic
instant for the engine's cooperative cancellation (wall-budget
semantics survive the pipe hop without clock agreement).

Crash-injection hooks (read once at startup, used only by the chaos
harness and its tests) are plain environment variables, so a fault is
configured *before* the process exists and cannot race the workload:

* ``REPRO_WORKER_INDEX`` — this worker's slot, set by the supervisor.
* ``REPRO_WORKER_CHAOS_INDEX`` — comma-separated slots the fault
  targets (unset = all workers).
* ``REPRO_WORKER_CRASH_ON_START`` — exit 1 immediately (crash loop).
* ``REPRO_WORKER_CRASH_AFTER`` — ``os._exit(137)`` at the *start* of
  the Nth request: a SIGKILL mid-request, with the request in flight.
* ``REPRO_WORKER_STALL_HEARTBEAT_AFTER`` — after N requests, stop
  heartbeating and hang (a live-but-wedged process).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.engine.batch import execute_cell, predecode, prepare_trace
from repro.errors import ReproError
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.service.query import SimQuery
from repro.workloads.suites import suite_trace

__all__ = ["WorkerLoop", "main"]

#: Prepared traces kept alive per worker (they are large; the service's
#: batch locality makes even 1 effective, 4 generous).
_TRACE_LRU = 4


def _chaos_targets_me(index: int) -> bool:
    raw = os.environ.get("REPRO_WORKER_CHAOS_INDEX", "")
    if not raw:
        return True
    try:
        return index in {int(part) for part in raw.split(",") if part.strip()}
    except ValueError:
        return True


class WorkerLoop:
    """The request loop of one worker process."""

    def __init__(
        self,
        stdin=None,
        stdout=None,
        heartbeat_interval: float = 0.25,
    ) -> None:
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.heartbeat_interval = heartbeat_interval
        self.index = int(os.environ.get("REPRO_WORKER_INDEX", "0"))
        self._write_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._drain = threading.Event()
        self._requests_served = 0
        self._traces: "OrderedDict[Tuple, Any]" = OrderedDict()
        targeted = _chaos_targets_me(self.index)
        self._crash_after = (
            int(os.environ["REPRO_WORKER_CRASH_AFTER"])
            if targeted and os.environ.get("REPRO_WORKER_CRASH_AFTER")
            else None
        )
        self._stall_after = (
            int(os.environ["REPRO_WORKER_STALL_HEARTBEAT_AFTER"])
            if targeted and os.environ.get("REPRO_WORKER_STALL_HEARTBEAT_AFTER")
            else None
        )
        if targeted and os.environ.get("REPRO_WORKER_CRASH_ON_START"):
            sys.exit(1)

    # -- Wire helpers -----------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        line = json.dumps(message, sort_keys=True)
        with self._write_lock:
            self.stdout.write(line + "\n")
            self.stdout.flush()

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval):
            try:
                self._send({"kind": "hb", "ts": time.time()})
            except (BrokenPipeError, ValueError, OSError):
                return

    # -- Execution --------------------------------------------------------

    def _prepared(self, query: SimQuery):
        key = query.trace_group()
        prepared = self._traces.get(key)
        if prepared is None:
            trace = suite_trace(query.suite, query.trace, length=query.length)
            prepared = prepare_trace(trace, query.filter_writes)
            self._traces[key] = prepared
            while len(self._traces) > _TRACE_LRU:
                self._traces.popitem(last=False)
        self._traces.move_to_end(key)
        return prepared

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        deadline_ms = request.get("deadline_ms")
        deadline: Optional[float] = (
            time.monotonic() + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        try:
            query = SimQuery.from_payload(
                request["query"],
                default_length=int(request.get("default_length") or 0),
            )
            prepared = self._prepared(query)
            spec = query.spec()
            predecode(prepared, [spec])
            stats, engine_name = execute_cell(prepared, spec, deadline=deadline)
        except ReproError as exc:
            return {
                "kind": "res",
                "id": request_id,
                "ok": False,
                "error": str(exc),
                "error_type": type(exc).__name__,
                "stage": getattr(exc, "stage", "simulate"),
            }
        return {
            "kind": "res",
            "id": request_id,
            "ok": True,
            "prepared_length": len(prepared),
            "key": query.cell(),
            "trace": query.trace,
            "engine": engine_name,
            "miss": stats.miss_ratio,
            "traffic": stats.traffic_ratio(),
            "scaled": stats.scaled_traffic_ratio(
                NIBBLE_MODE_BUS, query.word_size
            ),
            "stats": stats.to_dict(),
        }

    # -- Lifecycle --------------------------------------------------------

    def _install_sigterm(self) -> None:
        def _drain_handler(signum, frame):
            # Between requests the loop exits at the next check; inside
            # a request the response is written first.  Either way no
            # accepted request is abandoned by a graceful stop.
            self._drain.set()

        try:
            signal.signal(signal.SIGTERM, _drain_handler)
        except ValueError:
            pass  # not the main thread (embedded in tests)

    def run(self) -> int:
        self._install_sigterm()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="repro-worker-hb", daemon=True
        )
        heartbeat.start()
        for raw in self.stdin:
            if self._drain.is_set():
                break
            raw = raw.strip()
            if not raw:
                continue
            try:
                request = json.loads(raw)
            except ValueError:
                continue
            if request.get("kind") != "req":
                continue
            self._requests_served += 1
            if (
                self._crash_after is not None
                and self._requests_served >= self._crash_after
            ):
                # SIGKILL semantics: die with the request in flight,
                # buffers unflushed, no goodbye on the pipe.
                os._exit(137)
            response = self._handle(request)
            if (
                self._stall_after is not None
                and self._requests_served >= self._stall_after
            ):
                # A wedged worker: alive, silent, never answering.
                self._stop_heartbeat.set()
                while True:
                    time.sleep(3600)
            try:
                self._send(response)
            except (BrokenPipeError, ValueError, OSError):
                break
            if self._drain.is_set():
                break
        self._stop_heartbeat.set()
        return 0


def main() -> int:
    return WorkerLoop().run()


if __name__ == "__main__":
    sys.exit(main())
