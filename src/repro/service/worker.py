"""Supervised simulation worker: one child process, JSON lines, heartbeats.

Run as ``python -m repro.service.worker`` by the supervisor
(:mod:`repro.service.supervisor`).  The protocol is newline-delimited
JSON over the standard pipes, with one request kind:

* **stdin** (supervisor -> worker): ``{"kind": "group", "id": N,
  "group": [suite, trace, length, filter_writes], "queries":
  [{"query": {...}, "deadline_ms": M | null}, ...]}`` — one trace
  group (a lone query is a group of one), answered by
  :func:`repro.service.simulator.run_trace_group` as an in-process
  thread answers it.  EOF means drain-and-exit.
* **stdout** (worker -> supervisor): ``{"kind": "res", "id": N,
  "ok": true, "prepared_length": L, "prepare_s": S, "simulate_s":
  [...], "results": [{"record": {...}} | {"error": msg, "error_type":
  name, "stage": s}, ...]}`` (``"ok": false`` and the error fields
  when the trace could not be prepared), plus unsolicited
  ``{"kind": "hb", "ts": T}`` heartbeats from a daemon thread, every
  :data:`~repro.service.supervisor.HEARTBEAT_INTERVAL` seconds.  A
  worker that stops heartbeating is presumed hung and gets SIGKILLed
  by the supervisor.

Each query's *remaining* deadline milliseconds become a local monotonic
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
* ``REPRO_WORKER_CRASH_ON_NET`` — ``os._exit(137)`` on any request
  carrying a query whose net size is N: a poison query.
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
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.service.query import SimQuery
from repro.service.simulator import run_trace_group
from repro.service.supervisor import HEARTBEAT_INTERVAL

__all__ = ["WorkerLoop", "main"]


def _chaos_targets_me(index: int) -> bool:
    raw = os.environ.get("REPRO_WORKER_CHAOS_INDEX", "")
    if not raw:
        return True
    try:
        return index in {int(part) for part in raw.split(",") if part.strip()}
    except ValueError:
        return True


def _error_fields(exc: Exception) -> Dict[str, Any]:
    return {
        "error": str(exc),
        "error_type": type(exc).__name__,
        "stage": getattr(exc, "stage", "simulate"),
    }


class WorkerLoop:
    """The request loop of one worker process."""

    def __init__(self, stdin=None, stdout=None) -> None:
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        self.index = int(os.environ.get("REPRO_WORKER_INDEX", "0"))
        self._write_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._drain = threading.Event()
        self._requests_served = 0
        targeted = _chaos_targets_me(self.index)

        def hook(name: str) -> Optional[int]:
            value = os.environ.get(name) if targeted else None
            return int(value) if value else None

        self._crash_after = hook("REPRO_WORKER_CRASH_AFTER")
        self._crash_on_net = hook("REPRO_WORKER_CRASH_ON_NET")
        self._stall_after = hook("REPRO_WORKER_STALL_HEARTBEAT_AFTER")
        if targeted and os.environ.get("REPRO_WORKER_CRASH_ON_START"):
            sys.exit(1)

    # -- Wire helpers -----------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        # Unsorted: a record's stats keep the engine's field order, so
        # a body served from a worker is byte-equal to an in-process one.
        line = json.dumps(message)
        with self._write_lock:
            self.stdout.write(line + "\n")
            self.stdout.flush()

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(HEARTBEAT_INTERVAL):
            try:
                self._send({"kind": "hb", "ts": time.time()})
            except (BrokenPipeError, ValueError, OSError):
                return

    # -- Execution --------------------------------------------------------

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response: Dict[str, Any] = {"kind": "res", "id": request.get("id")}
        now = time.monotonic()
        try:
            group = tuple(request["group"])
            entries = request["queries"]
            ran = run_trace_group(
                group,
                [
                    SimQuery.from_payload(entry["query"], default_length=group[2])
                    for entry in entries
                ],
                [
                    now + entry["deadline_ms"] / 1000.0
                    if entry.get("deadline_ms") is not None
                    else None
                    for entry in entries
                ],
            )
        except ReproError as exc:
            return dict(response, ok=False, **_error_fields(exc))
        return dict(
            response,
            ok=True,
            prepared_length=ran.prepared_length,
            prepare_s=ran.prepare_seconds,
            simulate_s=ran.simulate_seconds,
            results=[
                _error_fields(outcome)
                if isinstance(outcome, Exception)
                else {"record": outcome}
                for outcome in ran.outcomes
            ],
        )

    def _poisoned(self, request: Dict[str, Any]) -> bool:
        return self._crash_on_net is not None and any(
            entry["query"]["geometry"]["net"] == self._crash_on_net
            for entry in request.get("queries", ())
        )

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
            if request.get("kind") != "group":
                continue
            self._requests_served += 1
            if self._poisoned(request) or (
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
