"""Simulation-as-a-service: the interactive query layer.

The batch pipeline (runner -> engine) answers "run this whole sweep";
this package answers "what is the miss/traffic ratio for geometry G on
trace T?" interactively, over HTTP/JSON, at cache-hit latency for the
repeat-heavy query mixes cache studies produce.  Pieces:

* :mod:`~repro.service.query` — query normalization and the
  content-address shared with sweep checkpoints.
* :mod:`~repro.service.cache` — memory-LRU + WAL-store result cache,
  checkpoint-interoperable.
* :mod:`~repro.service.simulator` — coalescing, per-trace batching,
  admission, worker dispatch.
* :mod:`~repro.service.admission` — bounded queue and circuit breaker
  (the runner's :class:`~repro.runner.health.Breaker`).
* :mod:`~repro.service.store` — the crash-safe WAL result store
  (fsync'd commits, torn-tail recovery, quarantine).
* :mod:`~repro.service.supervisor` / :mod:`~repro.service.worker` —
  supervised child-process execution with heartbeats and restarts,
  configured by the same :class:`~repro.service.simulator.ServiceConfig`.
* :mod:`~repro.service.chaos` — the ``repro chaos --serve`` scenarios.
* :mod:`~repro.service.metrics` — Prometheus text-format metrics.
* :mod:`~repro.service.app` — the asyncio HTTP edge
  (``python -m repro serve``).

See ``docs/service.md`` for endpoints, cache semantics, overload
behavior, and the failure model.
"""

from repro.service.admission import AdmissionController, RejectedError
from repro.service.cache import CacheEntry, ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.query import SimQuery, expand_sweep
from repro.service.simulator import ServiceConfig, SimResult, SimulationService
from repro.service.store import RecoveryReport, WalStore
from repro.service.supervisor import Supervisor

__all__ = [
    "AdmissionController",
    "CacheEntry",
    "MetricsRegistry",
    "RecoveryReport",
    "RejectedError",
    "ResultCache",
    "ServiceConfig",
    "SimQuery",
    "SimResult",
    "SimulationService",
    "Supervisor",
    "WalStore",
    "expand_sweep",
]
