"""Pluggable simulation engines ("decode once, simulate many").

Public surface:

* :class:`~repro.engine.base.Engine` — the interface one simulation
  run is executed through.
* :func:`~repro.engine.base.make_engine` — construction by name.
* :func:`~repro.engine.route.plan` / :class:`~repro.engine.route.Route`
  — the one decision of which path (sampled, stackdist, vectorized,
  reference, checked) answers a cell, and why.
* :class:`~repro.engine.reference.ReferenceEngine` — the object-model
  loop (semantics baseline; handles guarded / fault-injected traces).
* :class:`~repro.engine.vectorized.VectorizedEngine` — the NumPy batch
  engine, pinned to the reference by the equivalence suite.
* :class:`~repro.engine.checked.CheckedEngine` — reference semantics
  plus per-access sanitizer assertions (cache-model invariants and
  statistics conservation laws); the ``--sanitize`` engine.
* :class:`~repro.engine.traceview.TraceView` — shared cached decode of
  one trace, reused across every geometry of a sweep.
* :mod:`repro.engine.batch` — :class:`~repro.engine.batch.CellSpec`
  (every axis of one cell) and the batch entry point: prepare and
  predecode a trace once, then run many cells against the shared view
  (the unit of work behind the service's per-trace request batching).

See ``docs/engines.md`` for the architecture and the equivalence
contract.
"""

from repro.engine.base import ENGINE_NAMES, Engine, make_engine
from repro.engine.batch import (
    CellSpec,
    execute_cell,
    predecode,
    prepare_trace,
    run_cell,
)
from repro.engine.checked import CheckedCache, CheckedEngine, check_cache_invariants
from repro.engine.reference import ReferenceEngine
from repro.engine.route import Route, plan
from repro.engine.traceview import TraceView
from repro.engine.vectorized import VectorizedEngine

__all__ = [
    "Engine",
    "ENGINE_NAMES",
    "make_engine",
    "plan",
    "Route",
    "ReferenceEngine",
    "VectorizedEngine",
    "CheckedEngine",
    "CheckedCache",
    "check_cache_invariants",
    "TraceView",
    "CellSpec",
    "execute_cell",
    "prepare_trace",
    "predecode",
    "run_cell",
]
