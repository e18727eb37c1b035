"""In-memory span recorder and the wrappers around the program's layers.

A span is one call into a layer's public entry point: its name, start
and end (``time.monotonic``, which on Linux is one clock shared by all
processes), the span that caused it and the run it belongs to.  Spans
stay in memory and are written as JSON lines when the run ends.

The wrappers are installed by the benchmark itself, by patching the
entry points named in :data:`LAYER_ENTRY_POINTS`; the program is not
changed.  They record nothing until :attr:`Recorder.enabled` is set, so
set-up and output checks can run through the same functions untraced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, attribute path, span name)`` for every wrapped entry point.
#: A path with a dot is a method; a module-level function is patched in
#: each module that imported it, because callers look it up there.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.suites", "TraceSpec.build", "workloads.gen"),
    ("repro.engine.traceview", "TraceView.reads_only", "trace.filter"),
    ("repro.engine.traceview", "TraceView.of", "engine.traceview.decode"),
    ("repro.engine.traceview", "TraceView.demand", "engine.traceview.decode"),
    ("repro.engine.traceview", "TraceView.set_and_tag", "engine.traceview.decode"),
    ("repro.staticcheck.preflight", "preflight_sweep", "staticcheck.preflight"),
    ("repro.runner.runner", "plan_grid", "stackdist.plan"),
    ("repro.runner.runner", "run_group_pass", "stackdist.pass"),
    ("repro.service.simulator", "run_group_pass", "stackdist.pass"),
    ("repro.engine.vectorized", "VectorizedEngine.run", "engine.vectorized"),
    ("repro.engine.reference", "ReferenceEngine.run", "engine.reference"),
    ("repro.staticcheck.phases", "analyze_trace", "staticcheck.phases"),
    ("repro.engine.sampled", "analyze_trace", "staticcheck.phases"),
    ("repro.engine.sampled", "run_sampled", "engine.sampled"),
    ("repro.runner.checkpoint", "CheckpointWriter.record_cell", "runner.checkpoint.write"),
)

#: Engine spans opened inside a sampled cell are its interval runs: they
#: belong to ``engine.sampled`` and are not recorded as cells of their own.
_SAMPLED = "engine.sampled"
_CELL_ENGINES = frozenset({"engine.vectorized", "engine.reference"})


class Recorder:
    """Collects spans and per-layer counts for one benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- Recording ------------------------------------------------------

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when the current thread is inside a span called ``name``."""
        return any(open_name == name for _, open_name in self._stack())

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body (when enabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
            )

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call made while enabled."""
        recorder = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled or (
                name in _CELL_ENGINES and recorder.inside(_SAMPLED)
            ):
                return fn(*args, **kwargs)
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(recorder, args, result)
            return result

        return wrapper

    # -- Installing the wrappers ---------------------------------------

    def install(self) -> None:
        """Patch every importable entry point of :data:`LAYER_ENTRY_POINTS`."""
        for module_name, path, name in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner: Any = module
            attr = path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- Output ----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


# -- Counts recorded at the same boundaries as the spans -----------------


def _add_core(recorder: Recorder, stats: Any) -> None:
    """Exact simulated counts of one cell (never estimates)."""
    recorder.count("core.accesses", stats.accesses)
    recorder.count("core.misses", stats.misses)
    recorder.count("core.bytes_fetched", stats.bytes_fetched)
    if stats.misspath is not None:
        recorder.count("core.misspath.memory_bytes", stats.misspath.memory_bytes_fetched)


def _engine_observer(layer: str) -> Callable:
    def observe(recorder: Recorder, args: tuple, stats: Any) -> None:
        # Engine.run(self, geometry, trace, ...)
        recorder.count(f"{layer}.cells")
        recorder.count(f"{layer}.accesses", len(args[2]))
        _add_core(recorder, stats)

    return observe


def _pass_observer(recorder: Recorder, args: tuple, stats_list: Any) -> None:
    recorder.count("stackdist.passes")
    recorder.count("stackdist.cells", len(stats_list))
    for stats in stats_list:
        _add_core(recorder, stats)


def _sampled_observer(recorder: Recorder, args: tuple, sampled: Any) -> None:
    recorder.count("engine.sampled.cells")
    recorder.count("engine.sampled.simulated", sampled.simulated_accesses)
    recorder.count("engine.sampled.total", sampled.total_accesses)


def _checkpoint_observer(recorder: Recorder, args: tuple, _result: Any) -> None:
    recorder.count("runner.checkpoint.records")


_OBSERVERS: Dict[str, Callable] = {
    "engine.vectorized": _engine_observer("engine.vectorized"),
    "engine.reference": _engine_observer("engine.reference"),
    "stackdist.pass": _pass_observer,
    "engine.sampled": _sampled_observer,
    "runner.checkpoint.write": _checkpoint_observer,
}


# -- Aggregation ---------------------------------------------------------


def self_times(
    spans: List[Dict[str, Any]],
    window: Optional[Tuple[float, float]] = None,
) -> Dict[str, float]:
    """Seconds per span name, each span counted minus its children.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; summed per name, the layers partition
    the traced time without double counting.  With ``window``, only
    spans that start inside ``[lo, hi)`` count.
    """
    if window is not None:
        lo, hi = window
        spans = [span for span in spans if lo <= span["start"] < hi]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        totals[span["name"]] += span["end"] - span["start"] - covered
    return dict(totals)
