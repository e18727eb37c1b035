"""Metric names, statistics and result output shared by all workloads."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, Iterator, List, Sequence, Tuple

#: End-to-end metrics (``--trace 0``): ``(name, unit)``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("rps", "1/s"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics (``--trace 1``): ``(name, unit)``.  Sweep times are
#: self seconds per round; serve times are per computed response.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.gen_s", "s"),
    ("trace.filter_s", "s"),
    ("staticcheck.preflight_s", "s"),
    ("stackdist.plan_s", "s"),
    ("stackdist.pass_s", "s"),
    ("stackdist.passes", "count"),
    ("stackdist.covered_ratio", "ratio"),
    ("engine.traceview.decode_s", "s"),
    ("engine.vectorized.run_s", "s"),
    ("engine.vectorized.cells", "count"),
    ("engine.vectorized.accesses_per_s", "1/s"),
    ("engine.reference.run_s", "s"),
    ("engine.reference.cells", "count"),
    ("engine.reference.accesses_per_s", "1/s"),
    ("staticcheck.phases.plan_s", "s"),
    ("engine.sampled.run_s", "s"),
    ("engine.sampled.simulated_fraction", "ratio"),
    ("runner.self_s", "s"),
    ("runner.checkpoint.write_s", "s"),
    ("runner.checkpoint.records", "count"),
    ("runner.checkpoint.bytes", "bytes"),
    ("runner.retried", "count"),
    ("runner.skipped", "count"),
    ("core.accesses", "count"),
    ("core.misses", "count"),
    ("core.bytes_fetched", "bytes"),
    ("core.misspath.memory_bytes", "bytes"),
    ("service.app.edge_ms", "ms"),
    ("service.simulator.queue_ms", "ms"),
    ("service.simulator.prepare_ms", "ms"),
    ("service.simulator.simulate_ms", "ms"),
    ("service.simulator.coalesced", "count"),
    ("service.simulator.rejected", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("engine.run_cell_ms", "ms"),
    ("service.supervisor.overhead_ms", "ms"),
    ("service.supervisor.worker_restarts", "count"),
    ("trace_overhead_ratio", "ratio"),
)

UNITS: Dict[str, str] = dict(END_TO_END + PER_LAYER)

#: Span name -> per-layer self-time metric.
LAYER_TIMES: Dict[str, str] = {
    "trace.filter": "trace.filter_s",
    "staticcheck.preflight": "staticcheck.preflight_s",
    "stackdist.plan": "stackdist.plan_s",
    "stackdist.pass": "stackdist.pass_s",
    "engine.traceview.decode": "engine.traceview.decode_s",
    "engine.vectorized": "engine.vectorized.run_s",
    "engine.reference": "engine.reference.run_s",
    "staticcheck.phases": "staticcheck.phases.plan_s",
    "engine.sampled": "engine.sampled.run_s",
    "runner.checkpoint.write": "runner.checkpoint.write_s",
    "runner": "runner.self_s",
}

#: Scratch space inside the checkout, one per process so that runs in the
#: same checkout never share files; removed when a run ends.
SCRATCH = Path(".perfbench_tmp") / str(os.getpid())

#: Where traced runs leave their spans (JSON lines), inside the checkout.
OUT = Path(".perfbench_out")


def spans_path(workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT / f"spans-{workload}-{seed}.jsonl"


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux ``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of one live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of a live process."""
    children: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                children.extend(int(value) for value in handle.read().split())
        except FileNotFoundError:
            continue
    return children


#: Iterations of the host-speed probe: a fixed pure-Python loop.
PROBE_LOOP = 18_000

#: The probe's time on the nominal host that time metrics are scaled to.
PROBE_NOMINAL_S = 0.001

#: Seconds between probes.
PROBE_INTERVAL = 0.1

#: Probes up to this many seconds either side of a piece of work set its
#: scale; longer work is scaled in pieces of this length.
PROBE_WINDOW = 1.0


class HostSpeed:
    """Host time scaled to a nominal host speed.

    On a shared host the same Python code runs up to 1.6 times slower in
    some seconds than in others: other guests load the same cores, and
    the slowdown shows in CPU time as much as in wall time.  A fixed
    pure-Python loop, run every :data:`PROBE_INTERVAL` seconds in the
    measuring thread, tracks that speed as it changes.  :meth:`scaled`
    turns two ``time.monotonic()`` readings into nominal seconds: the
    time between them, less the probes' own time, times
    :data:`PROBE_NOMINAL_S` over the median probe time around it.  The
    loop is the benchmark's own code, so a change to the program moves
    the scaled times exactly as much as the raw ones.

    In-process work is probed by a ``SIGALRM`` ticker (:meth:`ticking`);
    a client that waits on another process probes between requests
    (:meth:`maybe_probe`), when the server is idle.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._spent = [0.0]  # prefix sums of durations
        self._probing = False
        self._steal = self._read_steal()
        self.probe()

    def probe(self, *_signal: object) -> None:
        if self._probing:
            return  # a timer tick inside a probe would lengthen it
        self._probing = True
        try:
            started = time.monotonic()
            total = 0
            for value in range(PROBE_LOOP):
                total += value
            took = time.monotonic() - started
            self.starts.append(started)
            self.durations.append(took)
            self._spent.append(self._spent[-1] + took)
        finally:
            self._probing = False

    def maybe_probe(self) -> None:
        if time.monotonic() - self.starts[-1] >= PROBE_INTERVAL:
            self.probe()

    @contextmanager
    def ticking(self) -> Iterator[None]:
        """Probe every :data:`PROBE_INTERVAL` seconds from ``SIGALRM``."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _piece(self, start: float, end: float, window: float) -> float:
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        own = self._spent[last] - self._spent[first]
        around = self.durations[bisect_left(self.starts, start - window):
                                bisect_right(self.starts, end + window)]
        return (end - start - own) * PROBE_NOMINAL_S / median(around or self.durations)

    def scaled(self, start: float, end: float, window: float = PROBE_WINDOW) -> float:
        """Nominal seconds between two ``time.monotonic()`` readings, set
        by the probes within ``window`` seconds of the work.  Work much
        shorter than the probe interval should be bracketed by its own
        probes and scaled with a narrow window: the host's speed changes
        from one tenth of a second to the next."""
        total = 0.0
        while start < end:
            piece_end = min(end, start + PROBE_WINDOW)
            total += self._piece(start, piece_end, window)
            start = piece_end
        return total

    def ratio(self, start: float, end: float) -> float:
        """Nominal seconds per host second over an interval, for samples
        timed inside it."""
        return self.scaled(start, end) / (end - start) if end > start else 1.0

    @staticmethod
    def _read_steal() -> Tuple[int, int]:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
        return fields[7], sum(fields[:8])

    def note(self) -> str:
        steal, total = self._read_steal()
        share = (steal - self._steal[0]) / max(total - self._steal[1], 1)
        ms = [duration * 1000.0 for duration in self.durations]
        return (f"host speed: {len(ms)} probes of {PROBE_LOOP} loop steps, p10/p50/p90 "
                f"{percentile(ms, 0.1):.3f}/{percentile(ms, 0.5):.3f}/"
                f"{percentile(ms, 0.9):.3f} ms (nominal {PROBE_NOMINAL_S * 1000.0:g} ms); "
                f"steal {share:.1%} of CPU time")


def make_scratch() -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return SCRATCH


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass  # another run's scratch is still there


@dataclass
class Result:
    """What one run measured and whether its outputs were right."""

    workload: str
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        if name not in UNITS:
            raise KeyError(f"unknown metric {name!r}")
        self.metrics[name] = (float(value), int(samples))

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def emit(self, names: Sequence[Tuple[str, str]], out=None) -> dict:
        """Print every metric by name, unit and sample count, then the
        JSON summary as the last line; returns the summary."""
        out = out or sys.stdout
        missing = [name for name, _ in names if name not in self.metrics]
        if missing:
            raise KeyError(f"{self.workload}: metrics not measured: {missing}")
        for note in self.notes:
            print(f"# {note}", file=out)
        for message in self.mismatches:
            print(f"MISMATCH {message}", file=out)
        error_rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"{self.workload:16s} {'error_rate':36s} {error_rate:14.6g} ratio "
              f"(n={self.attempted})", file=out)
        for name, unit in names:
            value, samples = self.metrics[name]
            shown = f"{int(value):14d}" if value.is_integer() else f"{value:14.6g}"
            print(f"{self.workload:16s} {name:36s} {shown} {unit} (n={samples})", file=out)
        summary = {
            "correct": self.correct,
            "attempted": max(int(self.attempted), 1),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": unit}
                for name, unit in names
            },
        }
        print(json.dumps(summary), file=out, flush=True)
        return summary


def zero_fill(result: Result) -> None:
    """Report 0 for per-layer metrics of layers that did no work."""
    for name, _unit in PER_LAYER:
        if name not in result.metrics:
            result.put(name, 0.0, 0)
