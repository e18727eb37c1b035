"""Minimal Prometheus text-format metrics (stdlib only).

Three instrument types cover the service's observability needs:
:class:`Counter` and :class:`Gauge` with optional labels, and a
fixed-bucket :class:`Histogram` for per-stage latencies.  A
:class:`MetricsRegistry` owns the instruments and renders the exposition
format (``text/plain; version=0.0.4``) for ``GET /metrics``.

Everything is lock-protected: request accounting happens on the event
loop while cell completions land on worker threads.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default latency buckets, in seconds.  Cache hits land in the
#: sub-millisecond buckets; cold simulations of paper-scale traces in
#: the multi-second tail.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Prometheus-friendly number: integers without a trailing ``.0``."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _label_string(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared label plumbing of counters and gauges."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labels: Sequence[str] = ()):
        self.name = name
        self.help_text = help_text
        self.labels = tuple(labels)
        self._values: Dict[LabelValues, float] = {}
        self._lock = threading.Lock()

    def _key(self, labels: "Optional[Dict[str, str]]") -> LabelValues:
        labels = labels or {}
        if set(labels) != set(self.labels):
            raise ValueError(
                f"{self.name}: expected labels {list(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def value(self, labels: "Optional[Dict[str, str]]" = None) -> float:
        """Current value for one label combination (0 if never touched)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.labels:
            items = [((), 0.0)]
        for values, value in items:
            lines.append(
                f"{self.name}{_label_string(self.labels, values)} "
                f"{_format_value(value)}"
            )
        return lines


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def inc(
        self, amount: float = 1.0, labels: "Optional[Dict[str, str]]" = None
    ) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """Value that can go up and down (queue depth, in-flight cells)."""

    kind = "gauge"

    def set(
        self, value: float, labels: "Optional[Dict[str, str]]" = None
    ) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def inc(
        self, amount: float = 1.0, labels: "Optional[Dict[str, str]]" = None
    ) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(
        self, amount: float = 1.0, labels: "Optional[Dict[str, str]]" = None
    ) -> None:
        self.inc(-amount, labels)


class Histogram:
    """Fixed-bucket latency histogram with labels.

    Renders cumulative ``_bucket`` series (including ``+Inf``) plus
    ``_sum`` and ``_count``, per Prometheus convention.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labels = tuple(labels)
        self.buckets = tuple(sorted(buckets))
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}
        self._lock = threading.Lock()

    def _key(self, labels: "Optional[Dict[str, str]]") -> LabelValues:
        labels = labels or {}
        if set(labels) != set(self.labels):
            raise ValueError(
                f"{self.name}: expected labels {list(self.labels)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def observe(
        self, value: float, labels: "Optional[Dict[str, str]]" = None
    ) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, labels: "Optional[Dict[str, str]]" = None) -> int:
        """Total observations for one label combination."""
        key = self._key(labels)
        with self._lock:
            return self._totals.get(key, 0)

    def sum(self, labels: "Optional[Dict[str, str]]" = None) -> float:
        """Sum of the observations for one label combination."""
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} histogram",
        ]
        with self._lock:
            keys = sorted(self._counts)
            snapshot = [
                (key, list(self._counts[key]), self._sums[key], self._totals[key])
                for key in keys
            ]
        for values, counts, total_sum, total in snapshot:
            for bound, count in zip(self.buckets, counts):
                labels = dict(zip(self.labels, values))
                labels["le"] = _format_value(bound)
                names = tuple(self.labels) + ("le",)
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_string(names, tuple(labels[n] for n in names))} "
                    f"{count}"
                )
            names = tuple(self.labels) + ("le",)
            inf_values = values + ("+Inf",)
            lines.append(
                f"{self.name}_bucket{_label_string(names, inf_values)} {total}"
            )
            lines.append(
                f"{self.name}_sum{_label_string(self.labels, values)} "
                f"{_format_value(total_sum)}"
            )
            lines.append(
                f"{self.name}_count{_label_string(self.labels, values)} {total}"
            )
        return lines


class MetricsRegistry:
    """The service's instruments, creatable once and rendered on demand."""

    def __init__(self) -> None:
        self._instruments: "List[object]" = []
        self.requests_total = self.counter(
            "repro_service_requests_total",
            "HTTP requests by endpoint and status code.",
            labels=("endpoint", "status"),
        )
        self.cache_lookups_total = self.counter(
            "repro_service_cache_lookups_total",
            "Result-cache lookups by outcome (memory, disk, miss).",
            labels=("outcome",),
        )
        self.cache_hit_ratio = self.gauge(
            "repro_service_cache_hit_ratio",
            "Hits / lookups since startup (memory and disk tiers).",
        )
        self.coalesced_total = self.counter(
            "repro_service_coalesced_total",
            "Requests that joined another request's in-flight computation.",
        )
        self.rejected_total = self.counter(
            "repro_service_rejected_total",
            "Requests rejected by admission control, by reason.",
            labels=("reason",),
        )
        self.queue_depth = self.gauge(
            "repro_service_queue_depth",
            "Queries waiting for a worker slot.",
        )
        self.inflight = self.gauge(
            "repro_service_inflight",
            "Simulation cells currently executing.",
        )
        self.cells_total = self.counter(
            "repro_service_cells_total",
            "Simulation cells executed, by terminal status.",
            labels=("status",),
        )
        self.misspath_hits_total = self.counter(
            "repro_service_misspath_hits_total",
            "Miss-path chain services for computed cells, by structure "
            "(victim/miss/stream/l2; 'memory' counts unserviced fetches).",
            labels=("structure",),
        )
        self.stage_seconds = self.histogram(
            "repro_service_stage_seconds",
            "Per-stage latency: queue wait, trace prepare, simulate, total.",
            labels=("stage",),
        )
        self.worker_restarts_total = self.counter(
            "repro_service_worker_restarts_total",
            "Supervised worker restarts, by reason (crashed, hung).",
            labels=("reason",),
        )
        self.workers_alive = self.gauge(
            "repro_service_workers_alive",
            "Supervised worker processes currently running.",
        )
        self.deadline_exceeded_total = self.counter(
            "repro_service_deadline_exceeded_total",
            "Requests whose X-Repro-Deadline-Ms budget expired, by stage.",
            labels=("stage",),
        )
        self.store_recoveries_total = self.counter(
            "repro_service_store_recoveries_total",
            "WAL store recovery actions (tails truncated, records salvaged).",
            labels=("action",),
        )
        self.store_quarantined_total = self.counter(
            "repro_service_store_quarantined_total",
            "Corrupt WAL segments moved to quarantine (never deleted).",
        )
        self.drain_seconds = self.gauge(
            "repro_service_drain_seconds",
            "Wall-clock seconds the last graceful drain took.",
        )

    # -- Factories --------------------------------------------------------

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Counter:
        instrument = Counter(name, help_text, labels)
        self._instruments.append(instrument)
        return instrument

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> Gauge:
        instrument = Gauge(name, help_text, labels)
        self._instruments.append(instrument)
        return instrument

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        instrument = Histogram(name, help_text, labels, buckets)
        self._instruments.append(instrument)
        return instrument

    # -- Derived updates --------------------------------------------------

    def record_lookup(self, outcome: str) -> None:
        """Count one cache lookup and refresh the hit-ratio gauge."""
        self.cache_lookups_total.inc(labels={"outcome": outcome})
        hits = self.cache_lookups_total.value(
            labels={"outcome": "memory"}
        ) + self.cache_lookups_total.value(labels={"outcome": "disk"})
        misses = self.cache_lookups_total.value(labels={"outcome": "miss"})
        total = hits + misses
        self.cache_hit_ratio.set(hits / total if total else 0.0)

    def render(self) -> str:
        """The full exposition document."""
        lines: List[str] = []
        for instrument in self._instruments:
            lines.extend(instrument.render())  # type: ignore[attr-defined]
        return "\n".join(lines) + "\n"
