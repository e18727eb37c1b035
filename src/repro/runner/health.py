"""Run-health tracking: per-cell outcomes, failure limits, reports.

The runner records one :class:`CellOutcome` per (geometry, trace) cell
and folds them into a :class:`RunReport`, which names every skipped
cell and why — the paper's unweighted suite averages are only credible
when the reader can see exactly which traces are missing from them.
:class:`Breaker` counts failure streaks: in lenient mode a sweep keeps
going past individual failures, but a long unbroken failure streak
means the experiment itself is broken and the run should stop rather
than burn hours producing an empty table.  The service's admission
control and its supervised workers use the same breaker.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = ["CellStatus", "CellOutcome", "RunReport", "Breaker"]


class CellStatus(enum.Enum):
    """Terminal state of one sweep cell."""

    OK = "ok"
    RESUMED = "resumed"  # taken from a checkpoint, not re-simulated
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one (geometry, trace) cell.

    Attributes:
        key: The runner's cell key.
        trace: Trace name (also embedded in the key).
        status: Terminal state.
        attempts: Calls made, including the successful one.
        reason: Failure description for skipped cells.
        elapsed: Wall-clock seconds spent on the cell (0 for resumed).
        engine: Name of the engine that computed the cell
            (``stackdist`` for one-pass grid cells, ``vectorized`` /
            ``reference`` for per-cell runs; empty for skipped cells
            and for resumed records that predate engine tracking).
    """

    key: str
    trace: str
    status: CellStatus
    attempts: int = 1
    reason: str = ""
    elapsed: float = 0.0
    engine: str = ""


@dataclass
class RunReport:
    """Aggregate health of one resilient sweep.

    Attributes:
        outcomes: One entry per cell, in execution order.
        preflight: Warning-severity findings from the static preflight
            (:mod:`repro.staticcheck.preflight`).  Error findings never
            reach a report — they abort the sweep before any cell runs.
        pass_groups: Stack-distance pass groups the sweep planner
            scheduled (0 for per-cell-only sweeps).
    """

    outcomes: List[CellOutcome] = field(default_factory=list)
    preflight: List = field(default_factory=list)
    pass_groups: int = 0

    def add(self, outcome: CellOutcome) -> None:
        self.outcomes.append(outcome)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(
            1 for o in self.outcomes if o.status is not CellStatus.SKIPPED
        )

    @property
    def resumed(self) -> int:
        return sum(1 for o in self.outcomes if o.status is CellStatus.RESUMED)

    @property
    def retried(self) -> int:
        """Cells that needed more than one attempt but got there."""
        return sum(
            1
            for o in self.outcomes
            if o.status is CellStatus.OK and o.attempts > 1
        )

    @property
    def skipped(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status is CellStatus.SKIPPED]

    def skipped_by_trace(self) -> Dict[str, List[CellOutcome]]:
        """Skipped cells grouped by trace name."""
        grouped: Dict[str, List[CellOutcome]] = {}
        for outcome in self.skipped:
            grouped.setdefault(outcome.trace, []).append(outcome)
        return grouped

    def by_engine(self) -> Dict[str, int]:
        """Completed-cell counts per computing engine.

        Cells without an engine label (skips, resumed records written
        before engine tracking) land under ``""`` and are left out of
        :meth:`summary`.
        """
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.status is CellStatus.SKIPPED:
                continue
            counts[outcome.engine] = counts.get(outcome.engine, 0) + 1
        return counts

    def summary(self) -> str:
        """Multi-line human-readable digest, skips listed with reasons."""
        lines = [
            f"cells: {self.total} total, {self.completed} completed "
            f"({self.resumed} from checkpoint, {self.retried} after retry), "
            f"{len(self.skipped)} skipped"
        ]
        engines = {
            name: count for name, count in self.by_engine().items() if name
        }
        if engines:
            parts = ", ".join(
                f"{name} {count}" for name, count in sorted(engines.items())
            )
            lines.append(
                f"engines: {parts} ({self.pass_groups} stackdist pass "
                f"group{'s' if self.pass_groups != 1 else ''})"
            )
        for outcome in self.skipped:
            lines.append(f"  skipped {outcome.key}: {outcome.reason}")
        return "\n".join(lines)


class Breaker:
    """The failure-streak circuit breaker of the runner and the service.

    It counts the current streak of failed outcomes; a success ends the
    streak.  Every failure that brings the streak to
    ``max_consecutive_failures`` or past it trips the breaker: it opens
    for ``reset_after`` seconds, during which :meth:`allow` refuses.
    After the cool-down it half-opens: traffic is admitted again, the
    first success closes it, and a failure re-trips it at once.  The
    streak keeps counting past a trip, so the supervisor's restart
    backoff, which grows with it, keeps growing.

    A sweep aborts on the first trip (a long failure streak means the
    experiment itself is broken); the service's admission control and
    each supervised worker wait out the cool-down instead.

    Args:
        max_consecutive_failures: Streak that trips the breaker (None
            never trips; the streak is still counted).
        reset_after: Open-state cool-down in seconds.
        clock: Injectable monotonic clock for tests.
    """

    def __init__(
        self,
        max_consecutive_failures: Optional[int] = 5,
        reset_after: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_consecutive_failures is not None and max_consecutive_failures < 1:
            raise ConfigurationError(
                "max_consecutive_failures must be >= 1, got "
                f"{max_consecutive_failures}"
            )
        if reset_after <= 0:
            raise ConfigurationError(
                f"reset_after must be positive, got {reset_after}"
            )
        self.max_consecutive_failures = max_consecutive_failures
        self.reset_after = reset_after
        self._clock = clock
        self._opened_at: Optional[float] = None
        self.streak = 0
        self.trips = 0

    @property
    def state(self) -> str:
        """``closed``, ``open``, or ``half-open``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a new request may be admitted right now."""
        return self.state != "open"

    def retry_after(self) -> float:
        """Seconds until the breaker half-opens (0 when not open)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self.reset_after - (self._clock() - self._opened_at))

    def record(self, key: str, trace: str, error: Optional[str] = None) -> bool:
        """Count the outcome of cell ``key`` on ``trace``.

        Args:
            error: Why the cell failed; None for a success.

        Returns:
            True when this outcome trips the breaker.
        """
        if error is None:
            self.streak = 0
            if self.state == "half-open":
                self._opened_at = None
            return False
        self.streak += 1
        limit = self.max_consecutive_failures
        if limit is None or self.streak < limit:
            return False
        self._opened_at = self._clock()
        self.trips += 1
        return True
