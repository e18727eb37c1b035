"""Admission control: bounded queue, in-flight cap, circuit breaker.

The service degrades by *refusing* work, never by falling over: when
the queue is full or the breaker is open, a request is rejected
immediately with a machine-readable reason and a ``Retry-After`` hint
(HTTP 429/503 at the edge), instead of being buffered without bound.

The breaker is the runner's :class:`~repro.runner.health.Breaker`,
the same failure-streak count that aborts a drowning sweep; the
service waits out its open/half-open cool-down instead, so a
long-running server recovers once the underlying fault clears.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError, ReproError
from repro.runner.health import Breaker

__all__ = ["RejectedError", "AdmissionController"]


class RejectedError(ReproError):
    """A request refused by admission control.

    Attributes:
        reason: Machine-readable cause (``queue_full``, ``breaker_open``).
        retry_after: Suggested client back-off in seconds.
    """

    def __init__(self, message: str, reason: str, retry_after: float) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionController:
    """Decides, synchronously, whether one more query may enter.

    The service's scheduler enforces ``max_inflight`` (it never
    dispatches more cells than that); this controller bounds what may
    *wait*: when ``queued`` is already at ``max_queue``, the request is
    refused with 429 semantics rather than queued into unbounded
    latency.

    Args:
        max_inflight: Worker-slot cap, exposed for the scheduler.
        max_queue: Longest tolerated wait queue.
        retry_after: Back-off hint attached to queue-full rejections.
        breaker: Failure-streak breaker consulted before the queue.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 64,
        retry_after: float = 1.0,
        breaker: Optional[Breaker] = None,
    ) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {max_queue}"
            )
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.breaker = breaker if breaker is not None else Breaker()

    def admit(self, queued: int) -> None:
        """Raise :class:`RejectedError` if the request may not enter.

        Args:
            queued: Queries currently waiting (not yet dispatched).
        """
        if not self.breaker.allow():
            raise RejectedError(
                "service is shedding load after repeated simulation "
                "failures; retry shortly",
                reason="breaker_open",
                retry_after=self.breaker.retry_after(),
            )
        if queued >= self.max_queue:
            raise RejectedError(
                f"queue is full ({queued} waiting, limit {self.max_queue}); "
                "retry shortly",
                reason="queue_full",
                retry_after=self.retry_after,
            )
