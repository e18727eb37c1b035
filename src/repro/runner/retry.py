"""Retry policies for transient cell failures.

Long trace-driven campaigns treat a sweep cell as a unit of work that
may fail transiently (injected chaos faults, I/O hiccups) or fatally
(bad geometry, corrupted trace).  :class:`RetryPolicy` decides which
exceptions are worth re-running and spaces the attempts with
exponential backoff plus deterministic jitter, so a thundering herd of
retries never synchronizes and test runs are reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    MachineError,
    TraceFormatError,
    TransientError,
)

__all__ = ["RetryPolicy", "call_with_retry"]

_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule and retryability rules for one run.

    Attributes:
        max_retries: Re-attempts after the first try (0 disables retry).
        base_delay: Backoff before the first retry, in seconds.
        multiplier: Growth factor per retry (2.0 = classic doubling).
        max_delay: Ceiling on any single backoff.
        jitter: Fraction of each delay randomized away (0.5 means the
            actual sleep is uniform in ``[0.5*d, d]``).
        lenient: Also treat :class:`MachineError` and
            :class:`TraceFormatError` as retryable, for campaigns that
            prefer partial results over hard stops.
    """

    max_retries: int = 0
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    lenient: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """True if ``exc`` is worth re-running the cell for.

        :class:`TransientError` is always retryable.  Timeouts never
        are — a cell that exceeded its budget once will again.  In
        lenient mode, machine and trace-format failures are also
        retried (chaos injection uses them to model flaky inputs).
        """
        if isinstance(exc, CellTimeoutError):
            return False
        if isinstance(exc, TransientError):
            return True
        if self.lenient and isinstance(exc, (MachineError, TraceFormatError)):
            return True
        return False

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        Exponential in ``attempt``, capped at ``max_delay``, with the
        jittered fraction drawn from ``rng`` so schedules are
        reproducible under a seeded generator (no ``rng`` is needed
        when ``jitter`` is 0).
        """
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


def call_with_retry(
    fn: Callable[[int], _T],
    policy: RetryPolicy,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> "tuple[_T, int]":
    """Call ``fn(attempt)`` until it succeeds or the budget is spent.

    Args:
        fn: The cell body; receives the 1-based attempt number.
        policy: Retryability rules and backoff schedule.
        rng: Jitter source; a fresh unseeded generator when omitted.
        sleep: Injectable for tests (the runner passes a no-op there).

    Returns:
        ``(result, attempts)`` where ``attempts`` counts every call
        made, including the successful one.

    Raises:
        The last exception, once the retry budget is exhausted or the
        failure is not retryable; its ``retry_attempts`` attribute is
        set to the number of calls made.
    """
    rng = rng if rng is not None else random.Random()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn(attempt), attempt
        except Exception as exc:
            if attempt > policy.max_retries or not policy.is_retryable(exc):
                exc.retry_attempts = attempt
                raise
            sleep(policy.delay(attempt, rng))
