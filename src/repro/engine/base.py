"""The engine interface: pluggable executors for one simulation run.

An :class:`Engine` turns ``(geometry, trace, policies, warmup)`` into a
:class:`~repro.core.stats.CacheStats`.  Two implementations ship:

* ``reference`` — the original object-model loop
  (:class:`~repro.core.cache.SubBlockCache` driven by
  :func:`~repro.core.sim.simulate`).  It accepts *any* iterable of
  accesses, which is what the resilient runner's fault-injecting trace
  proxies rely on.
* ``vectorized`` — the NumPy batch engine
  (:mod:`repro.engine.vectorized`): whole-trace decode kernels, flat
  per-set state, memoized fetch plans.  Requires a real
  :class:`~repro.trace.record.Trace` (or
  :class:`~repro.engine.traceview.TraceView`) because it consumes the
  structure-of-arrays columns directly.

Both engines are bound by the **equivalence contract**: identical
inputs must produce *identical* stats, counter for counter.  The
differential suite in ``tests/engine`` enforces it; anything that
cannot honor it (per-access fault proxies) routes to ``reference`` —
see :func:`repro.engine.route.plan` and ``docs/engines.md``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from itertools import islice
from typing import Any, Dict, Iterator, Optional, Union

from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.core.replacement import ReplacementPolicy
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.errors import ConfigurationError, DeadlineExceededError

__all__ = [
    "Engine",
    "ENGINE_NAMES",
    "deadline_guard",
    "make_engine",
]

#: Accesses between deadline checks in the per-access engines.  Small
#: enough that an expired deadline surfaces within microseconds of
#: simulated work, large enough that the clock read is invisible in the
#: per-access profile.
DEADLINE_CHECK_EVERY = 1024


def deadline_guard(
    trace, deadline: Optional[float], stage: str = "simulate"
) -> Iterator:
    """Yield ``trace``'s accesses, raising once ``deadline`` passes.

    The cooperative-cancellation shim for the per-access engines: the
    monotonic clock (:func:`time.monotonic`, the service's deadline
    epoch) is sampled before every :data:`DEADLINE_CHECK_EVERY` accesses
    and once more at the end of the trace, so a short trace cannot
    outrun an expired deadline.  A ``None`` deadline yields the trace
    unchanged.

    Raises:
        DeadlineExceededError: When the budget expires.
    """
    if deadline is None:
        yield from trace
        return
    accesses = iter(trace)
    while True:
        if time.monotonic() >= deadline:
            raise DeadlineExceededError(
                "request deadline expired mid-simulation", stage=stage
            )
        chunk = list(islice(accesses, DEADLINE_CHECK_EVERY))
        if not chunk:
            return
        yield from chunk


#: Accepted ``--engine`` values; ``auto`` is planned per run.  ``checked``
#: is the sanitizing wrapper (reference semantics + per-access
#: invariant assertions; see :mod:`repro.engine.checked`) and is never
#: chosen by ``auto`` — it must be requested explicitly.
ENGINE_NAMES = ("auto", "reference", "vectorized", "checked")


class Engine(ABC):
    """One strategy for executing a cache simulation run."""

    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        geometry: CacheGeometry,
        trace,
        *,
        replacement: Optional[ReplacementPolicy] = None,
        fetch: Optional[FetchPolicy] = None,
        write_policy: WritePolicy = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        word_size: int = 2,
        warmup: Union[int, str] = "fill",
        flush_at_end: bool = False,
        deadline: Optional[float] = None,
        miss_path: "Union[MissPathConfig, Dict[str, Any], None]" = None,
    ) -> CacheStats:
        """Simulate one geometry over one trace and return its stats.

        Args:
            geometry: Validated cache shape.
            trace: A :class:`~repro.trace.record.Trace`, a
                :class:`~repro.engine.traceview.TraceView`, or (for the
                reference engine only) any iterable of accesses.
            replacement / fetch / write_policy / word_size: Policy
                configuration, defaulted exactly as
                :class:`~repro.core.cache.SubBlockCache` defaults them.
            warmup: ``0``, a positive access count, or ``"fill"`` — the
                same warm-start modes as
                :func:`~repro.core.sim.simulate`.
            flush_at_end: Evict everything after the run so
                eviction-based statistics cover resident blocks.
            deadline: Optional :func:`time.monotonic` instant after
                which the run must cooperatively cancel by raising
                :class:`~repro.errors.DeadlineExceededError`.  Checked
                periodically, never per access, so it does not perturb
                the equivalence contract: a run that finishes produces
                identical stats with or without a deadline.
            miss_path: Optional miss-path chain configuration
                (:class:`~repro.core.misspath.MissPathConfig` or its
                mapping form).  Every engine drives an enabled chain
                from the L1 miss and eviction stream; its counters land
                in ``stats.misspath`` and the L1 counters do not move.
                An empty configuration is equivalent to None.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


def make_engine(name: str) -> Engine:
    """Build an engine by name (``reference``, ``vectorized``, ``checked``).

    ``auto`` is not a constructible engine — it is a per-run choice;
    :func:`repro.engine.route.plan` makes it.

    Raises:
        ConfigurationError: For an unknown name (including ``auto``).
    """
    # Imported here: the implementations import this module for Engine.
    from repro.engine.checked import CheckedEngine
    from repro.engine.reference import ReferenceEngine
    from repro.engine.vectorized import VectorizedEngine

    key = name.lower()
    if key == "reference":
        return ReferenceEngine()
    if key == "vectorized":
        return VectorizedEngine()
    if key == "checked":
        return CheckedEngine()
    raise ConfigurationError(
        f"unknown engine {name!r}; choose from "
        "['reference', 'vectorized', 'checked']"
    )
