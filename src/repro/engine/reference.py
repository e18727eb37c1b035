"""The reference engine: the object-model loop behind the interface.

This is the paper-faithful simulator — one :class:`Access` at a time
through :class:`~repro.core.cache.SubBlockCache` — repackaged as an
:class:`~repro.engine.base.Engine`.  It defines the semantics the
vectorized engine must match exactly — miss-path chains included — and
it can drive per-access trace proxies (the runner's fault injection),
so every fault-injected cell executes here unless ``checked`` is
requested.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.core.replacement import ReplacementPolicy
from repro.core.sim import simulate
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.engine.base import Engine, deadline_guard
from repro.engine.traceview import TraceView

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """Per-access object-model execution (the equivalence baseline)."""

    name = "reference"

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
        if isinstance(trace, TraceView):
            trace = trace.trace
        cache = SubBlockCache(
            geometry,
            replacement=replacement,
            fetch=fetch,
            write_policy=write_policy,
            word_size=word_size,
            miss_path=miss_path,
        )
        if deadline is not None:
            trace = deadline_guard(trace, deadline)
        return simulate(cache, trace, warmup=warmup, flush_at_end=flush_at_end)
