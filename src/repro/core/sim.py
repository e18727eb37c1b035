"""Trace-driven simulation drivers.

:func:`simulate` runs one cache over one trace and returns its stats,
supporting the paper's *warm-start* measurement (Section 4.2.2:
"warm-start ratios do not count the misses taken to initially fill the
cache with relevant data").  Two warm-up modes are offered:

* ``warmup=N`` — discard statistics from the first ``N`` accesses;
* ``warmup="fill"`` — discard statistics until every block frame has
  been allocated once, the literal reading of the paper's definition.

:func:`run_config` is the one-call convenience used throughout the
analysis layer: build a cache for a geometry, simulate, and return the
stats.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.core.replacement import ReplacementPolicy
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.errors import ConfigurationError
from repro.trace.record import Trace

__all__ = ["simulate", "run_config"]


def simulate(
    cache: SubBlockCache,
    trace: Trace,
    warmup: Union[int, str] = 0,
    flush_at_end: bool = False,
) -> CacheStats:
    """Drive ``cache`` with every access of ``trace``.

    Args:
        cache: The cache to exercise; its ``stats`` are reset at the
            warm-up boundary.
        trace: Input reference stream.
        warmup: ``0`` for cold-start, a positive count of accesses to
            skip, or ``"fill"`` to start measuring once the cache has
            filled (the paper's warm-start).  If the warm-up point is
            never reached the stats are never reset, so they cover the
            whole run.
        flush_at_end: Evict everything after the run so eviction-based
            statistics (sub-block utilization, write-backs) cover
            still-resident blocks.

    Returns:
        The cache's stats object (also available as ``cache.stats``).
    """
    access = cache.access
    if warmup == "fill":
        pending_fill = not cache.is_full
        for record in trace:
            access(record.addr, record.kind, record.size)
            if pending_fill and cache.is_full:
                cache.stats.reset()
                pending_fill = False
    elif isinstance(warmup, int):
        if warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        countdown = warmup
        for record in trace:
            access(record.addr, record.kind, record.size)
            if countdown > 0:
                countdown -= 1
                if countdown == 0:
                    cache.stats.reset()
    else:
        raise ConfigurationError(
            f"warmup must be an int or 'fill', got {warmup!r}"
        )
    if flush_at_end:
        cache.flush()
    return cache.stats


def run_config(
    geometry: CacheGeometry,
    trace: Trace,
    replacement: Optional[ReplacementPolicy] = None,
    fetch: Optional[FetchPolicy] = None,
    write_policy: WritePolicy = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
    word_size: int = 2,
    warmup: Union[int, str] = "fill",
    miss_path: "Union[MissPathConfig, Dict[str, Any], None]" = None,
) -> CacheStats:
    """Simulate one geometry over one trace and return the stats.

    Defaults reproduce the paper's methodology: LRU replacement, demand
    fetch, warm-start measurement.  ``miss_path`` optionally configures
    the miss-path chain (:mod:`repro.core.misspath`); its counters land
    in the returned stats' ``misspath`` attribute.
    """
    cache = SubBlockCache(
        geometry,
        replacement=replacement,
        fetch=fetch,
        write_policy=write_policy,
        word_size=word_size,
        miss_path=miss_path,
    )
    return simulate(cache, trace, warmup=warmup)
