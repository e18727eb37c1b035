"""One-pass multi-geometry sweep engine (Mattson stack distances).

The paper picks LRU partly because "LRU permits more efficient
simulation": Mattson's inclusion property means one pass over a trace
yields the hit count of *every* associativity at once.  This package
grows that observation into a grid-level engine:

* :mod:`repro.stackdist.engine` — one pass per ``(block_size,
  num_sets)`` group computes, as whole-trace array code, per-set LRU
  stack distances plus each needed sub-block's previous touch, from
  which the full 17-counter
  :class:`~repro.core.stats.CacheStats` of every member geometry
  (associativity × sub-block size × warmup) is derived in closed form.
* :mod:`repro.stackdist.planner` — partitions a sweep grid into
  stackdist-coverable pass groups versus per-cell fallback cells and
  names the axis (policy, fetch, chain, …) that forced each fallback.

The runner (:func:`repro.runner.run_sweep`) and the simulation service
consume both; ``docs/stackdist.md`` has the
algorithm and the coverage matrix.
"""

from repro.stackdist.engine import (
    MemberSpec,
    distance_histogram,
    run_group_pass,
)
from repro.stackdist.planner import (
    GridPlan,
    PassGroup,
    plan_grid,
    trace_coverable,
)

__all__ = [
    "GridPlan",
    "MemberSpec",
    "PassGroup",
    "distance_histogram",
    "plan_grid",
    "run_group_pass",
    "trace_coverable",
]
