"""Partition a sweep grid into one-pass groups and fallback cells.

The stack-distance engine (:mod:`repro.stackdist.engine`) answers every
geometry sharing a ``(block_size, num_sets)`` pair from a single trace
pass, but only where :func:`repro.engine.route.plan` routes the sweep's
cells to ``stackdist`` (LRU, demand fetch, no chain, no checked engine,
no per-cell guard or fault injector — ``docs/engines.md`` has the
table).  :func:`plan_grid` asks the route planner once per sweep, then
groups the geometry list into :class:`PassGroup` batches versus
fallback indices, recording *why* whichever side lost — the runner
consumes the split, ``repro lint`` and the preflight surface the
reasons.

Coverage is decided per *sweep* (the knobs are sweep-global) plus per
*trace*: the runner re-plans each prepared trace, because a trace
containing writes breaks inclusion (write misses do not allocate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.engine.route import (
    GRID_ENGINE_NAMES,
    SAMPLE_FALLBACKS,
    plan,
    trace_coverable,
)
from repro.stackdist.engine import MemberSpec

__all__ = [
    "GRID_ENGINE_NAMES",
    "PassGroup",
    "GridPlan",
    "plan_grid",
    "trace_coverable",
]


@dataclass(frozen=True)
class PassGroup:
    """Geometries answered by one stack-distance pass per trace.

    Attributes:
        block_size: Shared block size in bytes.
        num_sets: Shared set count.
        geometry_indices: Indices into the planned geometry sequence,
            in input order.
        members: One :class:`~repro.stackdist.engine.MemberSpec` per
            index, aligned with ``geometry_indices``.
    """

    block_size: int
    num_sets: int
    geometry_indices: Tuple[int, ...]
    members: Tuple[MemberSpec, ...]

    def __len__(self) -> int:
        return len(self.geometry_indices)


@dataclass(frozen=True)
class GridPlan:
    """How a sweep grid will be executed.

    Attributes:
        groups: Pass groups the stack-distance engine will run.
        fallback_indices: Geometry indices executed per cell, in input
            order.
        blockers: Sweep-level reasons that forced the *whole* grid to
            fall back (empty when any group was planned or the grid
            was simply too fragmented).
        fallback_reasons: Reason per fallback index (mirrors
            ``blockers`` for sweep-level exclusions; "pass group of 1"
            for singleton groups under ``auto``).
    """

    groups: Tuple[PassGroup, ...]
    fallback_indices: Tuple[int, ...]
    blockers: Tuple[str, ...] = ()
    fallback_reasons: Dict[int, str] = field(default_factory=dict)

    @property
    def covered(self) -> int:
        """Cells (geometries) answered by stack-distance passes."""
        return sum(len(group) for group in self.groups)


def plan_grid(
    geometries: Sequence[CacheGeometry],
    grid_engine: str = "auto",
    spec: Optional[CellSpec] = None,
    cell_timeout: Optional[float] = None,
    max_cell_accesses: Optional[int] = None,
    injector_active: bool = False,
    **axes: Any,
) -> GridPlan:
    """Split a geometry grid into pass groups and fallback cells.

    Args:
        geometries: The sweep's geometry axis, in input order.
        grid_engine: ``auto`` | ``stackdist`` | ``percell``.
        spec: The sweep's cell template (its geometry is ignored); when
            omitted, built from ``axes`` (``replacement``, ``fetch``,
            ``warmup``, ``miss_path``, ``engine``, ``sample`` — the
            keywords of :meth:`~repro.engine.batch.CellSpec.of`).
        cell_timeout / max_cell_accesses / injector_active: The
            per-cell guards the route planner weighs.

    Returns:
        A :class:`GridPlan`.  When the route is not ``stackdist`` every
        index lands in ``fallback_indices``; under ``auto`` only groups
        of >= 2 geometries become passes; under ``stackdist`` every
        group does, singletons included.

    Raises:
        ConfigurationError: For a ``grid_engine`` outside
            :data:`GRID_ENGINE_NAMES`.
    """
    if spec is None:
        spec = CellSpec.of(None, **axes)
    route = plan(
        spec, grid_engine=grid_engine, cell_timeout=cell_timeout,
        max_cell_accesses=max_cell_accesses, injector_active=injector_active,
    )
    all_indices = tuple(range(len(geometries)))
    if route.path != "stackdist":
        blockers = (
            ("sampled simulation (cells are already cheap)",)
            if route.path == "sampled"
            else tuple(r for r in route.reasons if r not in SAMPLE_FALLBACKS)
        )
        reason = "; ".join(blockers)
        return GridPlan(
            groups=(), fallback_indices=all_indices, blockers=blockers,
            fallback_reasons={i: reason for i in all_indices},
        )

    grouped: Dict[Tuple[int, int], List[int]] = {}
    for i, geometry in enumerate(geometries):
        grouped.setdefault(
            (geometry.block_size, geometry.num_sets), []
        ).append(i)

    groups: List[PassGroup] = []
    fallback: List[int] = []
    fallback_reasons: Dict[int, str] = {}
    for (block_size, num_sets), indices in grouped.items():
        if grid_engine.lower() == "auto" and len(indices) < 2:
            fallback.extend(indices)
            for i in indices:
                fallback_reasons[i] = "pass group of 1 (auto keeps per-cell)"
            continue
        groups.append(
            PassGroup(
                block_size=block_size,
                num_sets=num_sets,
                geometry_indices=tuple(indices),
                members=tuple(
                    MemberSpec(
                        ways=geometries[i].associativity,
                        sub_block_size=geometries[i].sub_block_size,
                        warmup=spec.warmup,
                    )
                    for i in indices
                ),
            )
        )
    return GridPlan(
        groups=tuple(groups),
        fallback_indices=tuple(sorted(fallback)),
        blockers=(),
        fallback_reasons=fallback_reasons,
    )
