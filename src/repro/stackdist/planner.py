"""Partition a sweep grid into one-pass groups and fallback cells.

The stack-distance engine (:mod:`repro.stackdist.engine`) answers every
geometry sharing a ``(block_size, num_sets)`` pair from a single trace
pass, but only where :func:`repro.engine.route.plan` routes the sweep's
cells to ``stackdist`` (LRU, no chain, engine ``auto``, no fault
injector, any fetch policy — ``docs/engines.md`` has the table).
:func:`plan_grid` asks the route planner once per sweep, then groups
the geometry list into :class:`PassGroup` batches, or records *why*
the whole grid runs per cell — the runner consumes the split, ``repro
lint --sweep-coverage`` surfaces the reasons.

Coverage is decided per *sweep* (the knobs are sweep-global) plus per
*trace*: the runner re-plans each prepared trace, because a trace
containing writes breaks inclusion (write misses do not allocate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.engine.route import SAMPLE_FALLBACKS, plan, trace_coverable
from repro.errors import ConfigurationError
from repro.stackdist.engine import MemberSpec

__all__ = [
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

    The split is all or nothing: either every geometry belongs to a
    pass group (a shape alone in its ``(block_size, num_sets)`` gets a
    one-member pass) or every geometry runs per cell.

    Attributes:
        groups: Pass groups the stack-distance engine will run, sorted
            by ``(block_size, num_sets)``: the passes of one block size
            run back to back and share its block-order state.
        fallback_indices: Geometry indices executed per cell, in input
            order.
        blockers: The reasons the grid runs per cell (empty when it
            does not).
    """

    groups: Tuple[PassGroup, ...]
    fallback_indices: Tuple[int, ...]
    blockers: Tuple[str, ...] = ()

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
        grid_engine: Only ``"auto"``, the one grid rule; kept so
            existing callers that name it keep working.
        spec: The sweep's cell template (its geometry is ignored); when
            omitted, built from ``axes`` (``replacement``, ``fetch``,
            ``warmup``, ``miss_path``, ``engine``, ``sample`` — the
            keywords of :meth:`~repro.engine.batch.CellSpec.of`).
        cell_timeout / max_cell_accesses: Kept for existing callers:
            a timeout does not change the plan (every pass honors a
            deadline), and the access budget is gone.
        injector_active: Whether a fault injector wraps the traces.

    Returns:
        A :class:`GridPlan`: the groups the runner runs, singletons
        included, sorted by ``(block_size, num_sets)`` and each member
        carrying its geometry's clamped ways.  When the route is not
        ``stackdist`` every index lands in ``fallback_indices``.

    Raises:
        ConfigurationError: For a ``grid_engine`` other than ``"auto"``
            or a ``max_cell_accesses`` other than None.
    """
    if grid_engine != "auto":
        raise ConfigurationError(
            f"unknown grid engine {grid_engine!r}: a coverable grid always "
            "runs on stack-distance passes; pass engine= to run per cell"
        )
    if max_cell_accesses is not None:
        raise ConfigurationError(
            "max_cell_accesses was removed: bound a cell with "
            "cell_timeout, the deadline every engine and pass checks"
        )
    if spec is None:
        spec = CellSpec.of(None, **axes)
    route = plan(spec, grid=True, injector_active=injector_active)
    if route.path != "stackdist":
        blockers = (
            ("sampled simulation (cells are already cheap)",)
            if route.path == "sampled"
            else tuple(r for r in route.reasons if r not in SAMPLE_FALLBACKS)
        )
        return GridPlan(
            groups=(),
            fallback_indices=tuple(range(len(geometries))),
            blockers=blockers,
        )

    grouped: Dict[Tuple[int, int], List[int]] = {}
    for i, geometry in enumerate(geometries):
        grouped.setdefault(
            (geometry.block_size, geometry.num_sets), []
        ).append(i)

    groups = tuple(
        PassGroup(
            block_size=block_size,
            num_sets=num_sets,
            geometry_indices=tuple(indices),
            members=tuple(
                MemberSpec(
                    ways=geometries[i].ways,
                    sub_block_size=geometries[i].sub_block_size,
                    warmup=spec.warmup,
                    fetch=spec.fetch,
                )
                for i in indices
            ),
        )
        for (block_size, num_sets), indices in sorted(grouped.items())
    )
    return GridPlan(groups=groups, fallback_indices=())
