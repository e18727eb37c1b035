"""The route planner: which path answers one cell, and why.

The sweep runner, the grid planner, the service (in-process and
supervised), the config lint and the sweep preflight all read the
:class:`Route` that :func:`plan` returns; none re-derives the choice.
``docs/engines.md`` tabulates the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from repro.engine.base import ENGINE_NAMES
from repro.engine.traceview import TraceView
from repro.errors import ConfigurationError
from repro.trace.record import Trace

if TYPE_CHECKING:
    from repro.engine.batch import CellSpec

__all__ = [
    "GRID_ENGINE_NAMES",
    "PATHS",
    "SAMPLE_FALLBACKS",
    "Route",
    "plan",
    "trace_coverable",
]

#: Every path a route can name, cheapest first.  ``stackdist`` means
#: eligible for a one-pass group; whether a pass forms is the grid
#: planner's grouping decision.
PATHS = ("sampled", "stackdist", "vectorized", "reference", "checked")

#: Grid strategies: ``auto`` runs a pass for every coverable group of
#: >= 2 cells, ``stackdist`` for every coverable group, ``percell`` none.
GRID_ENGINE_NAMES = ("auto", "stackdist", "percell")

#: The rule ids that send a sampled cell back to exact simulation.
SAMPLE_FALLBACKS = (
    "sample-fallback-injector",
    "sample-fallback-checked",
    "sample-fallback-chain",
)

_WRITE = 1  # AccessType.WRITE — kinds array code for stores


@dataclass(frozen=True)
class Route:
    """The path (one of :data:`PATHS`) that answers one cell, plus the
    rule ids and coverage texts that ruled out each cheaper path, in
    the order :func:`plan` applied them."""

    path: str
    reasons: Tuple[str, ...] = ()

    @property
    def reason(self) -> str:
        """The reasons as one ``"; "``-joined line."""
        return "; ".join(self.reasons)

    @property
    def sample_fallbacks(self) -> Tuple[str, ...]:
        """The ``sample-fallback-*`` rule ids among the reasons."""
        return tuple(r for r in self.reasons if r in SAMPLE_FALLBACKS)


def trace_coverable(trace: Any) -> bool:
    """Whether a prepared trace can feed a stack-distance pass: write
    misses do not allocate, which breaks Mattson inclusion."""
    kinds = getattr(trace, "kinds", None)
    if kinds is None:
        return False  # guarded/proxy traces never feed a pass
    return not bool(np.any(np.asarray(kinds) == _WRITE))


def _stackdist_blockers(
    spec: "CellSpec",
    engine: str,
    mode: str,
    chained: bool,
    cell_timeout: Optional[float],
    max_cell_accesses: Optional[int],
    injector_active: bool,
) -> List[str]:
    """Every condition that rules out a stack-distance pass."""
    if mode == "percell":
        return ["grid engine forced to percell"]
    blockers: List[str] = []
    if spec.replacement.lower() != "lru":
        blockers.append(
            f"replacement policy {spec.replacement!r} (inclusion needs LRU)"
        )
    if spec.fetch.lower().replace("_", "-") != "demand":
        blockers.append(f"fetch policy {spec.fetch!r} (only demand fetch)")
    if chained:
        blockers.append("enabled miss-path chain (per-miss structure state)")
    if engine == "checked":
        blockers.append("checked engine (sanitizer must observe every access)")
    elif engine != "auto" and mode == "auto":
        # An explicitly requested per-cell engine wins over the default
        # grid mode; grid_engine="stackdist" is the more explicit ask
        # and overrides it (the results are identical either way).
        blockers.append(
            f"explicit per-cell engine {spec.engine!r} (auto grid defers to it)"
        )
    if cell_timeout is not None:
        blockers.append("cell_timeout (per-cell deadline needs per-cell runs)")
    if max_cell_accesses is not None:
        blockers.append("max_cell_accesses (per-cell budget needs per-cell runs)")
    if injector_active:
        blockers.append("fault injector (per-access proxies are per cell)")
    return blockers


def plan(
    spec: "CellSpec",
    trace: Any = None,
    *,
    grid_engine: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    max_cell_accesses: Optional[int] = None,
    injector_active: bool = False,
) -> Route:
    """Choose the path that answers ``spec`` (its geometry is unused).

    Args:
        trace: The prepared trace, when known: a per-access proxy forces
            the reference loop, writes rule out a pass, and an empty
            trace runs exact even when sampled.  ``None`` plans for any
            plain trace.
        grid_engine: The grid strategy (:data:`GRID_ENGINE_NAMES`);
            ``None`` plans a lone cell, for which no pass can form.
        cell_timeout / max_cell_accesses / injector_active: Per-cell
            guards (a service deadline counts as a ``cell_timeout``).

    Raises:
        ConfigurationError: For an unknown engine or grid strategy.
    """
    engine = spec.engine.lower()
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {spec.engine!r}; choose from {list(ENGINE_NAMES)}"
        )
    mode = grid_engine.lower() if grid_engine is not None else None
    if mode is not None and mode not in GRID_ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown grid engine {grid_engine!r}; choose from "
            f"{list(GRID_ENGINE_NAMES)}"
        )
    chained = spec.miss_path is not None and spec.miss_path.enabled
    reasons: List[str] = []

    if spec.sample is not None:
        if injector_active:
            reasons.append("sample-fallback-injector")
        if engine == "checked":
            reasons.append("sample-fallback-checked")
        if chained:
            reasons.append("sample-fallback-chain")
        if not reasons:
            if trace is None or len(trace):
                return Route("sampled")
            # An empty trace has nothing to sample: exact, per cell.
            return _per_cell(engine, trace, chained, ["trace-empty"])

    if mode is not None:
        blockers = _stackdist_blockers(
            spec, engine, mode, chained, cell_timeout, max_cell_accesses,
            injector_active,
        )
        if not blockers and trace is not None and not trace_coverable(trace):
            blockers.append("trace carries writes (write misses break inclusion)")
        if not blockers:
            return Route("stackdist", tuple(reasons))
        reasons.extend(blockers)
    return _per_cell(engine, trace, chained, reasons)


def _per_cell(
    engine: str, trace: Any, chained: bool, reasons: List[str]
) -> Route:
    """The per-cell engine: checked, reference or vectorized."""
    if engine in ("checked", "reference"):
        return Route(engine, tuple(reasons))
    if trace is not None and not isinstance(trace, (Trace, TraceView)):
        # Only per-access iteration can honor guard/injector proxies.
        reasons.append("per-access trace proxy")
        return Route("reference", tuple(reasons))
    if chained:
        # The chain's structures mutate per miss, which only the
        # per-access loop can drive.
        chain = "enabled miss-path chain (per-miss structure state)"
        if chain not in reasons:
            reasons.append(chain)
        return Route("reference", tuple(reasons))
    return Route("vectorized", tuple(reasons))
