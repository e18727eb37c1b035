"""The route planner: which path answers one cell, and why.

The sweep runner, the grid planner, the service (in-process and
supervised), the config lint and the sweep preflight all read the
:class:`Route` that :func:`plan` returns; none re-derives the choice.
``docs/engines.md`` tabulates the rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Tuple

import numpy as np

from repro.engine.base import ENGINE_NAMES
from repro.engine.traceview import TraceView
from repro.errors import ConfigurationError
from repro.trace.record import Trace

if TYPE_CHECKING:
    from repro.engine.batch import CellSpec

__all__ = [
    "PATHS",
    "SAMPLE_FALLBACKS",
    "Route",
    "plan",
    "trace_coverable",
]

#: Every path a route can name, cheapest first.  ``stackdist`` means
#: answered by a stack-distance pass, which only a sweep grid or a
#: service batch can form.
PATHS = ("sampled", "stackdist", "vectorized", "reference", "checked")

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
        return False  # proxy traces never feed a pass
    return not bool(np.any(np.asarray(kinds) == _WRITE))


def _stackdist_blockers(
    spec: "CellSpec",
    chained: bool,
    injector_active: bool,
) -> List[str]:
    """Every condition that rules out a stack-distance pass.

    Reads the spec's stored axis names, the ones its fingerprint
    records (:meth:`CellSpec.of` spells them canonically).
    """
    blockers: List[str] = []
    if spec.replacement != "lru":
        blockers.append(
            f"replacement policy {spec.replacement!r} (inclusion needs LRU)"
        )
    if chained:
        blockers.append("enabled miss-path chain (per-miss structure state)")
    if spec.engine == "checked":
        blockers.append("checked engine (sanitizer must observe every access)")
    elif spec.engine != "auto":
        blockers.append(f"explicit per-cell engine {spec.engine!r}")
    if injector_active:
        blockers.append("fault injector (per-access proxies are per cell)")
    return blockers


def plan(
    spec: "CellSpec",
    trace: Any = None,
    *,
    grid: bool = False,
    injector_active: bool = False,
) -> Route:
    """Choose the path that answers ``spec`` (its geometry is unused).

    Args:
        trace: The prepared trace, when known: a per-access fault proxy
            forces the reference loop, writes rule out a pass, and an empty
            trace runs exact even when sampled.  ``None`` plans for any
            plain trace.
        grid: Whether the cell belongs to a sweep grid or a service
            batch, where a pass can form; a lone cell never gets one.
        injector_active: Whether a fault injector wraps the traces.
            A deadline is no input: every path honors one.

    Raises:
        ConfigurationError: For an engine name outside
            :data:`~repro.engine.base.ENGINE_NAMES` (spelled as
            :meth:`CellSpec.of` stores it).
    """
    engine = spec.engine
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {list(ENGINE_NAMES)}"
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
            return _per_cell(engine, trace, ["trace-empty"])

    if grid:
        blockers = _stackdist_blockers(spec, chained, injector_active)
        if not blockers and trace is not None and not trace_coverable(trace):
            blockers.append("trace carries writes (write misses break inclusion)")
        if not blockers:
            return Route("stackdist", tuple(reasons))
        reasons.extend(blockers)
    return _per_cell(engine, trace, reasons)


def _per_cell(engine: str, trace: Any, reasons: List[str]) -> Route:
    """The per-cell engine: checked, reference or vectorized."""
    if engine in ("checked", "reference"):
        return Route(engine, tuple(reasons))
    if trace is not None and not isinstance(trace, (Trace, TraceView)):
        # Only per-access iteration can honor fault-injector proxies.
        reasons.append("per-access trace proxy")
        return Route("reference", tuple(reasons))
    return Route("vectorized", tuple(reasons))
