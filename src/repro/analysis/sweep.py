"""Parameter sweeps over cache geometries and trace suites.

The paper's core experiment: simulate every (net size, block size,
sub-block size) combination over a suite of traces and report the
*unweighted average* of per-trace miss and traffic ratios ("multiple-
trace miss and traffic ratios are the unweighted average of the miss
and traffic ratios of individual runs", Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheGeometry
from repro.trace.record import Trace

if TYPE_CHECKING:
    from repro.runner.runner import RunnerConfig

__all__ = ["SweepPoint", "sweep", "geometry_grid"]


@dataclass(frozen=True)
class SweepPoint:
    """Averaged results for one geometry over a suite.

    Attributes:
        geometry: The simulated cache shape.
        miss_ratio / traffic_ratio: Unweighted suite averages.
        scaled_traffic_ratio: Suite-average scaled (nibble-mode)
            traffic ratio.
        per_trace: ``{trace name: (miss, traffic, scaled traffic)}``.
        fetch_name: Fetch policy used (``demand`` / ``load-forward``).
        skipped_traces: Traces excluded from the averages because their
            cells failed (lenient resilient runs only; empty for a
            clean sweep).  The averages cover ``per_trace`` only, so a
            non-empty value marks a *partial* point.
    """

    geometry: CacheGeometry
    miss_ratio: float
    traffic_ratio: float
    scaled_traffic_ratio: float
    per_trace: Dict[str, tuple] = field(default_factory=dict, compare=False)
    fetch_name: str = "demand"
    skipped_traces: Tuple[str, ...] = field(default=(), compare=False)

    @property
    def gross_size(self) -> float:
        return self.geometry.gross_size

    @property
    def label(self) -> str:
        return self.geometry.label


def sweep(
    traces: Sequence[Trace],
    geometries: Sequence[CacheGeometry],
    runner_config: Optional["RunnerConfig"] = None,
    **options: Any,
) -> List[SweepPoint]:
    """Simulate each geometry over each trace and average the ratios.

    :func:`repro.runner.run_sweep` without its report: ``options`` are
    its keyword arguments (``word_size``, ``fetch``, ``replacement``,
    ``warmup``, ``bus_model``, ``filter_writes``, ``miss_path``,
    ``sample``) and ``runner_config`` its ``config``.  With the default
    config the resilience layer is inert — strict, no retries, no
    checkpoint — and the results are those of a monolithic loop.

    Returns:
        One :class:`SweepPoint` per geometry, in input order.  Under a
        lenient ``runner_config``, points may be partial — see
        :attr:`SweepPoint.skipped_traces`.
    """
    # Imported here, not at module level: repro.runner imports this
    # module for SweepPoint.
    from repro.runner.runner import run_sweep

    points, _report = run_sweep(
        traces, geometries, config=runner_config, **options
    )
    return points


def geometry_grid(
    net_sizes: Sequence[int],
    block_sizes: Sequence[int] = (2, 4, 8, 16, 32, 64),
    sub_block_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    associativity: int = 4,
    min_sub: int = 2,
    max_block_fraction: int = 4,
) -> List[CacheGeometry]:
    """Build the paper's geometry grid (Table 1 parameter ranges).

    Includes every (net, block, sub) with ``sub <= block``,
    ``sub >= min_sub``, and ``block <= net / max_block_fraction`` (the
    paper never simulates blocks larger than a quarter of the cache).

    Args:
        net_sizes: Net cache sizes in bytes.
        block_sizes / sub_block_sizes: Candidate values (Table 1 lists
            blocks 2–64 and sub-blocks 2–32).
        associativity: Requested associativity (clamped per geometry).
        min_sub: Smallest sub-block; use the word size so 32-bit
            architectures skip 2-byte sub-blocks, as Table 7 does.
        max_block_fraction: Excludes blocks bigger than
            ``net / max_block_fraction``.
    """
    grid = []
    for net in net_sizes:
        for block in block_sizes:
            if block > net // max_block_fraction:
                continue
            for sub in sub_block_sizes:
                if sub > block or sub < min_sub:
                    continue
                grid.append(
                    CacheGeometry(net, block, sub, associativity=associativity)
                )
    return grid
