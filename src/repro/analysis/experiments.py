"""Turn-key reproductions of the paper's experiments.

Each function regenerates the data behind one table or figure:

* :func:`table6_experiment` — the 360/85 sector cache versus modern
  set-associative mappings (Section 4.1).
* :func:`table7_experiment` — the big miss/traffic/nibble-traffic table
  for one architecture (Section 4.2), simulating exactly the
  (net, block, sub) combinations the paper publishes.
* :func:`table8_experiment` — load-forward on the Z8000 compiler traces
  (Section 4.4).
* :func:`figure_experiment` — the full geometry grid behind Figures
  1–8 for one architecture and a list of net sizes.

Trace length defaults to
:func:`~repro.workloads.suites.default_trace_length`, which honours
the ``REPRO_TRACE_LEN`` environment variable (the paper used 1 M
references; the default here is 100 k so a full reproduction finishes
in minutes on a laptop — see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.paper_data import TABLE7, TABLE8
from repro.analysis.sweep import SweepPoint, geometry_grid, sweep
from repro.core.config import CacheGeometry
from repro.core.fetch import LoadForwardFetch
from repro.core.sector import model85_cache, set_associative_equivalent
from repro.core.sim import simulate
from repro.errors import ConfigurationError
from repro.runner.runner import RunnerConfig
from repro.trace.filters import reads_only
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import (
    Z8000_FIGURE_TRACES,
    Z8000_LOADFORWARD_TRACES,
    default_trace_length,
    suite_traces,
)

__all__ = [
    "Table6Row",
    "table6_experiment",
    "table7_experiment",
    "table8_experiment",
    "figure_experiment",
    "FIGURE_NETS",
]

#: Net sizes of the two figure families (Figures 1/3/7 and 2/4/5/6/8).
FIGURE_NETS = {"part1": (32, 128, 512), "part2": (64, 256, 1024)}


def _experiment_traces(arch: str, length: Optional[int]):
    """Suite traces for one architecture's experiments."""
    length = length if length is not None else default_trace_length()
    names = Z8000_FIGURE_TRACES if arch == "z8000" else None
    return suite_traces(arch, length=length, names=names)


@dataclass(frozen=True)
class Table6Row:
    """One organization of the Table 6 comparison."""

    organization: str
    miss_ratio: float
    relative_to_sector: float
    sub_block_utilization: float


def table6_experiment(length: Optional[int] = None) -> List[Table6Row]:
    """Reproduce Table 6: the 360/85 versus set-associative mapping.

    Returns rows for the sector cache and 4/8/16-way equivalents, with
    miss ratios averaged (unweighted) over the mainframe suite, plus
    the sub-block utilization statistic behind the paper's "72 percent
    of the sub-blocks ... are never referenced" finding.
    """
    length = length if length is not None else default_trace_length()
    traces = [reads_only(t) for t in suite_traces("mainframe", length=length)]
    organizations = [
        ("360/85", model85_cache),
        ("4-way", lambda: set_associative_equivalent(4)),
        ("8-way", lambda: set_associative_equivalent(8)),
        ("16-way", lambda: set_associative_equivalent(16)),
    ]
    raw = []
    for label, factory in organizations:
        miss_sum = util_sum = 0.0
        for trace in traces:
            stats = simulate(
                factory(), trace, warmup="fill", flush_at_end=True
            )
            miss_sum += stats.miss_ratio
            util_sum += stats.mean_eviction_utilization
        raw.append((label, miss_sum / len(traces), util_sum / len(traces)))
    sector_miss = raw[0][1]
    return [
        Table6Row(label, miss, miss / sector_miss if sector_miss else 0.0, util)
        for label, miss, util in raw
    ]


def table7_experiment(
    arch: str,
    length: Optional[int] = None,
    runner: Optional[RunnerConfig] = None,
    sample=None,
) -> List[SweepPoint]:
    """Reproduce one architecture's column of Table 7.

    Simulates exactly the (net, block, sub) combinations the paper
    publishes for that architecture, over its suite, with the paper's
    methodology (4-way, LRU, demand, warm start, reads only).

    Args:
        arch: One of the Table 7 architectures.
        length: Trace length; :func:`~repro.workloads.suites.default_trace_length` when None.
        runner: Resilience knobs forwarded to the sweep (checkpoints,
            retries, timeouts, lenient degradation).
        sample: Optional ``--sample`` config — the table's ratios
            become sampled estimates (docs/sampling.md).
    """
    if arch not in TABLE7:
        raise ConfigurationError(
            f"unknown Table 7 architecture {arch!r}; choose from {sorted(TABLE7)}"
        )
    word = get_architecture(arch).word_size
    geometries = [
        CacheGeometry(net, block, sub)
        for (net, block, sub) in sorted(TABLE7[arch])
    ]
    return sweep(
        _experiment_traces(arch, length), geometries, word_size=word,
        runner_config=runner, sample=sample,
    )


@dataclass(frozen=True)
class Table8Row:
    """One configuration of the load-forward comparison."""

    geometry: CacheGeometry
    load_forward: bool
    miss_ratio: float
    traffic_ratio: float
    scaled_traffic_ratio: float
    redundant_fraction: float

    @property
    def label(self) -> str:
        suffix = ",LF" if self.load_forward else ""
        return f"{self.geometry.label}{suffix}"


def table8_experiment(
    length: Optional[int] = None,
    runner: Optional[RunnerConfig] = None,
    sample=None,
) -> List[Table8Row]:
    """Reproduce Table 8: load-forward on Z8000 traces CPP, C1, C2.

    With a checkpointed ``runner``, each table row gets its own
    checkpoint file (``.row<N>`` suffix) since the rows are separate
    sweeps with separate fingerprints.
    """
    length = length if length is not None else default_trace_length()
    traces = suite_traces(
        "z8000", length=length, names=Z8000_LOADFORWARD_TRACES
    )
    rows = []
    for index, (net, block, sub, load_forward) in enumerate(sorted(TABLE8)):
        geometry = CacheGeometry(net, block, sub)
        fetch = LoadForwardFetch() if load_forward else None
        row_runner = runner.for_tag(f"row{index}") if runner is not None else None
        points = sweep(
            [*traces], [geometry], word_size=2, fetch=fetch,
            runner_config=row_runner, sample=sample,
        )
        point = points[0]
        engine_name = runner.engine if runner is not None else "auto"
        redundant = _redundant_fraction(
            traces, geometry, load_forward, engine_name
        )
        rows.append(
            Table8Row(
                geometry=geometry,
                load_forward=load_forward,
                miss_ratio=point.miss_ratio,
                traffic_ratio=point.traffic_ratio,
                scaled_traffic_ratio=point.scaled_traffic_ratio,
                redundant_fraction=redundant,
            )
        )
    return rows


def _redundant_fraction(
    traces, geometry, load_forward: bool, engine_name: str = "auto"
) -> float:
    """Fraction of fetched bytes that were redundant re-loads.

    Counted on the path the row's sweep took: a one-member
    stack-distance pass per trace, or per cell under an explicit
    ``engine_name``.
    """
    if not load_forward:
        return 0.0
    from repro.engine import CellSpec, prepare_trace, run_cell
    from repro.stackdist import plan_grid, run_group_pass, trace_coverable

    spec = CellSpec.of(geometry, engine=engine_name, fetch="load-forward")
    groups = plan_grid([geometry], spec=spec).groups
    total_fetched = total_redundant = 0
    for trace in traces:
        # The interned view shares one read-filtered copy (and the
        # decode arrays) with the sweep that just ran over this trace.
        prepared = prepare_trace(trace)
        if groups and trace_coverable(prepared):
            (group,) = groups
            (stats,) = run_group_pass(
                prepared, group.block_size, group.num_sets, group.members,
                word_size=spec.word_size,
            )
        else:
            stats = run_cell(prepared, spec)
        total_fetched += stats.bytes_fetched
        total_redundant += stats.redundant_bytes_fetched
    return total_redundant / total_fetched if total_fetched else 0.0


def figure_experiment(
    arch: str,
    net_sizes: Sequence[int],
    length: Optional[int] = None,
    runner: Optional[RunnerConfig] = None,
    sample=None,
) -> Dict[int, List[SweepPoint]]:
    """Sweep the full geometry grid behind Figures 1–8.

    Returns ``{net size: [SweepPoint, ...]}`` over the architecture's
    suite, for every (block, sub) pair of the paper's parameter ranges
    at each net size.  With a checkpointed ``runner``, each net size
    gets its own checkpoint file (``.net<N>`` suffix).
    """
    word = get_architecture(arch).word_size
    traces = _experiment_traces(arch, length)
    results: Dict[int, List[SweepPoint]] = {}
    for net in net_sizes:
        geometries = geometry_grid([net], min_sub=word)
        net_runner = runner.for_tag(f"net{net}") if runner is not None else None
        results[net] = sweep(
            traces, geometries, word_size=word, runner_config=net_runner,
            sample=sample,
        )
    return results
