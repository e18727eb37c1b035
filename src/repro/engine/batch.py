"""Batch entry point: run many cells over one trace, decoding it once.

The service's query mix — and the paper's own sweeps — evaluate many
near-identical configurations against a shared trace corpus, so the
profitable unit of work is not one cell but one *trace group*: prepare
the trace a single time (read filtering, decode products), then run
every cell of the group against the shared view.

This module is that entry point.  It also carries the thread-safety
contract the service's worker pool relies on: :class:`TraceView`'s
decode caches are plain LRU dicts with no locking, so concurrent cells
may only *read* them.  :func:`predecode` populates every decode product
a batch will need from a single thread *before* the cells fan out;
after it returns, the per-cell :func:`run_cell` calls are safe to run
concurrently because they only hit warm cache entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple, Union

from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy, make_fetch
from repro.core.misspath import MissPathConfig
from repro.core.replacement import make_replacement
from repro.core.stats import CacheStats
from repro.engine.base import make_engine
from repro.engine.route import Route, plan
from repro.engine.traceview import TraceView
from repro.trace.filters import reads_only
from repro.trace.record import Trace

if TYPE_CHECKING:
    from repro.staticcheck.phases import SamplingConfig

__all__ = [
    "CellSpec",
    "execute_cell",
    "prepare_trace",
    "predecode",
    "run_cell",
    "run_route",
]


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell: its shape plus every execution axis, once.

    The fields mirror :meth:`repro.engine.base.Engine.run`; ``fetch``
    and ``replacement`` are names so a spec stays hashable and
    process-safe, with fresh policy objects built per run (``random``
    replacement must not share RNG state across cells).  ``miss_path``
    is the frozen chain configuration (``None`` when no structure is
    enabled) and ``sample`` the optional
    :class:`~repro.staticcheck.phases.SamplingConfig`.  A sweep-level
    template, whose cells differ only in shape, has ``geometry=None``.

    :func:`repro.engine.route.plan` reads a spec to choose the cell's
    path; :meth:`fingerprint_params` is the identity a checkpoint or a
    service cache entry is addressed by.
    """

    geometry: Optional[CacheGeometry]
    engine: str = "auto"
    fetch: str = "demand"
    replacement: str = "lru"
    warmup: Union[int, str] = "fill"
    word_size: int = 2
    miss_path: Optional[MissPathConfig] = None
    sample: Optional["SamplingConfig"] = None

    @classmethod
    def of(
        cls,
        geometry: Optional[CacheGeometry] = None,
        *,
        engine: str = "auto",
        fetch: Union[str, FetchPolicy, None] = None,
        replacement: str = "lru",
        warmup: Union[int, str] = "fill",
        word_size: int = 2,
        miss_path: "Union[MissPathConfig, Dict[str, Any], None]" = None,
        sample: Any = None,
    ) -> "CellSpec":
        """Build a spec from loose user values.

        ``fetch`` may be a policy object or ``None`` (demand); the chain
        may be a mapping, and an empty one becomes ``None``; ``sample``
        is anything ``SamplingConfig.coerce`` accepts.

        Raises:
            ConfigurationError: For a malformed chain or sample.
        """
        from repro.staticcheck.phases import SamplingConfig

        chain = MissPathConfig.coerce(miss_path)
        return cls(
            geometry,
            engine=engine.lower(),
            fetch=(
                fetch if isinstance(fetch, str)
                else fetch.name if fetch is not None
                else "demand"
            ),
            replacement=replacement,
            warmup=warmup,
            word_size=word_size,
            miss_path=chain if chain is not None and chain.enabled else None,
            sample=SamplingConfig.coerce(sample),
        )

    def fingerprint_params(
        self, bus_model: Any, filter_writes: bool
    ) -> Dict[str, Any]:
        """The :func:`~repro.runner.checkpoint.sweep_fingerprint` params.

        Shared by the sweep runner and the service cache, so a served
        result and a checkpointed cell of the same configuration carry
        the same address.
        """
        return dict(
            word_size=self.word_size,
            fetch=self.fetch,
            replacement=self.replacement,
            warmup=self.warmup,
            bus_model=bus_model,
            filter_writes=filter_writes,
            engine=self.engine,
            miss_path=(
                self.miss_path.key() if self.miss_path is not None else "none"
            ),
            sample=self.sample.key() if self.sample is not None else "none",
        )


def prepare_trace(trace: Trace, filter_writes: bool = True) -> Trace:
    """The trace a cell actually simulates (paper-style read filtering).

    Filtering goes through the trace's interned :class:`TraceView`, so
    every sweep, batch and service cell over one trace object shares a
    single materialized read-only copy.
    """
    if not filter_writes:
        return trace
    if isinstance(trace, Trace):
        return TraceView.of(trace).reads_only()
    return reads_only(trace)


def predecode(prepared: Trace, specs: Iterable[CellSpec]) -> None:
    """Populate the shared decode caches for every shape in ``specs``.

    Call from one thread before dispatching the cells of a batch to a
    worker pool: the view's LRU caches are not synchronized, and
    pre-warming them here turns the workers' accesses into pure reads.
    Non-batchable traces (proxies, iterables) are skipped — they run on
    the reference engine, which performs no decode.
    """
    if not isinstance(prepared, Trace):
        return
    view = TraceView.of(prepared)
    seen = set()
    for spec in specs:
        shape = (
            spec.geometry.block_size,
            spec.geometry.sub_block_size,
            spec.geometry.num_sets,
            spec.word_size,
        )
        if shape in seen:
            continue
        seen.add(shape)
        view.sizes_for(spec.word_size)
        view.block_addresses(spec.geometry.block_size)
        view.set_and_tag(spec.geometry)
        view.demand(spec.geometry, spec.word_size)


def run_route(
    prepared: Any,
    spec: CellSpec,
    route: Route,
    deadline: Optional[float] = None,
    phase_plan: Any = None,
) -> Any:
    """Execute one cell on the per-cell path ``route`` names.

    ``sampled`` returns a :class:`~repro.engine.sampled.SampledStats`
    (the :class:`CacheStats` surface, serialized with ``exact: false``)
    from ``phase_plan``, or from a plan built here when ``None``; every
    other path returns the engine's :class:`CacheStats`.
    """
    assert spec.geometry is not None, "a template spec has no cell to run"
    if route.path == "sampled":
        from repro.engine.sampled import sample_trace

        return sample_trace(
            spec.geometry, prepared, spec.sample,
            replacement=spec.replacement, fetch=spec.fetch,
            word_size=spec.word_size, plan=phase_plan, deadline=deadline,
        )
    fetch: Optional[FetchPolicy] = (
        make_fetch(spec.fetch) if spec.fetch != "demand" else None
    )
    return make_engine(route.path).run(
        spec.geometry,
        prepared,
        replacement=make_replacement(spec.replacement),
        fetch=fetch,
        word_size=spec.word_size,
        warmup=spec.warmup,
        deadline=deadline,
        miss_path=spec.miss_path,
    )


def execute_cell(
    prepared: Any,
    spec: CellSpec,
    deadline: Optional[float] = None,
) -> Tuple[Any, str]:
    """Plan and run one lone cell; returns ``(stats, path)``.

    The one execution entry point of the service, in-process and in
    supervised workers alike, so both report the path that ran.

    Args:
        deadline: Optional :func:`time.monotonic` instant propagated
            into the engine for cooperative cancellation
            (:class:`~repro.errors.DeadlineExceededError`); the
            service's ``X-Repro-Deadline-Ms`` budget ends here.
    """
    route = plan(spec, prepared)
    return run_route(prepared, spec, route, deadline), route.path


def run_cell(
    prepared: Trace,
    spec: CellSpec,
    deadline: Optional[float] = None,
) -> CacheStats:
    """Execute one cell of a batch and return its statistics.

    The route and policies match the resilient runner's per-cell
    execution, so the result is interchangeable with a sweep cell for
    the same configuration.
    """
    stats, _ = execute_cell(prepared, spec, deadline)
    return stats
