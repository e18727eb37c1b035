"""Batch entry point: run many cells over one trace, decoding it once.

The service's query mix — and the paper's own sweeps — evaluate many
near-identical configurations against a shared trace corpus, so the
profitable unit of work is not one cell but one *trace group*: prepare
the trace a single time (read filtering, decode products), then run
every cell of the group against the shared view.

This module is that entry point.  The service's one caller,
:func:`repro.service.simulator.run_trace_group`, runs a group's cells
one after another, but two groups of one trace may run at once on the
service's pool threads, and they share the trace's interned
:class:`TraceView`.  Its decode caches are plain LRU dicts with no
locking, so the groups may only *read* them concurrently:
:func:`predecode`, called under the service's prepare lock, fills
every decode product a group will need before its cells run, and the
cells then only hit warm cache entries.
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
        """Build a spec from loose user values: the one place a cell's
        axes are linted, coerced and spelled canonically.

        :func:`~repro.staticcheck.configlint.lint_cell` runs first, with
        ``geometry`` as the shape context, so a malformed axis is
        refused under its rule id before anything is coerced.
        ``engine`` and ``replacement`` are lower-cased and ``fetch``
        takes its policy's canonical name (``load_forward`` ->
        ``load-forward``), so spellings of one cell share a
        fingerprint.  ``fetch`` may be a policy object or ``None``
        (demand); the chain may be a mapping, and an empty one becomes
        ``None``; ``sample`` is anything ``SamplingConfig.coerce``
        accepts.

        Raises:
            StaticCheckError: Carrying the lint's findings, when any is
                an error.
        """
        # Imported here: the lint builds on this module.
        import repro.staticcheck.configlint as configlint
        import repro.staticcheck.diagnostics as diagnostics

        axes = dict(
            engine=engine, fetch=fetch, replacement=replacement, warmup=warmup,
            word_size=word_size, miss_path=miss_path, sample=sample,
        )
        shapes = (geometry,) if geometry is not None else ()
        diagnostics.raise_on_errors(configlint.lint_cell(axes, shapes), "invalid cell")
        if not isinstance(fetch, FetchPolicy):
            fetch = make_fetch(str(fetch) if fetch is not None else "demand")
        chain = MissPathConfig.coerce(miss_path)
        if sample is not None:
            from repro.staticcheck.phases import SamplingConfig

            sample = SamplingConfig.coerce(sample)
        return cls(
            geometry,
            engine=str(engine).lower(),
            fetch=fetch.name,
            replacement=make_replacement(str(replacement)).name,
            warmup=warmup,
            word_size=word_size,
            miss_path=chain if chain is not None and chain.enabled else None,
            sample=sample,
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

    Call from one thread at a time before a trace group's cells run:
    another group of the same trace may be running its cells on another
    thread, the view's LRU caches are not synchronized, and pre-warming
    them here turns every group's cell accesses into pure reads.
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

    The per-cell path of the service's trace groups, on a thread or in
    a supervised worker alike, so both report the path that ran.

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
