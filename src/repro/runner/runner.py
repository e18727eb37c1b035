"""The resilient sweep executor.

The paper's core experiment is an exhaustive (net size × block size ×
sub-block size) × trace sweep.  Run monolithically, one bad cell loses
the whole campaign; here every (geometry, trace) pair becomes an
independent *cell* executed under

* a wall-clock timeout and an access budget
  (:class:`~repro.errors.CellTimeoutError` on breach),
* a retry budget with exponential backoff and deterministic jitter
  (:mod:`repro.runner.retry`),
* JSONL checkpointing, so an interrupted sweep resumes from the last
  completed cell bit-identically (:mod:`repro.runner.checkpoint`),
* graceful degradation: in lenient mode a failed cell is skipped and
  the suite average is taken over the surviving traces, with the
  skips named on the resulting point and in the
  :class:`~repro.runner.health.RunReport`.

Cells execute through the pluggable engine layer
(:mod:`repro.engine`): :func:`repro.engine.route.plan` routes every
cell — a stack-distance pass, a sampled estimate, or a per-cell
engine — with :attr:`RunnerConfig.engine` as one of its inputs.  :attr:`RunnerConfig.jobs` spreads
independent cells over a process pool; workers only compute — the
parent alone appends checkpoint records, so the JSONL file stays
single-writer and resume-safe.

Fault injection (:mod:`repro.runner.faults`) plugs in through
:attr:`RunnerConfig.injector`, which is how the chaos harness and the
tests drive every one of these paths deterministically.
"""

from __future__ import annotations

import random
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.engine.batch import CellSpec, prepare_trace, run_route
from repro.engine.route import Route, plan
from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    EngineError,
    ReproError,
)
from repro.memory.nibble import NIBBLE_MODE_BUS, BusCostModel
from repro.runner.checkpoint import (
    CheckpointWriter,
    legacy_fingerprints,
    load_checkpoint,
    sweep_fingerprint,
)
from repro.runner.faults import FaultInjector
from repro.runner.health import CellOutcome, CellStatus, HealthMonitor, RunReport
from repro.runner.retry import RetryPolicy, call_with_retry
from repro.stackdist.engine import run_group_pass
from repro.stackdist.planner import plan_grid
from repro.trace.record import Trace

__all__ = ["RunnerConfig", "cell_key", "run_sweep"]


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs of the resilient execution layer.

    The default configuration is maximally strict and adds no
    behaviour: no retries, no timeout, no checkpoint — a plain sweep.

    Attributes:
        retry: Backoff schedule and retryability rules.
        cell_timeout: Wall-clock seconds allowed per cell attempt.
        max_cell_accesses: Access budget per cell attempt (the sweep-
            level analogue of the toy machine's step budget).
        checkpoint: JSONL checkpoint path; None disables checkpointing.
        resume: Reuse completed cells from an existing checkpoint
            instead of truncating it.
        lenient: Skip failed cells (recording why) instead of failing
            the sweep, treat machine/trace-format errors as retryable,
            and re-run a cell on the reference engine if the vectorized
            engine fails internally.
        seed: Seeds the jitter generator so backoff schedules are
            reproducible.
        max_consecutive_failures: Health breaker — abort the run after
            this many back-to-back skipped cells (None disables).
        injector: Deterministic fault plan, for chaos runs and tests.
        sleep: Injectable sleep used by retry backoff (jobs=1 only;
            workers always use the real ``time.sleep``).
        engine / grid_engine: Route planner inputs
            (:func:`repro.engine.route.plan`, ``docs/engines.md``): the
            per-cell engine (``auto``, ``reference``, ``vectorized``,
            ``checked``) and the grid strategy (``auto``, ``stackdist``,
            ``percell``).  The grid strategy is never part of the sweep
            fingerprint: every path produces identical ratios, so
            checkpoints resume across it.
        jobs: Worker processes for cell execution.  1 (default) runs
            in-process; N > 1 fans cells out over a process pool while
            the parent keeps sole ownership of the checkpoint file.
            Incompatible with ``injector`` (per-access fault proxies
            cannot cross process boundaries).
        preflight: Run the static preflight
            (:func:`repro.staticcheck.preflight_sweep`) before any cell
            executes: error findings abort the sweep *before* the
            checkpoint file is touched, warnings land on the
            :class:`~repro.runner.health.RunReport`.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    cell_timeout: Optional[float] = None
    max_cell_accesses: Optional[int] = None
    checkpoint: Optional[Union[str, Path]] = None
    resume: bool = False
    lenient: bool = False
    seed: int = 0
    max_consecutive_failures: Optional[int] = None
    injector: Optional[FaultInjector] = None
    sleep: Callable[[float], None] = time.sleep
    engine: str = "auto"
    grid_engine: str = "auto"
    jobs: int = 1
    preflight: bool = True

    def effective_retry(self) -> RetryPolicy:
        """The retry policy with sweep-level leniency folded in."""
        if self.lenient and not self.retry.lenient:
            return replace(self.retry, lenient=True)
        return self.retry

    def for_tag(self, tag: str) -> "RunnerConfig":
        """Derive a config whose checkpoint path is suffixed with ``tag``.

        Experiments that run several sweeps (one per net size or table
        row) give each its own checkpoint file so fingerprints never
        collide: ``ck.jsonl`` + ``net64`` -> ``ck.net64.jsonl``.
        """
        if self.checkpoint is None:
            return self
        path = Path(self.checkpoint)
        return replace(self, checkpoint=path.with_name(f"{path.stem}.{tag}{path.suffix}"))


def cell_key(geometry: CacheGeometry, trace_name: str) -> str:
    """Stable identifier of one (geometry, trace) cell."""
    return (
        f"{geometry.net_size}:{geometry.block_size},"
        f"{geometry.sub_block_size}@{geometry.associativity}/{trace_name}"
    )


class _GuardedTrace:
    """Trace proxy enforcing a deadline and an access budget.

    The reference simulator's only interaction with a trace is
    iteration, so the cheapest reliable cell timeout is a cooperative
    check on every access — no signals, no threads, identical results
    when the budget is not hit.  Guarded cells therefore always execute
    on the reference engine.
    """

    def __init__(
        self,
        trace: Trace,
        key: str,
        deadline: Optional[float] = None,
        max_accesses: Optional[int] = None,
    ) -> None:
        self._trace = trace
        self._key = key
        self._deadline = deadline
        self._max_accesses = max_accesses

    @property
    def name(self) -> str:
        return self._trace.name

    def __len__(self) -> int:
        return len(self._trace)

    def __iter__(self) -> Iterator:
        deadline = self._deadline
        budget = self._max_accesses
        for count, access in enumerate(self._trace):
            if budget is not None and count >= budget:
                raise CellTimeoutError(
                    f"cell {self._key}: access budget of {budget} exceeded"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise CellTimeoutError(
                    f"cell {self._key}: wall-clock timeout at access {count}"
                )
            yield access


class _CellResult(NamedTuple):
    """What one answered cell records: its ratio triple plus extras."""

    ratios: Tuple[float, float, float]
    misspath: Optional[Dict[str, int]]
    stats: Optional[Dict[str, Any]]
    engine: str


def _ratios(stats: Any, bus_model: BusCostModel, word_size: int):
    return (
        stats.miss_ratio,
        stats.traffic_ratio(),
        stats.scaled_traffic_ratio(bus_model, word_size),
    )


def _execute_cell(
    spec: CellSpec,
    trace: Trace,
    key: str,
    config: RunnerConfig,
    bus_model: BusCostModel,
    rng: random.Random,
) -> "tuple[_CellResult, int]":
    """Run one per-cell route under retry; returns ``(result, attempts)``.

    Each attempt arms the fault injector and the guard, then plans the
    cell against the trace it actually iterates (a proxy routes to the
    reference loop).  Shared verbatim by the in-process path and the
    pool workers, so a sweep computes identical results regardless of
    ``jobs``.
    """

    def attempt(_attempt_number: int) -> _CellResult:
        run_trace: Any = trace
        if config.injector is not None:
            run_trace = config.injector.arm(key, run_trace)
        if config.cell_timeout is not None or config.max_cell_accesses is not None:
            deadline = (
                time.monotonic() + config.cell_timeout
                if config.cell_timeout is not None
                else None
            )
            run_trace = _GuardedTrace(
                run_trace, key, deadline, config.max_cell_accesses
            )
        route = plan(spec, run_trace)
        try:
            stats = run_route(run_trace, spec, route)
        except ReproError:
            raise
        except Exception as exc:
            if route.path != "vectorized":
                raise
            if not config.lenient:
                raise EngineError(
                    f"cell {key}: vectorized engine failed "
                    f"({type(exc).__name__}: {exc}); re-run with "
                    "--engine reference, or --lenient to fall back "
                    "automatically"
                ) from exc
            # Lenient degradation: the reference loop is the semantics
            # baseline, so the fallback is invisible in the results.
            # Fresh policy objects — the failed attempt may have
            # consumed replacement RNG state.
            route = Route("reference", route.reasons + ("vectorized engine failed",))
            stats = run_route(run_trace, spec, route)
        misspath = (
            stats.misspath.hits_summary() if stats.misspath is not None else None
        )
        return _CellResult(
            _ratios(stats, bus_model, spec.word_size), misspath, None, route.path
        )

    return call_with_retry(
        attempt, config.effective_retry(), rng, sleep=config.sleep
    )


def _execute_sampled_cell(
    spec: CellSpec,
    trace: Trace,
    phase_plan: Any,
    config: RunnerConfig,
    bus_model: BusCostModel,
) -> "tuple[_CellResult, int]":
    """Run one sampled cell from its trace's shared phase plan.

    The cell timeout becomes the engine deadline.  Retry is absent: the
    sampled path has no fault-injection proxies, so a failure is
    deterministic and a retry would only repeat it.
    """
    deadline = (
        time.monotonic() + config.cell_timeout
        if config.cell_timeout is not None else None
    )
    stats = run_route(trace, spec, Route("sampled"), deadline, phase_plan)
    ratios = _ratios(stats, bus_model, spec.word_size)
    return _CellResult(ratios, None, stats.to_dict(), "sampled"), 1


def _attempt(run: Callable[[], "tuple[_CellResult, int]"]) -> tuple:
    """``(status, result or error, attempts, elapsed)`` of one cell run."""
    started = time.monotonic()
    try:
        result, attempts = run()
    except ReproError as exc:
        attempts = getattr(exc, "retry_attempts", 1)
        return ("failed", exc, attempts, time.monotonic() - started)
    return ("ok", result, attempts, time.monotonic() - started)


# -- Process-pool plumbing -------------------------------------------------
#
# Workers are seeded once with the prepared traces and the sweep's
# template spec and config (initializer globals), then receive only
# (indices, key) per cell and return the same tuples as _attempt.  All
# checkpoint I/O stays in the parent.

_POOL_STATE: Dict[str, Any] = {}


def _pool_init(
    prepared: Sequence[Trace],
    geometries: Sequence[CacheGeometry],
    spec: CellSpec,
    config: RunnerConfig,
    bus_model: BusCostModel,
) -> None:
    _POOL_STATE.update(
        prepared=prepared, geometries=geometries, spec=spec,
        config=config, bus_model=bus_model,
    )


def _pool_run_cell(geometry_index: int, trace_index: int, key: str) -> tuple:
    state = _POOL_STATE
    spec = replace(state["spec"], geometry=state["geometries"][geometry_index])
    trace = state["prepared"][trace_index]
    # Per-cell jitter seed: stable across runs and independent of which
    # worker draws the cell (str hashing is not stable across
    # processes; CRC32 is).
    rng = random.Random(zlib.crc32(key.encode("utf-8")) ^ state["config"].seed)
    return _attempt(
        lambda: _execute_cell(
            spec, trace, key, state["config"], state["bus_model"], rng
        )
    )


def run_sweep(
    traces: Sequence[Trace],
    geometries: Sequence[CacheGeometry],
    word_size: int = 2,
    fetch: Union[str, FetchPolicy, None] = None,
    replacement: str = "lru",
    warmup: Union[int, str] = "fill",
    bus_model: BusCostModel = NIBBLE_MODE_BUS,
    filter_writes: bool = True,
    config: Optional[RunnerConfig] = None,
    miss_path: "Union[MissPathConfig, Dict[str, Any], None]" = None,
    sample: Any = None,
) -> "tuple[list, RunReport]":
    """Run the paper's sweep cell by cell under the resilience layer.

    ``config`` adds the resilience knobs; ``miss_path`` (a
    :class:`~repro.core.misspath.MissPathConfig` or its dict form)
    applies a miss-path chain to every cell, whose per-structure hit
    summaries the checkpoint records; ``sample`` (a
    :class:`~repro.staticcheck.phases.SamplingConfig`, its
    ``INTERVAL[,K]`` string, or a dict) asks for sampled estimates of
    the *cold* full-trace run from one phase plan per trace (recorded
    with engine ``"sampled"`` and the full :class:`SampledStats`
    payload; ``warmup`` and ``jobs`` are ignored).  The chain and
    sample keys join the sweep fingerprint, so checkpoints of
    different chains or sampling never resume each other.

    :func:`repro.engine.route.plan` chooses every cell's path — sampled,
    a stack-distance pass, or a per-cell engine; where it falls back
    (e.g. a sample with a miss-path chain runs exact) the preflight
    names the rule (``docs/engines.md``).

    Returns:
        ``(points, report)`` — one
        :class:`~repro.analysis.sweep.SweepPoint` per geometry in input
        order, averaged over the traces that completed, plus the
        per-cell :class:`~repro.runner.health.RunReport`.  Points whose
        cells were all skipped carry NaN ratios.

    Raises:
        ReproError: In strict mode, the first unrecoverable cell
            failure; in lenient mode only the health breaker raises.
    """
    config = config if config is not None else RunnerConfig()
    spec = CellSpec.of(
        None, engine=config.engine, fetch=fetch, replacement=replacement,
        warmup=warmup, word_size=word_size, miss_path=miss_path,
        sample=sample,
    )
    if config.jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {config.jobs}")
    if config.jobs > 1 and config.injector is not None:
        raise ConfigurationError(
            "fault injection requires jobs=1: per-access fault proxies "
            "cannot cross process boundaries"
        )
    guards: Dict[str, Any] = dict(
        cell_timeout=config.cell_timeout,
        max_cell_accesses=config.max_cell_accesses,
        injector_active=config.injector is not None,
    )
    # Grid-level plan: which geometries share a stack-distance pass and
    # which run per cell.  Computed up front so an invalid engine or
    # grid_engine fails before the checkpoint file is touched.
    grid = plan_grid(
        geometries, grid_engine=config.grid_engine, spec=spec, **guards
    )
    preflight_findings: List = []
    if config.preflight:
        # Fail-fast: error findings raise StaticCheckError here, before
        # the checkpoint file is created or truncated below.
        from repro.staticcheck.preflight import preflight_sweep

        preflight_findings = preflight_sweep(
            traces, geometries, spec=spec,
            # Coverage report only on an explicit grid-engine choice;
            # the default stays quiet so clean sweeps keep an empty
            # preflight (the summary line reports engines regardless).
            grid_engine=(
                config.grid_engine
                if config.grid_engine != "auto" else None
            ),
            **guards,
        )
    if plan(spec, **guards).path != "sampled":
        # A sample the route planner sends back to exact simulation is
        # dropped: the cells, and the fingerprint, are exact.
        spec = replace(spec, sample=None)
    prepared = [prepare_trace(trace, filter_writes) for trace in traces]
    routes = [
        plan(spec, trace, grid_engine=config.grid_engine, **guards)
        for trace in prepared
    ]
    keys = [
        cell_key(geometry, trace.name)
        for geometry in geometries
        for trace in prepared
    ]
    trace_lengths = [len(trace) for trace in prepared]
    params = spec.fingerprint_params(bus_model, filter_writes)
    fingerprint = sweep_fingerprint(keys, trace_lengths, **params)

    completed: Dict[str, dict] = {}
    writer: Optional[CheckpointWriter] = None
    if config.checkpoint is not None:
        if config.resume:
            completed = load_checkpoint(
                config.checkpoint, fingerprint,
                legacy_fingerprints=legacy_fingerprints(
                    keys, trace_lengths, params
                ),
            )
        writer = CheckpointWriter(
            config.checkpoint, fingerprint, fresh=not config.resume
        )

    rng = random.Random(config.seed)
    monitor = HealthMonitor(config.max_consecutive_failures)
    report = RunReport(preflight=preflight_findings)
    results: Dict[str, CellOutcome] = {}
    ratios: Dict[str, "tuple[float, float, float]"] = {}

    # Phase 1: stack-distance passes.  One pass per (group, trace)
    # answers every member cell at once; the per-cell loop below then
    # only *emits* those results, in the same canonical order as a
    # per-cell run, so checkpoint lines keep their ordering contract.
    # A pass that cannot run (an unexpected engine rejection) simply
    # leaves its cells to the per-cell path — fallback is transparent.
    answered: Dict[str, tuple] = {}
    passes_run = 0
    for trace, route in zip(prepared, routes):
        if route.path != "stackdist":
            continue
        for group in grid.groups:
            group_keys = [
                cell_key(geometries[i], trace.name)
                for i in group.geometry_indices
            ]
            if all(key in completed for key in group_keys):
                continue
            started = time.monotonic()
            try:
                stats_list = run_group_pass(
                    trace, group.block_size, group.num_sets,
                    group.members, word_size=word_size,
                )
            except ReproError:
                continue
            passes_run += 1
            # Attribute the pass wall-clock evenly across its cells.
            share = (time.monotonic() - started) / len(group_keys)
            for key, stats in zip(group_keys, stats_list):
                if key not in completed:
                    result = _CellResult(
                        _ratios(stats, bus_model, word_size), None, None,
                        "stackdist",
                    )
                    answered[key] = ("ok", result, 1, share)
    report.pass_groups = passes_run

    # Phase 1b: per-trace phase plans for sampled cells, computed once
    # and shared by every geometry over that trace.
    phase_plans: Dict[str, Any] = {}
    for trace, route in zip(prepared, routes):
        if route.path == "sampled":
            from repro.staticcheck.phases import analyze_trace

            phase_plans[trace.name] = analyze_trace(
                trace, spec.sample.interval, spec.sample.k,
                seed=spec.sample.seed,
            )

    executor: Optional[ProcessPoolExecutor] = None
    futures: Dict[str, Any] = {}
    if config.jobs > 1 and not phase_plans:
        pending = [
            (gi, ti, key)
            for gi, geometry in enumerate(geometries)
            for ti, trace in enumerate(prepared)
            for key in (cell_key(geometry, trace.name),)
            if key not in completed and key not in answered
        ]
        if pending:
            executor = ProcessPoolExecutor(
                max_workers=min(config.jobs, len(pending)),
                initializer=_pool_init,
                initargs=(
                    prepared, list(geometries), spec,
                    replace(config, sleep=time.sleep), bus_model,
                ),
            )
            # Submission order == canonical cell order; results are
            # consumed in the same order below, so checkpoint lines and
            # health accounting are byte-identical to a jobs=1 run.
            for gi, ti, key in pending:
                futures[key] = executor.submit(_pool_run_cell, gi, ti, key)

    try:
        for geometry in geometries:
            cell_spec = replace(spec, geometry=geometry)
            for trace in prepared:
                key = cell_key(geometry, trace.name)
                record = completed.get(key)
                if record is not None and record.get("status") == "ok":
                    ratios[key] = (
                        record["miss"], record["traffic"], record["scaled"]
                    )
                    outcome = CellOutcome(
                        key, trace.name, CellStatus.RESUMED,
                        attempts=record.get("attempts", 1),
                        engine=record.get("engine", ""),
                    )
                elif record is not None:  # previously skipped; keep the skip
                    outcome = CellOutcome(
                        key, trace.name, CellStatus.SKIPPED,
                        attempts=record.get("attempts", 1),
                        reason=record.get("reason", ""),
                    )
                else:
                    if key in answered:
                        ran = answered.pop(key)
                    elif key in futures:
                        ran = futures.pop(key).result()
                    elif trace.name in phase_plans:
                        ran = _attempt(lambda: _execute_sampled_cell(
                            cell_spec, trace, phase_plans[trace.name],
                            config, bus_model,
                        ))
                    else:
                        ran = _attempt(lambda: _execute_cell(
                            cell_spec, trace, key, config, bus_model, rng,
                        ))
                    outcome = _record(key, trace.name, ran, config, writer)
                    if outcome.status is CellStatus.OK:
                        ratios[key] = ran[1].ratios
                results[key] = outcome
                report.add(outcome)
                monitor.record(outcome)
                if config.injector is not None:
                    config.injector.cell_completed(key)
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if writer is not None:
            writer.close()

    return _aggregate(geometries, prepared, ratios, results, spec.fetch), report


def _record(
    key: str,
    trace_name: str,
    ran: tuple,
    config: RunnerConfig,
    writer: Optional[CheckpointWriter],
) -> CellOutcome:
    """Turn one cell run into its outcome and checkpoint line.

    A failure re-raises in strict mode and becomes a named skip in
    lenient mode.
    """
    status, payload, attempts, elapsed = ran
    if status == "failed":
        if not config.lenient:
            raise payload
        reason = f"{type(payload).__name__}: {payload}"
        if writer is not None:
            writer.record_cell(
                key, trace_name, "skipped", attempts=attempts, reason=reason
            )
        return CellOutcome(
            key, trace_name, CellStatus.SKIPPED,
            attempts=attempts, reason=reason, elapsed=elapsed,
        )
    if writer is not None:
        writer.record_cell(
            key, trace_name, "ok",
            ratios=payload.ratios, attempts=attempts, stats=payload.stats,
            misspath=payload.misspath, engine=payload.engine,
        )
    return CellOutcome(
        key, trace_name, CellStatus.OK,
        attempts=attempts, elapsed=elapsed, engine=payload.engine,
    )


def _aggregate(
    geometries: Sequence[CacheGeometry],
    prepared: Sequence[Trace],
    ratios: Dict[str, "tuple[float, float, float]"],
    results: Dict[str, CellOutcome],
    fetch_name: str,
) -> List:
    """Fold per-cell ratios into per-geometry suite averages."""
    # Imported lazily: analysis.sweep imports this module at load time.
    from repro.analysis.sweep import SweepPoint

    points = []
    for geometry in geometries:
        per_trace: Dict[str, tuple] = {}
        skipped: List[str] = []
        miss_sum = traffic_sum = scaled_sum = 0.0
        for trace in prepared:
            key = cell_key(geometry, trace.name)
            cell = ratios.get(key)
            if cell is None:
                if key in results:
                    skipped.append(trace.name)
                continue
            per_trace[trace.name] = cell
            miss_sum += cell[0]
            traffic_sum += cell[1]
            scaled_sum += cell[2]
        if per_trace or not skipped:
            count = max(len(per_trace), 1)
            averages = (miss_sum / count, traffic_sum / count, scaled_sum / count)
        else:  # every cell of this geometry failed
            averages = (float("nan"),) * 3
        points.append(
            SweepPoint(
                geometry=geometry,
                miss_ratio=averages[0],
                traffic_ratio=averages[1],
                scaled_traffic_ratio=averages[2],
                per_trace=per_trace,
                fetch_name=fetch_name,
                skipped_traces=tuple(skipped),
            )
        )
    return points
