"""The service core: coalescing, batching, caching, worker dispatch.

One :class:`SimulationService` turns validated
:class:`~repro.service.query.SimQuery` objects into cached
:class:`~repro.service.cache.CacheEntry` results.  The request path, in
order:

1. **Fast path** — a memoized query -> fingerprint mapping plus the
   result cache answer repeat queries without touching the queue.
2. **Coalescing** — concurrent identical queries share one in-flight
   future; only the first does any work.
3. **Static budget gate** — with ``static_budget_bytes_per_ms`` set, a
   deadline-carrying chain query whose abschain lower bound on memory
   traffic already proves the budget cannot be met is refused with a
   504 (``stage="static-budget"``) before any engine work.
4. **Admission** — the breaker and the bounded queue refuse work the
   service cannot take (:class:`~repro.service.admission.RejectedError`
   → HTTP 429/503).
5. **Batching** — the scheduler drains the queue every batch window and
   groups queries by trace, so each trace is generated, read-filtered,
   and predecoded exactly once per batch
   (:mod:`repro.engine.batch`) before its cells fan out.
6. **Dispatch** — cells run on a thread pool, bounded by
   ``max_inflight`` slots; completions land in the result cache and
   resolve every coalesced waiter.

All mutable service state is touched only from the event-loop thread;
the cache and metrics objects are internally locked because workers
update them from pool threads.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import default_trace_length
from repro.engine.batch import execute_cell, predecode, prepare_trace
from repro.engine.route import GRID_ENGINE_NAMES, plan
from repro.errors import ConfigurationError, DeadlineExceededError, ReproError
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.health import CellOutcome, CellStatus, RunReport
from repro.service.admission import AdmissionController, Breaker, RejectedError
from repro.service.cache import CacheEntry, ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.query import SimQuery, refuse_sample_fallback
from repro.service.supervisor import Supervisor, SupervisorConfig
from repro.stackdist.engine import run_group_pass
from repro.stackdist.planner import plan_grid
from repro.trace.record import Trace
from repro.workloads.suites import suite_specs, suite_trace

__all__ = ["ServiceConfig", "SimResult", "SimulationService"]

#: Bound on the query -> fingerprint memo (entries, not bytes).
_FINGERPRINT_MEMO = 4096


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Attributes:
        workers: Thread-pool size for simulation cells.
        cache_size: Memory-tier capacity of the result cache.
        disk_cache: JSONL persistence path for the disk tier (None
            disables it).
        max_inflight: Cells allowed to execute concurrently.
        max_queue: Queries allowed to wait for a slot before new ones
            are refused with 429 semantics.
        batch_window: Seconds the scheduler lets a batch accumulate
            before grouping and dispatching it.
        breaker_failures: Consecutive cell failures that open the
            breaker (None disables it).
        breaker_reset: Breaker cool-down in seconds.
        retry_after: Back-off hint for queue-full rejections.
        engine: Default engine for queries that don't specify one is
            always ``auto``; this forces a specific engine for *all*
            queries instead (operational escape hatch).
        grid_engine: Grid strategy for batched queries — ``auto``
            (default), ``stackdist``, or ``percell``; the route planner
            weighs it exactly as a sweep does (``docs/engines.md``).
            Supervised mode always runs per cell (workers are the
            isolation unit).  Cache entries and fingerprints are
            identical either way.
        default_length: Trace length when a query omits ``length``
            (None: :func:`~repro.analysis.experiments
            .default_trace_length`).
        supervised: Execute cells on supervised child *processes*
            (:mod:`repro.service.supervisor`) instead of in-process
            threads — crash isolation at the cost of pipe hops.
        worker_processes: Child-process count in supervised mode.
        heartbeat_timeout: Worker silence treated as a hang.
        store_dir: Crash-safe WAL store directory for the disk tier
            (:class:`repro.service.store.WalStore`); mutually exclusive
            with ``disk_cache``.
        drain_timeout: Seconds a graceful drain waits for in-flight
            work before forcing shutdown.
        worker_env: Extra environment for supervised workers (the
            chaos harness's fault-injection channel).
        static_budget_bytes_per_ms: Arms the static admission gate:
            the nominal backing-store bandwidth (bytes of chain memory
            traffic per millisecond of deadline budget) of this
            service's budget class.  When set, a deadline-carrying
            query whose miss-path chain and program-backed trace let
            :func:`repro.staticcheck.abschain.classify_chain_program`
            prove a *lower* bound on ``memory_bytes_fetched``, and
            whose remaining budget is below ``lo / rate`` milliseconds,
            is refused up front with a 504 (``stage="static-budget"``)
            — the bound proves one complete cold execution of the
            trace's program already exceeds the budget, so no engine
            work is spent discovering that dynamically.  ``None``
            (default) disables the gate.
        allow_sampling: Opt-in for queries carrying a ``sample`` axis
            (representative-interval sampled simulation,
            docs/sampling.md).  Off by default: estimates are clearly
            marked (``stats.sampled.exact == false``) but a fleet
            should not serve them unless its operator opted in.
            Refused (at construction) in supervised mode — worker
            replay assumes exact results.
    """

    workers: int = 2
    cache_size: int = 1024
    disk_cache: Optional[str] = None
    max_inflight: int = 8
    max_queue: int = 64
    batch_window: float = 0.005
    breaker_failures: Optional[int] = 5
    breaker_reset: float = 5.0
    retry_after: float = 1.0
    engine: Optional[str] = None
    grid_engine: str = "auto"
    default_length: Optional[int] = None
    supervised: bool = False
    worker_processes: int = 2
    heartbeat_timeout: float = 2.0
    store_dir: Optional[str] = None
    drain_timeout: float = 10.0
    worker_env: Optional[Dict[str, str]] = None
    static_budget_bytes_per_ms: Optional[float] = None
    allow_sampling: bool = False


@dataclass(frozen=True)
class SimResult:
    """One answered query: the cache entry plus how it was obtained.

    ``source`` is ``memory`` / ``disk`` (cache hits), ``coalesced``
    (shared another request's computation), or ``computed``.
    """

    query: SimQuery
    entry: CacheEntry
    source: str
    elapsed: float

    def to_payload(self) -> Dict[str, Any]:
        """The ``/simulate`` response body."""
        return {
            "query": self.query.to_dict(),
            "key": self.entry.key,
            "fingerprint": self.entry.fingerprint,
            "engine": self.entry.engine,
            "cached": self.source in ("memory", "disk"),
            "source": self.source,
            "result": {
                "miss_ratio": self.entry.miss,
                "traffic_ratio": self.entry.traffic,
                "scaled_traffic_ratio": self.entry.scaled,
            },
            "stats": self.entry.stats,
            "elapsed_ms": self.elapsed * 1000.0,
        }


@dataclass
class _Pending:
    """One queued query and everyone waiting on it."""

    query: SimQuery
    future: "asyncio.Future[Tuple[CacheEntry, str]]"
    enqueued_at: float
    deadline: Optional[float] = None


class SimulationService:
    """Async façade over the engine layer; see the module docstring."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if self.config.grid_engine not in GRID_ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown grid engine {self.config.grid_engine!r}; choose "
                f"from {list(GRID_ENGINE_NAMES)}"
            )
        if self.config.allow_sampling and self.config.supervised:
            raise ConfigurationError(
                "allow_sampling is incompatible with supervised mode: "
                "worker processes execute exact cell specs only"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(
                maxsize=self.config.cache_size,
                disk_path=self.config.disk_cache,
                store_dir=self.config.store_dir,
            )
        )
        if self.cache.store is not None:
            self._record_recovery_metrics()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            retry_after=self.config.retry_after,
            breaker=Breaker(
                max_consecutive_failures=self.config.breaker_failures,
                reset_after=self.config.breaker_reset,
            ),
        )
        self.report = RunReport()
        self.started_at = time.time()
        self._default_length = (
            self.config.default_length
            if self.config.default_length is not None
            else default_trace_length()
        )
        self._fingerprints: "OrderedDict[SimQuery, str]" = OrderedDict()
        self._static_floors: "OrderedDict[tuple, Optional[float]]" = (
            OrderedDict()
        )
        self._prepared_lengths: "Dict[tuple, int]" = {}
        if self.cache.store is not None:
            self._load_prepared_lengths()
        self._inflight_futures: "Dict[SimQuery, asyncio.Future]" = {}
        self._queue: "deque[_Pending]" = deque()
        self._wake: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._prepare_lock: Optional[asyncio.Lock] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._group_tasks: "set[asyncio.Task]" = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self.supervisor: Optional[Supervisor] = None
        self._stopped = False
        self._draining = False

    def _record_recovery_metrics(self) -> None:
        """Export what startup recovery found (chaos asserts on these)."""
        assert self.cache.store is not None
        report = self.cache.store.last_recovery
        if report.tails_truncated:
            self.metrics.store_recoveries_total.inc(
                report.tails_truncated, labels={"action": "tail_truncated"}
            )
        if report.records_salvaged:
            self.metrics.store_recoveries_total.inc(
                report.records_salvaged, labels={"action": "record_salvaged"}
            )
        if report.segments_quarantined:
            self.metrics.store_quarantined_total.inc(
                report.segments_quarantined
            )

    def _load_prepared_lengths(self) -> None:
        """Reload trace-group prepared lengths committed by past runs.

        Supervised-mode fingerprints fold in the prepared (read
        filtered) trace length, which only a worker response reveals —
        so without these meta records a restarted service could not
        address its own store until it re-simulated one cell per trace
        group.  With them, a restart warm-starts from disk.
        """
        assert self.cache.store is not None
        for record in self.cache.store.records():
            if record.get("kind") != "prepared_length":
                continue
            group = record.get("group")
            length = record.get("prepared_length")
            if isinstance(group, list) and isinstance(length, int):
                self._prepared_lengths[tuple(group)] = length

    def _persist_prepared_length(self, group: tuple, length: int) -> None:
        if self.cache.store is None:
            return
        self.cache.store.put({
            "kind": "prepared_length",
            "fingerprint": "plen:" + ":".join(str(part) for part in group),
            "group": list(group),
            "prepared_length": length,
        })

    @property
    def default_length(self) -> int:
        """Trace length applied to queries that omit ``length``."""
        return self._default_length

    # -- Lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the batch scheduler."""
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._prepare_lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-service",
        )
        self._stopped = False
        self._draining = False
        if self.config.supervised:
            self.supervisor = Supervisor(
                SupervisorConfig(
                    workers=self.config.worker_processes,
                    heartbeat_timeout=self.config.heartbeat_timeout,
                    breaker_failures=self.config.breaker_failures,
                    breaker_reset=self.config.breaker_reset,
                    default_length=self._default_length,
                    worker_env=self.config.worker_env,
                ),
                metrics=self.metrics,
            )
            await self.supervisor.start()
        self._scheduler = asyncio.ensure_future(self._schedule())

    async def drain(self, timeout: Optional[float] = None) -> float:
        """Graceful shutdown: finish in-flight work, flush, stop.

        The SIGTERM path.  New queries are refused with a ``draining``
        rejection the moment this starts; everything already admitted
        runs to completion (bounded by ``timeout``), the store is
        flushed (an fsync barrier), and the worker fleet is retired.

        Returns:
            Wall-clock seconds the drain took (also the
            ``repro_service_drain_seconds`` gauge).
        """
        loop = asyncio.get_event_loop()
        started = loop.time()
        budget = timeout if timeout is not None else self.config.drain_timeout
        self._draining = True
        # Let already-queued work get scheduled, then wait it out.
        if self._wake is not None:
            self._wake.set()
        deadline = loop.time() + budget
        while (self._queue or self._group_tasks) and loop.time() < deadline:
            tasks = list(self._group_tasks)
            if tasks:
                await asyncio.wait(
                    tasks, timeout=max(0.05, deadline - loop.time())
                )
            else:
                await asyncio.sleep(0.02)
        self.cache.flush()
        if self.supervisor is not None:
            await self.supervisor.drain(
                timeout=max(0.5, deadline - loop.time())
            )
        await self.stop()
        elapsed = loop.time() - started
        self.metrics.drain_seconds.set(elapsed)
        return elapsed

    async def stop(self) -> None:
        """Stop scheduling, fail queued work, release the pool."""
        self._stopped = True
        if self.supervisor is not None:
            await self.supervisor.drain(timeout=2.0)
            self.supervisor = None
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        for task in list(self._group_tasks):
            task.cancel()
        if self._group_tasks:
            await asyncio.gather(*self._group_tasks, return_exceptions=True)
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                pending.future.set_exception(
                    ReproError("service stopped before the query ran")
                )
            self._inflight_futures.pop(pending.query, None)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        self.cache.close()

    # -- Request path -----------------------------------------------------

    def _normalize(self, query: SimQuery) -> SimQuery:
        if self.config.engine is not None and query.engine != self.config.engine:
            query = SimQuery(
                **{**query.__dict__, "engine": self.config.engine}
            )
            # The forced engine may rule out the query's sample.
            refuse_sample_fallback(query.spec())
        return query

    def _static_floor_ms(self, query: SimQuery) -> Optional[float]:
        """Provable minimum service time of one query, in milliseconds.

        The abschain static *lower* bound on the chain's
        ``memory_bytes_fetched`` for the query's program-backed trace,
        divided by the configured budget-class bandwidth.  ``None``
        when the gate is off, the query has no chain, the trace is
        synthetic (no program to analyze), or the analysis proves
        nothing (lower bound 0).  Memoized: the analysis costs
        tenths of a second, the answer never changes for a key.
        """
        rate = self.config.static_budget_bytes_per_ms
        if not rate or query.miss_path is None:
            return None
        key = (
            query.suite, query.trace, query.word_size, query.net,
            query.block, query.sub, query.assoc, query.fetch,
            query.miss_path.key(),
        )
        if key in self._static_floors:
            self._static_floors.move_to_end(key)
            return self._static_floors[key]
        floor: Optional[float] = None
        try:
            spec = next(
                s
                for s in suite_specs(query.suite)
                if s.name == query.trace
            )
            if spec.program:
                import inspect

                from repro.staticcheck.abschain import (
                    classify_chain_program,
                )
                from repro.workloads.assembler import assemble
                from repro.workloads.programs import PROGRAMS

                builder = PROGRAMS[spec.program]
                params = dict(spec.params)
                if "seed" in inspect.signature(builder).parameters:
                    params.setdefault("seed", spec.seed)
                program = assemble(
                    builder(**params).source, word_size=query.word_size
                )
                report = classify_chain_program(
                    program,
                    query.geometry(),
                    miss_path=query.miss_path,
                    fetch=query.fetch,
                    name=query.trace,
                    check=False,
                )
                bound = report.bound("memory_bytes_fetched")
                if bound is not None and bound[0] > 0:
                    floor = bound[0] / rate
        except ReproError:
            floor = None  # an unanalyzable query is simply not gated
        self._static_floors[key] = floor
        while len(self._static_floors) > 256:
            self._static_floors.popitem(last=False)
        return floor

    async def simulate(
        self, query: SimQuery, deadline: Optional[float] = None
    ) -> SimResult:
        """Answer one query through cache, coalescing, and the queue.

        Args:
            deadline: Optional :func:`time.monotonic` instant by which
                the client needs the answer (``X-Repro-Deadline-Ms``).
                An already-expired budget is refused up front; a budget
                that expires mid-flight cancels cooperatively.

        Raises:
            RejectedError: When admission control refuses the query.
            DeadlineExceededError: When the budget cannot be met.
            ReproError: When the simulation itself fails.
        """
        if self._wake is None:
            raise ReproError("service not started; call start() first")
        loop = asyncio.get_event_loop()
        started = loop.time()
        if deadline is not None and time.monotonic() >= deadline:
            self.metrics.deadline_exceeded_total.inc(
                labels={"stage": "admission"}
            )
            raise DeadlineExceededError(
                "deadline already expired at admission", stage="admission"
            )
        if self._draining or self._stopped:
            self.metrics.rejected_total.inc(labels={"reason": "draining"})
            raise RejectedError(
                "service is draining for shutdown",
                reason="draining",
                retry_after=self.config.retry_after,
            )
        query = self._normalize(query)
        if query.sample is not None and not self.config.allow_sampling:
            raise ConfigurationError(
                "this service does not serve sampled estimates; "
                "start it with --allow-sampling (or drop the "
                "query's 'sample' axis for an exact result)"
            )

        # 1. Fast path: known fingerprint + cached result.
        fingerprint = self._fingerprints.get(query)
        if fingerprint is not None:
            found = self.cache.get(fingerprint)
            if found is not None:
                entry, tier = found
                self.metrics.record_lookup(tier)
                return SimResult(query, entry, tier, loop.time() - started)

        # 2. Coalescing: join an identical in-flight query.
        shared = self._inflight_futures.get(query)
        if shared is not None:
            self.metrics.coalesced_total.inc()
            entry, _ = await asyncio.shield(shared)
            return SimResult(query, entry, "coalesced", loop.time() - started)

        # 3. Static budget gate: when the abschain lower bound on the
        # chain's memory traffic already proves the remaining deadline
        # budget cannot be met, refuse before any engine work.
        if deadline is not None:
            floor_ms = self._static_floor_ms(query)
            if floor_ms is not None:
                remaining_ms = (deadline - time.monotonic()) * 1000.0
                if remaining_ms < floor_ms:
                    self.metrics.deadline_exceeded_total.inc(
                        labels={"stage": "static-budget"}
                    )
                    raise DeadlineExceededError(
                        f"chain {query.miss_path.key()} provably needs "
                        f">= {floor_ms:.1f} ms of this budget class's "
                        f"memory bandwidth; {remaining_ms:.1f} ms remain",
                        stage="static-budget",
                    )

        # 4. Admission control.
        try:
            self.admission.admit(queued=len(self._queue))
        except ReproError as exc:
            reason = getattr(exc, "reason", "rejected")
            self.metrics.rejected_total.inc(labels={"reason": reason})
            raise

        # 5. Enqueue for the batch scheduler.
        future: "asyncio.Future[Tuple[CacheEntry, str]]" = loop.create_future()
        self._inflight_futures[query] = future
        self._queue.append(_Pending(query, future, started, deadline))
        self.metrics.queue_depth.set(len(self._queue))
        self._wake.set()
        entry, source = await asyncio.shield(future)
        return SimResult(query, entry, source, loop.time() - started)

    # -- Scheduler --------------------------------------------------------

    async def _schedule(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.config.batch_window > 0:
                # Let a batch accumulate so same-trace queries group.
                await asyncio.sleep(self.config.batch_window)
            if not self._queue:
                continue
            batch: List[_Pending] = []
            while self._queue:
                batch.append(self._queue.popleft())
            self.metrics.queue_depth.set(0)
            groups: "OrderedDict[tuple, List[_Pending]]" = OrderedDict()
            for pending in batch:
                groups.setdefault(pending.query.trace_group(), []).append(pending)
            for group in groups.values():
                task = asyncio.ensure_future(self._run_group(group))
                self._group_tasks.add(task)
                task.add_done_callback(self._group_tasks.discard)

    async def _run_group(self, group: List[_Pending]) -> None:
        """Prepare one trace, then run/resolve every cell of the group."""
        if self.supervisor is not None:
            # Supervised mode: workers own trace preparation (each
            # keeps a prepared-trace LRU), so the parent dispatches
            # cells directly and learns the prepared length from the
            # first response.
            await asyncio.gather(
                *(self._run_cell_supervised(pending) for pending in group)
            )
            return
        assert self._executor is not None and self._prepare_lock is not None
        loop = asyncio.get_event_loop()
        sample = group[0].query
        prepare_started = loop.time()
        try:
            # Serialized: TraceView's decode caches are only safe to
            # *populate* from one thread (see repro.engine.batch).
            async with self._prepare_lock:
                prepared = await loop.run_in_executor(
                    self._executor,
                    self._prepare_group,
                    sample,
                    [pending.query.spec() for pending in group],
                )
        except Exception as exc:  # noqa: BLE001 - fail the whole group
            self.metrics.stage_seconds.observe(
                loop.time() - prepare_started, labels={"stage": "prepare"}
            )
            for pending in group:
                self._complete_error(pending, exc)
            return
        self.metrics.stage_seconds.observe(
            loop.time() - prepare_started, labels={"stage": "prepare"}
        )
        precomputed: "Dict[SimQuery, Any]" = {}
        await self._stackdist_passes(group, prepared, precomputed)
        await asyncio.gather(
            *(
                self._run_cell(
                    pending, prepared,
                    precomputed=precomputed.get(pending.query),
                )
                for pending in group
            )
        )

    async def _stackdist_passes(
        self,
        group: List[_Pending],
        prepared: Trace,
        out: "Dict[SimQuery, Any]",
    ) -> None:
        """Answer coverable cells of one batch from stack-distance passes.

        Cells the route planner sends to ``stackdist`` under the
        service's ``grid_engine`` (a request deadline counts as a
        per-cell timeout) are grouped per ``(word_size, warmup)`` by
        :func:`~repro.stackdist.planner.plan_grid`, exactly as a sweep
        grid is, and each pass group is computed by one
        :func:`repro.stackdist.engine.run_group_pass` over the already
        prepared trace.  Already-cached cells and everything else stay
        on the per-cell path — fallback is transparent because both
        paths produce identical stats and fingerprints.
        """
        eligible: "OrderedDict[tuple, List[_Pending]]" = OrderedDict()
        for pending in group:
            query = pending.query
            route = plan(
                query.spec(), prepared,
                grid_engine=self.config.grid_engine,
                cell_timeout=(
                    pending.deadline - time.monotonic()
                    if pending.deadline is not None else None
                ),
            )
            if route.path != "stackdist":
                continue
            if self.cache.get(query.fingerprint(len(prepared))) is not None:
                continue  # the cell's own cache lookup will serve it
            eligible.setdefault((query.word_size, query.warmup), []).append(
                pending
            )
        assert self._slots is not None and self._executor is not None
        loop = asyncio.get_event_loop()
        for pendings in eligible.values():
            template = pendings[0].query
            grid = plan_grid(
                [pending.query.geometry() for pending in pendings],
                self.config.grid_engine, spec=template.spec(),
            )
            for pass_group in grid.groups:
                async with self._slots:
                    simulate_started = loop.time()
                    try:
                        stats_list = await loop.run_in_executor(
                            self._executor, run_group_pass,
                            prepared, pass_group.block_size,
                            pass_group.num_sets, pass_group.members,
                            template.word_size,
                        )
                    except ReproError:
                        continue  # transparent fallback to per-cell runs
                    finally:
                        self.metrics.stage_seconds.observe(
                            loop.time() - simulate_started,
                            labels={"stage": "simulate"},
                        )
                for index, stats in zip(pass_group.geometry_indices, stats_list):
                    out[pendings[index].query] = stats

    def _prepare_group(self, sample: SimQuery, specs: list) -> Trace:
        """Worker-side batch prepare: generate, filter, predecode."""
        trace = suite_trace(sample.suite, sample.trace, length=sample.length)
        prepared = prepare_trace(trace, sample.filter_writes)
        predecode(prepared, specs)
        return prepared

    def _serve_cached(self, pending: _Pending, fingerprint: str) -> bool:
        """Memoize ``fingerprint`` and answer from the cache if it can;
        records the lookup outcome either way."""
        self._memoize(pending.query, fingerprint)
        found = self.cache.get(fingerprint)
        if found is None:
            self.metrics.record_lookup("miss")
            return False
        entry, tier = found
        self.metrics.record_lookup(tier)
        self._complete_ok(pending, entry, tier)
        return True

    async def _run_cell_supervised(self, pending: _Pending) -> None:
        """One cell through the worker fleet instead of the thread pool."""
        assert self._slots is not None and self.supervisor is not None
        loop = asyncio.get_event_loop()
        query = pending.query

        # The prepared length — and with it the fingerprint — is known
        # once any cell of this trace group has come back; until then
        # the cache check happens after execution (put is idempotent).
        known_length = self._prepared_lengths.get(query.trace_group())
        if known_length is None:
            self.metrics.record_lookup("miss")
        elif self._serve_cached(pending, query.fingerprint(known_length)):
            return

        async with self._slots:
            self.metrics.stage_seconds.observe(
                loop.time() - pending.enqueued_at, labels={"stage": "queue"}
            )
            self.metrics.inflight.inc()
            simulate_started = loop.time()
            try:
                response = await self.supervisor.submit(
                    query.to_dict(), deadline=pending.deadline
                )
            except Exception as exc:  # noqa: BLE001 - surface per query
                self._complete_error(pending, exc)
                return
            finally:
                self.metrics.inflight.dec()
                self.metrics.stage_seconds.observe(
                    loop.time() - simulate_started, labels={"stage": "simulate"}
                )
        prepared_length = response["prepared_length"]
        if self._prepared_lengths.get(query.trace_group()) != prepared_length:
            self._prepared_lengths[query.trace_group()] = prepared_length
            self._persist_prepared_length(query.trace_group(), prepared_length)
        fingerprint = query.fingerprint(prepared_length)
        self._memoize(query, fingerprint)
        self._complete_computed(pending, CacheEntry(
            fingerprint=fingerprint,
            key=response["key"],
            trace=response["trace"],
            miss=response["miss"],
            traffic=response["traffic"],
            scaled=response["scaled"],
            stats=response["stats"],
            engine=response["engine"],
        ))

    async def _run_cell(
        self,
        pending: _Pending,
        prepared: Trace,
        precomputed: Any = None,
    ) -> None:
        query = pending.query
        fingerprint = query.fingerprint(len(prepared))
        # Late cache check: the fingerprint may have been computed for
        # the first time here, and an earlier batch (or a seeded disk
        # tier) may already hold the answer.
        if self._serve_cached(pending, fingerprint):
            return

        if precomputed is not None:
            # A stack-distance pass already answered this cell; its
            # slot and simulate-stage time were accounted by the pass.
            ran = (precomputed, "stackdist")
        else:
            ran = await self._simulate(pending, prepared)
            if ran is None:
                return
        stats, engine_name = ran
        self._complete_computed(pending, CacheEntry(
            fingerprint=fingerprint,
            key=query.cell(),
            trace=query.trace,
            miss=stats.miss_ratio,
            traffic=stats.traffic_ratio(),
            scaled=stats.scaled_traffic_ratio(NIBBLE_MODE_BUS, query.word_size),
            stats=stats.to_dict(),
            engine=engine_name,
        ))

    async def _simulate(
        self, pending: _Pending, prepared: Trace
    ) -> "Optional[Tuple[Any, str]]":
        """Run one cell on the pool: ``(stats, path)``, or ``None`` once
        the failure has been delivered to the waiters."""
        assert self._slots is not None and self._executor is not None
        loop = asyncio.get_event_loop()
        async with self._slots:
            self.metrics.stage_seconds.observe(
                loop.time() - pending.enqueued_at, labels={"stage": "queue"}
            )
            if (
                pending.deadline is not None
                and time.monotonic() >= pending.deadline
            ):
                self._complete_error(
                    pending,
                    DeadlineExceededError(
                        "deadline expired while queued", stage="queue"
                    ),
                )
                return None
            self.metrics.inflight.inc()
            simulate_started = loop.time()
            try:
                return await loop.run_in_executor(
                    self._executor, self._execute,
                    prepared, pending.query, pending.deadline,
                )
            except Exception as exc:  # noqa: BLE001 - surface per query
                self._complete_error(pending, exc)
                return None
            finally:
                self.metrics.inflight.dec()
                self.metrics.stage_seconds.observe(
                    loop.time() - simulate_started, labels={"stage": "simulate"}
                )

    @staticmethod
    def _execute(
        prepared: Trace, query: SimQuery, deadline: Optional[float] = None
    ) -> Tuple[Any, str]:
        """Pool-side cell execution; returns ``(stats, path)``."""
        return execute_cell(prepared, query.spec(), deadline)

    def _record_misspath(self, stats_payload: Any) -> None:
        """Export a computed cell's miss-path services to ``/metrics``.

        Works from the serialized stats dict so the in-process and
        supervised paths feed the counter identically; chainless cells
        (no ``misspath`` key) record nothing.
        """
        if not isinstance(stats_payload, dict):
            return
        misspath = stats_payload.get("misspath")
        if not isinstance(misspath, dict):
            return
        structures = misspath.get("structures", {})
        if isinstance(structures, dict):
            for name, structure in structures.items():
                hits = structure.get("hits", 0) if isinstance(structure, dict) else 0
                if hits:
                    self.metrics.misspath_hits_total.inc(
                        hits, labels={"structure": str(name)}
                    )
        fetches = misspath.get("memory_fetches", 0)
        if fetches:
            self.metrics.misspath_hits_total.inc(
                fetches, labels={"structure": "memory"}
            )

    # -- Completion -------------------------------------------------------

    def _memoize(self, query: SimQuery, fingerprint: str) -> None:
        self._fingerprints[query] = fingerprint
        self._fingerprints.move_to_end(query)
        while len(self._fingerprints) > _FINGERPRINT_MEMO:
            self._fingerprints.popitem(last=False)

    def _complete_computed(self, pending: _Pending, entry: CacheEntry) -> None:
        self.cache.put(entry)
        self._record_misspath(entry.stats)
        self._complete_ok(pending, entry, "computed")

    def _complete_ok(
        self, pending: _Pending, entry: CacheEntry, source: str
    ) -> None:
        self._inflight_futures.pop(pending.query, None)
        if source == "computed":
            self.admission.breaker.record(entry.key, entry.trace)
            self.metrics.cells_total.inc(labels={"status": "ok"})
            self.report.add(
                CellOutcome(entry.key, entry.trace, CellStatus.OK)
            )
        loop = asyncio.get_event_loop()
        self.metrics.stage_seconds.observe(
            loop.time() - pending.enqueued_at, labels={"stage": "total"}
        )
        if not pending.future.done():
            pending.future.set_result((entry, source))

    def _complete_error(self, pending: _Pending, error: Exception) -> None:
        query = pending.query
        self._inflight_futures.pop(query, None)
        reason = f"{type(error).__name__}: {error}"
        if isinstance(error, DeadlineExceededError):
            # A spent client budget says nothing about service health:
            # count it, but don't feed the breaker's failure streak.
            self.metrics.deadline_exceeded_total.inc(
                labels={"stage": error.stage}
            )
        else:
            self.admission.breaker.record(
                query.cell(), query.trace, error=reason
            )
        self.metrics.cells_total.inc(labels={"status": "failed"})
        self.report.add(
            CellOutcome(
                query.cell(), query.trace, CellStatus.SKIPPED, reason=reason
            )
        )
        if not pending.future.done():
            pending.future.set_exception(error)

    # -- Introspection ----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The ``/healthz`` body: liveness plus capacity signals."""
        import repro

        breaker = self.admission.breaker
        body = {
            "status": "degraded" if breaker.state == "open" else "ok",
            "version": repro.__version__,
            "uptime_seconds": time.time() - self.started_at,
            "breaker": breaker.state,
            "breaker_trips": breaker.trips,
            "queue_depth": len(self._queue),
            "cache_entries": len(self.cache),
            "cache_disk_entries": self.cache.disk_entries,
            "cells": {
                "completed": self.report.completed,
                "skipped": len(self.report.skipped),
            },
        }
        if self._draining:
            body["status"] = "draining"
        if self.supervisor is not None:
            body["supervisor"] = self.supervisor.describe()
            if body["supervisor"]["alive"] == 0:
                body["status"] = "degraded"
        if self.cache.store is not None:
            body["store"] = self.cache.store.describe()
        return body
