"""The service core: coalescing, batching, caching, group dispatch.

One :class:`SimulationService` turns validated
:class:`~repro.service.query.SimQuery` objects into cached
:class:`~repro.service.cache.CacheEntry` results.  The request path, in
order:

1. **Fast path** — a memoized query -> fingerprint mapping plus the
   result cache answer repeat queries without touching the queue.
2. **Coalescing** — concurrent identical queries share one in-flight
   future; only the first does any work.
3. **Admission** — the breaker and the bounded queue refuse work the
   service cannot take (:class:`~repro.service.admission.RejectedError`
   → HTTP 429/503).
4. **Batching** — the scheduler drains the queue (at once when no
   trace group is running, after the batch window otherwise) and
   groups queries by trace.
5. **Dispatch** — a trace group is the unit of work (:meth:`_run_group`),
   run by :func:`run_trace_group` on the executor: a thread pool, or the
   supervised worker fleet (:mod:`repro.service.supervisor`).
   Completions land in the result cache and resolve every coalesced
   waiter.

All mutable service state is touched only from the event-loop thread;
the cache and metrics objects are internally locked because pool
threads read them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.base import ENGINE_NAMES
from repro.engine.batch import execute_cell, predecode, prepare_trace
from repro.engine.route import plan
from repro.errors import ConfigurationError, DeadlineExceededError, ReproError
from repro.runner.health import Breaker, CellOutcome, CellStatus, RunReport
from repro.service.admission import AdmissionController, RejectedError
from repro.service.cache import CacheEntry, ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.query import GroupResult, SimQuery, refuse_sample_fallback
from repro.service.supervisor import Supervisor
from repro.stackdist.engine import run_group_pass
from repro.stackdist.planner import plan_grid
from repro.staticcheck.diagnostics import Diagnostic, Severity, raise_on_errors
from repro.workloads.suites import default_trace_length, suite_trace

__all__ = ["ServiceConfig", "SimResult", "SimulationService", "run_trace_group"]

#: Bound on the query -> fingerprint memo (entries, not bytes).
_FINGERPRINT_MEMO = 4096

@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance.

    Attributes:
        workers: Executor width: pool threads in-process, worker
            processes when ``supervised``.
        cache_size: Memory-tier capacity of the result cache.
        max_inflight: Trace groups allowed to execute concurrently; a
            running group holds one slot however many queries it
            carries.
        max_queue: Queries allowed to wait for a slot before new ones
            are refused with 429 semantics.
        batch_window: Seconds a batch waits for more queries while
            any trace group is running.  When none is running the
            scheduler dispatches at once, so a lone query on an idle
            service never waits for it.
        breaker_failures: Consecutive failures that open a breaker:
            cell failures for admission, deaths for each supervised
            worker (None disables both).
        breaker_reset: Breaker cool-down in seconds.
        retry_after: Back-off hint for queue-full rejections.
        engine: Default engine for queries that don't specify one is
            always ``auto``; this forces a specific engine for *all*
            queries instead (operational escape hatch); a forced
            engine runs every query per cell, as it does in a sweep.
            A name outside :data:`~repro.engine.base.ENGINE_NAMES`
            (spelled exactly) is refused at construction under
            ``policy-unknown-engine``.
        default_length: Trace length when a query omits ``length``
            (None: :func:`~repro.workloads.suites
            .default_trace_length`).
        supervised: Run trace groups on supervised child *processes*
            (:mod:`repro.service.supervisor`) instead of in-process
            threads — crash isolation at the cost of pipe hops.
        heartbeat_timeout: Worker silence treated as a hang.
        store_dir: Crash-safe WAL store directory for the disk tier
            (:class:`repro.service.store.WalStore`); None keeps the
            result cache memory-only.
        drain_timeout: Seconds a graceful drain waits for in-flight
            work before forcing shutdown.
        worker_env: Extra environment for supervised workers (the
            chaos harness's fault-injection channel).
        allow_sampling: Opt-in for queries carrying a ``sample`` axis
            (representative-interval sampled simulation,
            docs/sampling.md).  Off by default: estimates are clearly
            marked (``stats.sampled.exact == false``) but a fleet
            should not serve them unless its operator opted in.
    """

    workers: int = 2
    cache_size: int = 1024
    max_inflight: int = 8
    max_queue: int = 64
    batch_window: float = 0.005
    breaker_failures: Optional[int] = 5
    breaker_reset: float = 5.0
    retry_after: float = 1.0
    engine: Optional[str] = None
    default_length: Optional[int] = None
    supervised: bool = False
    heartbeat_timeout: float = 2.0
    store_dir: Optional[str] = None
    drain_timeout: float = 10.0
    worker_env: Optional[Dict[str, str]] = None
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


#: Serializes what populates :class:`~repro.engine.traceview.TraceView`'s
#: decode caches, which are only safe to *fill* from one thread at a
#: time (see :mod:`repro.engine.batch`): two trace groups of one trace
#: may run at once on the pool, and their cells then only read them.
_PREPARE_LOCK = threading.Lock()


def run_trace_group(
    group: Tuple[str, str, int, bool],
    queries: Sequence[SimQuery],
    deadlines: Sequence[Optional[float]],
) -> GroupResult:
    """Answer the queries of one trace group: the service's unit of work.

    Runs on a pool thread in-process and in each supervised worker
    (:mod:`repro.service.worker`).  It prepares and predecodes the trace
    once, runs each :func:`~repro.stackdist.planner.plan_grid` pass group
    of two or more same-``(word_size, warmup, fetch)`` queries on one
    :func:`~repro.stackdist.engine.run_group_pass` under the earliest
    member deadline (a failed pass leaves its members to the per-cell
    path, which gives identical stats), and runs the rest through
    :func:`~repro.engine.batch.execute_cell`.  With no queries it only
    prepares: that is how the service learns a prepared length.

    Raises:
        ReproError: When the trace cannot be prepared; a failing cell
            is reported in its outcome instead.
    """
    suite, trace, length, filter_writes = group
    started = time.monotonic()
    with _PREPARE_LOCK:
        prepared = prepare_trace(suite_trace(suite, trace, length=length), filter_writes)
        predecode(prepared, [query.spec for query in queries])
    result = GroupResult(len(prepared), [None] * len(queries), time.monotonic() - started)
    eligible: "OrderedDict[tuple, List[int]]" = OrderedDict()
    for index, query in enumerate(queries):
        spec = query.spec
        if plan(spec, prepared, grid=True).path == "stackdist":
            # plan_grid gives every member the template's fetch and
            # warm-up, so a pass mixes neither.
            eligible.setdefault((spec.word_size, spec.warmup, spec.fetch), []).append(index)
    for indices in eligible.values():
        template = queries[indices[0]].spec
        grid = plan_grid([queries[index].spec.geometry for index in indices], spec=template)
        for pass_group in grid.groups:
            if len(pass_group) < 2:
                continue  # a lone query runs per cell (execute_cell)
            members = [indices[i] for i in pass_group.geometry_indices]
            deadline = min(
                (deadlines[i] for i in members if deadlines[i] is not None), default=None
            )
            started = time.monotonic()
            try:
                stats_list = run_group_pass(
                    prepared, pass_group.block_size, pass_group.num_sets,
                    pass_group.members, template.word_size, False, deadline,
                )
            except ReproError:
                continue  # transparent fallback to per-cell runs
            finally:
                result.simulate_seconds.append(time.monotonic() - started)
            for index, stats in zip(members, stats_list):
                result.outcomes[index] = queries[index].result_record(stats, "stackdist")
    for index, query in enumerate(queries):
        if result.outcomes[index] is not None:
            continue
        started = time.monotonic()
        try:
            stats, path = execute_cell(prepared, query.spec, deadlines[index])
            result.outcomes[index] = query.result_record(stats, path)
        except Exception as exc:  # noqa: BLE001 - surface per query
            result.outcomes[index] = exc
        finally:
            result.simulate_seconds.append(time.monotonic() - started)
    return result


class _ThreadExecutor:
    """The in-process executor: :func:`run_trace_group` on a thread pool."""

    def __init__(self, workers: int) -> None:
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-service")

    async def run(
        self,
        group: Tuple[str, str, int, bool],
        queries: Sequence[SimQuery],
        deadlines: Sequence[Optional[float]],
    ) -> GroupResult:
        return await asyncio.get_event_loop().run_in_executor(
            self._pool, run_trace_group, group, queries, deadlines
        )

    async def drain(self, timeout: float) -> None:
        self._pool.shutdown(wait=False)


class SimulationService:
    """Async façade over the engine layer; see the module docstring."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        engine = self.config.engine
        if engine is not None and engine not in ENGINE_NAMES:
            # Refused here, not per query: a forced engine that no query
            # can run would blame every client for the operator's setting.
            raise_on_errors(
                [
                    Diagnostic(
                        rule="policy-unknown-engine",
                        severity=Severity.ERROR,
                        message=f"unknown engine {engine!r}; choose from "
                        f"{list(ENGINE_NAMES)}",
                        source="service-config",
                        location="engine",
                        data={"value": engine},
                    )
                ],
                "invalid service config",
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache
            if cache is not None
            else ResultCache(
                maxsize=self.config.cache_size,
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
        self._prepared_lengths: "Dict[tuple, int]" = {}
        self._inflight_futures: "Dict[SimQuery, asyncio.Future]" = {}
        self._queue: "deque[_Pending]" = deque()
        self._wake: Optional[asyncio.Event] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._scheduler: Optional[asyncio.Task] = None
        self._group_tasks: "set[asyncio.Task]" = set()
        self._executor: "Optional[Union[_ThreadExecutor, Supervisor]]" = None
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

    @property
    def default_length(self) -> int:
        """Trace length applied to queries that omit ``length``."""
        return self._default_length

    # -- Lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the batch scheduler."""
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.config.max_inflight)
        self._stopped = False
        self._draining = False
        if self.config.supervised:
            self.supervisor = Supervisor(self.config, metrics=self.metrics)
            await self.supervisor.start()
            self._executor = self.supervisor
        else:
            self._executor = _ThreadExecutor(self.config.workers)
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
        await self.stop(executor_timeout=max(0.5, deadline - loop.time()))
        elapsed = loop.time() - started
        self.metrics.drain_seconds.set(elapsed)
        return elapsed

    async def stop(self, executor_timeout: float = 2.0) -> None:
        """Stop scheduling, fail every unanswered query, retire the
        executor (waiting up to ``executor_timeout`` for its work)."""
        self._stopped = True
        if self._scheduler is not None:
            self._scheduler.cancel()
            try:
                await self._scheduler
            except asyncio.CancelledError:
                pass
            self._scheduler = None
        if self._executor is not None:
            await self._executor.drain(timeout=executor_timeout)
            self._executor = self.supervisor = None
        for task in list(self._group_tasks):
            task.cancel()
        if self._group_tasks:
            await asyncio.gather(*self._group_tasks, return_exceptions=True)
        # Queued and dispatched-but-cancelled queries alike: every
        # unresolved future is in the in-flight map.
        self._queue.clear()
        for future in self._inflight_futures.values():
            if not future.done():
                future.set_exception(
                    ReproError("service stopped before the query ran")
                )
        self._inflight_futures.clear()
        self.cache.close()

    # -- Request path -----------------------------------------------------

    def _normalize(self, query: SimQuery) -> SimQuery:
        engine = self.config.engine
        if engine is not None and query.spec.engine != engine:
            query = dataclasses.replace(
                query, spec=dataclasses.replace(query.spec, engine=engine)
            )
            # The forced engine may rule out the query's sample.
            refuse_sample_fallback(query.spec)
        return query

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
        if query.spec.sample is not None and not self.config.allow_sampling:
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

        # 3. Admission control.
        try:
            self.admission.admit(queued=len(self._queue))
        except ReproError as exc:
            reason = getattr(exc, "reason", "rejected")
            self.metrics.rejected_total.inc(labels={"reason": reason})
            raise

        # 4. Enqueue for the batch scheduler.
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
            # Queries enqueued in this loop turn join the batch.
            await asyncio.sleep(0)
            if self._group_tasks:
                # While any trace group is running, let arrivals
                # accumulate so same-trace queries share one group and,
                # where coverable, one stack-distance pass.
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
        """Answer one trace group: serve its cached queries, run the rest.

        Fingerprints fold in the prepared trace length, so a group not
        prepared before first runs with no queries to learn it; the
        cache check then comes before any cell runs.  The misses run as
        one group on the executor, holding one ``max_inflight`` slot
        however many they are.  A failure of the whole run (prepare, no
        live worker) fails every query still waiting.
        """
        assert self._slots is not None and self._executor is not None
        loop = asyncio.get_event_loop()
        key = group[0].query.trace_group()
        prepare_seconds: List[float] = []
        # The query-less run's wall time is booked to "prepare", not to
        # the queue wait of the queries it held back.
        learning = 0.0
        try:
            if key not in self._prepared_lengths:
                learn_started = loop.time()
                learned = await self._executor.run(key, [], [])
                learning = loop.time() - learn_started
                prepare_seconds.append(learned.prepare_seconds)
                self._prepared_lengths[key] = learned.prepared_length
            length = self._prepared_lengths[key]
            misses = [
                pending for pending in group
                if not self._serve_cached(pending, pending.query.fingerprint(length))
            ]
            if not misses:
                return
            async with self._slots:
                for pending in misses:
                    self.metrics.stage_seconds.observe(
                        loop.time() - pending.enqueued_at - learning,
                        labels={"stage": "queue"},
                    )
                    if pending.deadline is not None and time.monotonic() >= pending.deadline:
                        self._complete_error(pending, DeadlineExceededError(
                            "deadline expired while queued", stage="queue"
                        ))
                runnable = [pending for pending in misses if not pending.future.done()]
                if not runnable:
                    return
                self.metrics.inflight.inc(len(runnable))
                started = loop.time()
                try:
                    ran = await self._executor.run(
                        key,
                        [pending.query for pending in runnable],
                        [pending.deadline for pending in runnable],
                    )
                finally:
                    self.metrics.inflight.dec(len(runnable))
            prepare_seconds.append(ran.prepare_seconds)
            # Each pass or cell is charged its share of the dispatch
            # (thread hop or pipe), so a simulate sample is wall time.
            waited = loop.time() - started - ran.prepare_seconds
            runs = ran.simulate_seconds
            share = max(0.0, waited - sum(runs)) / max(1, len(runs))
            for seconds in runs:
                self.metrics.stage_seconds.observe(seconds + share, labels={"stage": "simulate"})
            for pending, outcome in zip(runnable, ran.outcomes):
                if isinstance(outcome, Exception):
                    self._complete_error(pending, outcome)
                    continue
                entry = CacheEntry.from_record(
                    dict(outcome, fingerprint=pending.query.fingerprint(length))
                )
                self.cache.put(entry)
                self._record_misspath(entry.stats)
                self._complete_ok(pending, entry, "computed")
        except Exception as exc:  # noqa: BLE001 - fail the whole group
            for pending in group:
                if not pending.future.done():
                    self._complete_error(pending, exc)
        finally:
            if prepare_seconds:
                self.metrics.stage_seconds.observe(
                    sum(prepare_seconds), labels={"stage": "prepare"}
                )

    def _serve_cached(self, pending: _Pending, fingerprint: str) -> bool:
        """Memoize ``fingerprint`` and answer from the cache if it can;
        records the lookup outcome either way."""
        self._fingerprints[pending.query] = fingerprint
        self._fingerprints.move_to_end(pending.query)
        while len(self._fingerprints) > _FINGERPRINT_MEMO:
            self._fingerprints.popitem(last=False)
        found = self.cache.get(fingerprint)
        if found is None:
            self.metrics.record_lookup("miss")
            return False
        entry, tier = found
        self.metrics.record_lookup(tier)
        self._complete_ok(pending, entry, tier)
        return True

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
