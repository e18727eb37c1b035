"""Service-level chaos: kill workers, corrupt the store, drown the edge.

``python -m repro chaos --serve`` proves the supervised service's
crash-safety story end to end, the way :mod:`repro.runner.chaos` proves
the batch runner's.  A fault-free pass first establishes the ground
truth — every query's fingerprint and result triple, plus the set of
records durably committed to the WAL store — and then each scenario
injects one failure and asserts the three service-level guarantees:

1. **The service keeps answering.**  Requests sent during the fault
   still complete with status 200 and results identical (fingerprint-
   level diff) to the fault-free run.
2. **No committed result is lost or corrupted.**  After the scenario
   drains, the store is reopened and every record the service committed
   is still there, byte-for-byte the baseline values.  Damaged segments
   are *quarantined*, never deleted.
3. **The failure is observable.**  ``/metrics`` exposes the restart,
   recovery, quarantine, or drain-latency series the scenario exercised.

Scenario ids are stable (CI and the docs reference them by name):

=========================  =============================================
``serve-kill-worker``      SIGKILL a worker mid-request; retry answers.
``serve-crash-loop``       one worker crashes at startup, forever.
``serve-stalled-heartbeat``a worker wedges (alive, silent); SIGKILLed.
``serve-torn-tail``        crash-truncate the WAL segment mid-record.
``serve-bit-flip``         flip one payload bit; quarantine + salvage.
``serve-slow-loris``       a client that never finishes its request.
``serve-drain``            SIGTERM path: drain, flush, byte-equal store.
``serve-poison-query``     one query kills every worker that runs it.
=========================  =============================================

Worker faults ride the environment-variable hooks documented in
:mod:`repro.service.worker`; store faults reuse
:func:`repro.runner.faults.tear_tail` / :func:`~repro.runner.faults
.flip_bit`.  Everything is seeded and the whole run is bounded by an
optional ``--budget`` wall-clock guard (the CI smoke job's backstop).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import struct
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runner.faults import flip_bit, tear_tail
from repro.service.app import ServiceApp
from repro.service.simulator import ServiceConfig
from repro.service.store import SEGMENT_MAGIC, WalStore

__all__ = ["SERVE_SCENARIOS", "run_serve_chaos"]

#: The stable scenario catalogue (see the module docstring and
#: ``docs/service.md``); the JSON report lists exactly these ids.
SERVE_SCENARIOS = (
    "serve-kill-worker",
    "serve-crash-loop",
    "serve-stalled-heartbeat",
    "serve-torn-tail",
    "serve-bit-flip",
    "serve-slow-loris",
    "serve-drain",
    "serve-poison-query",
)

#: Net size of the poisoned query (``REPRO_WORKER_CRASH_ON_NET``); no
#: healthy query of the scenarios uses it.
POISON_NET = 2048


class ChaosFailure(AssertionError):
    """One scenario guarantee did not hold; the detail says which."""


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise ChaosFailure(detail)


# -- Raw HTTP client -------------------------------------------------------
#
# The harness deliberately speaks HTTP the way an external client would
# (sockets, not in-process calls), so the edge — status codes,
# Retry-After, read timeouts — is part of what every scenario exercises.


async def _http(
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 60.0,
) -> Tuple[int, Dict[str, str], bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        lines = [
            f"{method} {path} HTTP/1.1",
            "Host: chaos",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, response_body = raw.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    response_headers: Dict[str, str] = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, response_body


def _metric(text: str, name: str, labels: str = "") -> float:
    """One series value out of the ``/metrics`` exposition text."""
    needle = f"{name}{labels} "
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line[len(needle):])
    return 0.0


# -- Service and store helpers ---------------------------------------------


async def _start_app(
    store_dir: Optional[Path] = None,
    supervised: bool = False,
    worker_env: Optional[Dict[str, str]] = None,
    heartbeat_timeout: float = 2.0,
    read_timeout: float = 10.0,
    default_length: int = 4000,
) -> ServiceApp:
    config = ServiceConfig(
        batch_window=0.0,
        supervised=supervised,
        workers=2,
        heartbeat_timeout=heartbeat_timeout,
        store_dir=str(store_dir) if store_dir is not None else None,
        worker_env=worker_env,
        default_length=default_length,
    )
    app = ServiceApp(config=config, host="127.0.0.1", port=0,
                     read_timeout=read_timeout)
    await app.start()
    return app


async def _simulate_all(
    port: int, queries: "List[Dict[str, Any]]", burst: bool = False
) -> Dict[str, Dict[str, float]]:
    """POST every query, one after another or (``burst``) all at once;
    return ``fingerprint -> result`` or raise."""
    if burst:
        replies = await asyncio.gather(
            *(_http(port, "POST", "/simulate", query) for query in queries)
        )
    else:
        replies = [await _http(port, "POST", "/simulate", query) for query in queries]
    served: Dict[str, Dict[str, float]] = {}
    for query, (status, _, body) in zip(queries, replies):
        _require(
            status == 200,
            f"query {query['net']}B answered {status}, "
            f"not 200: {body[:120]!r}",
        )
        payload = json.loads(body)
        served[payload["fingerprint"]] = payload["result"]
    return served


def _diff(
    served: Dict[str, Dict[str, float]],
    baseline: Dict[str, Dict[str, float]],
) -> "List[str]":
    """Fingerprints whose result differs from the fault-free run."""
    return sorted(
        fingerprint
        for fingerprint, result in served.items()
        if baseline.get(fingerprint) != result
    )


def _store_records(store_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Open the store (recovery runs) and snapshot every live result.

    Meta records (trace-group prepared lengths, which older services
    persisted) are not results; the loss assertions are about answers
    clients were given.
    """
    store = WalStore(store_dir)
    try:
        return {
            record["fingerprint"]: record
            for record in store.records()
            if record.get("kind") == "result"
        }
    finally:
        store.close()


def _committed_matches(
    records: Dict[str, Dict[str, Any]],
    fingerprints: "set[str]",
    baseline: Dict[str, Dict[str, float]],
) -> "List[str]":
    """Committed fingerprints missing or differing from the baseline."""
    problems = []
    for fingerprint in sorted(fingerprints):
        record = records.get(fingerprint)
        if record is None:
            problems.append(f"{fingerprint} lost")
            continue
        expected = baseline[fingerprint]
        got = (record["miss"], record["traffic"], record["scaled"])
        want = (
            expected["miss_ratio"],
            expected["traffic_ratio"],
            expected["scaled_traffic_ratio"],
        )
        if got != want:
            problems.append(f"{fingerprint} altered")
    return problems


def _require_intact(
    store_dir: Path,
    fingerprints: "set[str]",
    baseline: Dict[str, Dict[str, float]],
    what: str = "committed results damaged",
) -> None:
    """Every fingerprint is committed in the store with its baseline
    result."""
    problems = _committed_matches(
        _store_records(store_dir), fingerprints, baseline
    )
    _require(not problems, f"{what}: {problems}")


async def _scrape(port: int, name: str, labels: str = "") -> float:
    """One series of the live ``/metrics`` exposition."""
    status, _, text = await _http(port, "GET", "/metrics")
    _require(status == 200, f"/metrics answered {status}")
    return _metric(text.decode(), name, labels)


def _segment_bytes(store_dir: Path) -> Dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(store_dir).glob("wal-*.seg"))
    }


def _first_payload_offset(segment: Path) -> int:
    """A byte inside the first record's payload (bit-flip target)."""
    data = segment.read_bytes()
    header = len(SEGMENT_MAGIC)
    length, _crc = struct.unpack_from("<II", data, header)
    return header + 8 + max(0, length // 2)


# -- The scenarios ---------------------------------------------------------


async def _run_scenarios(
    root: Path,
    queries: "List[Dict[str, Any]]",
    seed: int,
    out: Callable[[str], None],
) -> "List[Dict[str, Any]]":
    results: "List[Dict[str, Any]]" = []

    # Ground truth: the fault-free run.  Every scenario diffs against
    # this map, and the committed-record checks use its store snapshot.
    baseline_dir = root / "baseline"
    app = await _start_app(store_dir=baseline_dir)
    try:
        baseline = await _simulate_all(app.port, queries)
    finally:
        await app.drain()
    committed_baseline = _store_records(baseline_dir)
    _require(
        set(committed_baseline) == set(baseline),
        "baseline store does not hold exactly the served fingerprints",
    )
    out(
        f"serve-chaos: baseline {len(queries)} queries, "
        f"{len(baseline)} fingerprints committed"
    )

    async def scenario(scenario_id, fn) -> None:
        started = time.monotonic()
        try:
            detail = await fn()
            ok = True
        except ChaosFailure as exc:
            detail, ok = str(exc), False
        except Exception as exc:  # noqa: BLE001 - a crash fails the scenario
            detail, ok = f"{type(exc).__name__}: {exc}", False
        elapsed = time.monotonic() - started
        results.append(
            {
                "id": scenario_id,
                "ok": ok,
                "detail": detail,
                "elapsed_s": round(elapsed, 3),
            }
        )
        out(f"  [{'PASS' if ok else 'FAIL'}] {scenario_id}: {detail}")

    # -- serve-kill-worker: SIGKILL mid-request, every request answered.
    async def kill_worker() -> str:
        store_dir = root / "kill"
        app = await _start_app(
            store_dir=store_dir,
            supervised=True,
            worker_env={
                "REPRO_WORKER_CRASH_AFTER": "1",
                "REPRO_WORKER_CHAOS_INDEX": "0",
            },
        )
        try:
            served = await _simulate_all(app.port, queries)
            _require(not _diff(served, baseline), "served results differ")
            restarts = await _scrape(
                app.port, "repro_service_worker_restarts_total",
                '{reason="crashed"}',
            )
            _require(
                restarts >= 1,
                "no crashed-worker restart visible in /metrics",
            )
        finally:
            await app.drain()
        _require_intact(store_dir, set(served), baseline)
        return (
            f"{len(served)} queries answered through {restarts:.0f} "
            "mid-request SIGKILLs; all committed results intact"
        )

    # -- serve-crash-loop: one worker never comes up; service degrades,
    # does not die.
    async def crash_loop() -> str:
        store_dir = root / "crashloop"
        app = await _start_app(
            store_dir=store_dir,
            supervised=True,
            worker_env={
                "REPRO_WORKER_CRASH_ON_START": "1",
                "REPRO_WORKER_CHAOS_INDEX": "0",
            },
        )
        try:
            served = await _simulate_all(app.port, queries)
            _require(not _diff(served, baseline), "served results differ")
            status, _, body = await _http(app.port, "GET", "/healthz")
            _require(status == 200, f"/healthz answered {status}")
            health = json.loads(body)
            alive = health["supervisor"]["alive"]
            _require(alive >= 1, "no live worker behind the service")
            # Each crash-loop iteration pays worker cold-start, so give
            # the second restart a moment to be observed.
            restarts = 0.0
            poll_deadline = time.monotonic() + 15.0
            while time.monotonic() < poll_deadline:
                restarts = await _scrape(
                    app.port, "repro_service_worker_restarts_total",
                    '{reason="crashed"}',
                )
                if restarts >= 2:
                    break
                await asyncio.sleep(0.25)
            _require(
                restarts >= 2,
                f"crash loop restarted only {restarts:.0f} time(s)",
            )
        finally:
            await app.drain()
        _require_intact(store_dir, set(served), baseline)
        return (
            f"healthy worker answered everything while slot 0 "
            f"crash-looped ({restarts:.0f} restarts)"
        )

    # -- serve-stalled-heartbeat: a wedged (alive, silent) worker is
    # SIGKILLed on heartbeat timeout and its request retried elsewhere.
    async def stalled_heartbeat() -> str:
        store_dir = root / "stall"
        app = await _start_app(
            store_dir=store_dir,
            supervised=True,
            heartbeat_timeout=1.0,
            worker_env={
                "REPRO_WORKER_STALL_HEARTBEAT_AFTER": "1",
                "REPRO_WORKER_CHAOS_INDEX": "0",
            },
        )
        try:
            # Let first heartbeats land so a stall is judged against the
            # tight timeout, not the cold-start grace period (worker
            # cold start is dominated by imports, on the order of 1-2s).
            await asyncio.sleep(3.0)
            # Two concurrent queries: the first request, which learns
            # their group's prepared length, goes to the worker that
            # will wedge; the rest follow sequentially.
            served = await _simulate_all(app.port, queries[:2], burst=True)
            served.update(await _simulate_all(app.port, queries))
            _require(not _diff(served, baseline), "served results differ")
            hung = await _scrape(
                app.port, "repro_service_worker_restarts_total",
                '{reason="hung"}',
            )
            _require(hung >= 1, "no hung-worker restart visible in /metrics")
        finally:
            await app.drain()
        _require_intact(store_dir, set(served), baseline)
        return (
            f"wedged worker SIGKILLed ({hung:.0f} hung restart(s)); "
            "every request still answered correctly"
        )

    # -- serve-torn-tail: crash-truncate the WAL; recovery keeps the
    # committed prefix and the service recomputes the rest.
    async def torn_tail() -> str:
        store_dir = root / "torn"
        shutil.copytree(baseline_dir, store_dir)
        shutil.rmtree(store_dir / "quarantine", ignore_errors=True)
        segment = sorted(store_dir.glob("wal-*.seg"))[-1]
        removed = tear_tail(segment, keep_fraction=0.3, seed=seed)
        _require(removed > 0, "tear_tail removed nothing")
        app = await _start_app(store_dir=store_dir)
        try:
            recovery = app.service.cache.store.last_recovery
            recovered = set(app.service.cache.store.fingerprints())
            _require(
                recovered < set(baseline),
                "tear did not lose the tail record(s) it cut through",
            )
            _require(
                recovery.segments_quarantined == 0,
                "a torn tail must be truncated, not quarantined",
            )
            served = await _simulate_all(app.port, queries)
            _require(not _diff(served, baseline), "served results differ")
            truncated = await _scrape(
                app.port, "repro_service_store_recoveries_total",
                '{action="tail_truncated"}',
            )
            _require(
                truncated >= 1,
                "tail truncation not visible in /metrics",
            )
        finally:
            await app.drain()
        _require_intact(
            store_dir, set(baseline), baseline, "store not fully repopulated"
        )
        return (
            f"{removed}-byte torn tail truncated "
            f"({len(baseline) - len(recovered)} record(s) recomputed); "
            "surviving prefix served unaltered"
        )

    # -- serve-bit-flip: interior corruption quarantines the segment
    # (preserved byte-for-byte) and salvages the intact records.
    async def bit_flip() -> str:
        store_dir = root / "flip"
        shutil.copytree(baseline_dir, store_dir)
        shutil.rmtree(store_dir / "quarantine", ignore_errors=True)
        segment = sorted(store_dir.glob("wal-*.seg"))[-1]
        offset = flip_bit(segment, offset=_first_payload_offset(segment),
                          seed=seed)
        damaged_bytes = segment.read_bytes()
        app = await _start_app(store_dir=store_dir)
        try:
            recovery = app.service.cache.store.last_recovery
            _require(
                recovery.segments_quarantined == 1,
                f"expected 1 quarantined segment, "
                f"got {recovery.segments_quarantined}",
            )
            _require(
                recovery.records_salvaged == len(baseline) - 1,
                f"expected {len(baseline) - 1} salvaged record(s), "
                f"got {recovery.records_salvaged}",
            )
            quarantined = list((store_dir / "quarantine").glob("wal-*"))
            _require(
                any(p.read_bytes() == damaged_bytes for p in quarantined),
                "quarantine does not preserve the damaged segment "
                "byte-for-byte",
            )
            served = await _simulate_all(app.port, queries)
            _require(not _diff(served, baseline), "served results differ")
            _require(
                await _scrape(
                    app.port, "repro_service_store_quarantined_total"
                ) >= 1,
                "quarantine not visible in /metrics",
            )
        finally:
            await app.drain()
        _require_intact(
            store_dir, set(baseline), baseline, "store not fully repopulated"
        )
        return (
            f"bit flipped at offset {offset}: segment quarantined intact, "
            f"{recovery.records_salvaged} record(s) salvaged, "
            "damaged record recomputed"
        )

    # -- serve-slow-loris: a stuck client gets 408; everyone else is
    # served meanwhile.
    async def slow_loris() -> str:
        app = await _start_app(read_timeout=1.0)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port
            )
            try:
                writer.write(b"POST /simulate HTTP/1.1\r\nContent-Le")
                await writer.drain()
                # The victim connection is wedged; a well-behaved client
                # must still get through.
                status, _, body = await _http(
                    app.port, "POST", "/simulate", queries[0]
                )
                _require(
                    status == 200,
                    f"concurrent request answered {status} during the attack",
                )
                payload = json.loads(body)
                _require(
                    baseline.get(payload["fingerprint"]) == payload["result"],
                    "concurrent result differs from baseline",
                )
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                _require(
                    raw.startswith(b"HTTP/1.1 408"),
                    f"slow client got {raw[:40]!r}, not 408",
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            await app.stop()
        return "stuck request answered 408 after 1.0s; service kept serving"

    # -- serve-drain: the SIGTERM path flushes everything and the store
    # reopens byte-equivalently.
    async def drain() -> str:
        store_dir = root / "drain"
        app = await _start_app(store_dir=store_dir, supervised=True)
        try:
            served = await _simulate_all(app.port, queries)
            _require(not _diff(served, baseline), "served results differ")
        except BaseException:
            await app.stop()
            raise
        elapsed = await app.drain()
        _require(
            app.service.metrics.drain_seconds.value() == elapsed,
            "drain latency not recorded in the metrics gauge",
        )
        before = _segment_bytes(store_dir)
        store = WalStore(store_dir)
        try:
            recovery = store.last_recovery
            recovered = {
                record["fingerprint"]
                for record in store.records()
                if record.get("kind") == "result"
            }
        finally:
            store.close()
        _require(
            recovery.tails_truncated == 0
            and recovery.segments_quarantined == 0,
            "a clean drain left a store that needed repair",
        )
        _require(
            recovered == set(served),
            "post-drain store does not hold exactly the served results",
        )
        _require(
            _segment_bytes(store_dir) == before,
            "recovery rewrote a cleanly drained store",
        )
        _require_intact(store_dir, set(served), baseline)
        return (
            f"drained in {elapsed:.2f}s; store reopened byte-equivalently "
            f"with all {len(recovered)} records"
        )

    await scenario("serve-kill-worker", kill_worker)
    await scenario("serve-crash-loop", crash_loop)
    await scenario("serve-stalled-heartbeat", stalled_heartbeat)
    await scenario("serve-torn-tail", torn_tail)
    await scenario("serve-bit-flip", bit_flip)
    await scenario("serve-slow-loris", slow_loris)
    # -- serve-poison-query: a burst on one trace carries one query that
    # kills every worker it reaches; it alone fails.
    async def poison_query() -> str:
        store_dir = root / "poison"
        poisoned = dict(queries[0], net=POISON_NET)
        app = await _start_app(
            store_dir=store_dir,
            supervised=True,
            worker_env={"REPRO_WORKER_CRASH_ON_NET": str(POISON_NET)},
        )
        try:
            served, (status, _, _) = await asyncio.gather(
                _simulate_all(app.port, queries, burst=True),
                _http(app.port, "POST", "/simulate", poisoned),
            )
            _require(status == 500, f"poisoned query answered {status}, not 500")
            _require(
                served.keys() == baseline.keys()
                and not _diff(served, baseline),
                "served results differ",
            )
            restarts = await _scrape(
                app.port, "repro_service_worker_restarts_total",
                '{reason="crashed"}',
            )
            _require(restarts >= 1, "no crashed-worker restart in /metrics")
        finally:
            await app.drain()
        _require(
            set(_store_records(store_dir)) == set(served),
            "the store holds something besides the healthy answers",
        )
        _require_intact(store_dir, set(served), baseline)
        return (
            f"poisoned query failed alone (500) through {restarts:.0f} "
            f"worker crashes; {len(served)} healthy queries answered"
        )

    await scenario("serve-drain", drain)
    await scenario("serve-poison-query", poison_query)
    return results


# -- Entry point -----------------------------------------------------------


def run_serve_chaos(
    quick: bool = False,
    seed: int = 0,
    out: Callable[[str], None] = print,
    budget: Optional[float] = None,
    report_path: Optional[str] = None,
) -> int:
    """Run every service chaos scenario; 0 when all guarantees held.

    Args:
        quick: Smallest credible configuration (the CI smoke mode).
        seed: Fault placement seed (tear offsets, flip bits).
        out: Line sink for progress output.
        budget: Optional wall-clock ceiling in seconds; exceeding it
            fails the run even if every scenario passed (a hung drain
            should fail CI, not hang it).
        report_path: Write the JSON scenario report here (the CI
            artifact).

    Returns:
        Process exit code: 0 all passed, 1 otherwise.
    """
    started = time.monotonic()
    length = 2000 if quick else 4000
    nets = (256, 512) if quick else (256, 512, 1024)
    queries = [
        {
            "suite": "pdp11",
            "trace": "ED",
            "length": length,
            "net": net,
            "block": 16,
            "sub": 8,
        }
        for net in nets
    ]
    out(
        f"serve-chaos: {len(SERVE_SCENARIOS)} scenarios, "
        f"{len(queries)} queries x {length} refs, seed {seed}"
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        scenarios = asyncio.run(
            _run_scenarios(Path(tmp), queries, seed, out)
        )
    failures = [entry["id"] for entry in scenarios if not entry["ok"]]
    elapsed = time.monotonic() - started
    if budget is not None and elapsed > budget:
        failures.append("serve-budget")
        out(
            f"  [FAIL] serve-budget: {elapsed:.1f}s exceeded the "
            f"{budget:.1f}s wall-clock budget"
        )
    report = {
        "schema_version": 1,
        "quick": quick,
        "seed": seed,
        "budget_s": budget,
        "elapsed_s": round(elapsed, 3),
        "scenarios": scenarios,
        "failures": failures,
    }
    if report_path:
        Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
        out(f"serve-chaos: report written to {report_path}")
    if failures:
        out(f"serve-chaos: FAILED ({', '.join(failures)}) in {elapsed:.1f}s")
        return 1
    out(
        f"serve-chaos: all {len(scenarios)} scenarios passed "
        f"in {elapsed:.1f}s"
    )
    return 0
