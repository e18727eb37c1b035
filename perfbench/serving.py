"""The two serve workloads: ``serve`` and ``serve_crashsafe``.

The server is the program's own ``serve`` command on an ephemeral port
(``--supervised --store-dir DIR`` for ``serve_crashsafe``), with its
request log redirected to a file so it can never block on a full pipe.
One client drives ``POST /simulate`` as a closed loop: it sends its next
request only when the previous reply has arrived.  The seed picks the
query stream: each first-seen geometry (computed by the server: a miss),
drawn from a shuffled pool that visits the traces in turn, is followed
by ``HITS_PER_MISS`` repeats of known results (cache hits).  The server
builds its own suite traces.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from statistics import median

from common import (
    LAYER_TIMES,
    HostSpeed,
    Result,
    child_pids,
    make_scratch,
    percentile,
    process_peak_rss_mb,
    spans_path as spans_file,
    zero_fill,
)
from recorder import self_times

from repro.core.config import CacheGeometry
from repro.engine import CellSpec, prepare_trace, run_cell
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import suite_trace

#: Accesses per query trace (the ``length`` query key).
QUERY_LENGTH = 20_000

#: Suite traces the queries use; at most the worker's trace LRU (4).
TRACES: Tuple[Tuple[str, str], ...] = (("pdp11", "ED"), ("z8000", "C1"), ("vax", "troff"))

#: Samples one run needs: a p90 with ten samples beyond it takes 100
#: misses, and hits are asked for ten times as many.
MISS_FLOOR = 100
HIT_FLOOR = 1_000

#: Hits after each first-seen geometry: the ratio of the floors, so a
#: run reaches both at the same time.
HITS_PER_MISS = HIT_FLOOR // MISS_FLOOR

#: Query shapes per trace computed during warm-up, the first known results.
HIT_SET = 10

#: Server starts measured for ``setup_s`` (median reported).
SETUP_REPEATS = 3

_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")

Cell = Tuple[str, str, int, int, int, int]  # suite, trace, net, block, sub, assoc


def geometry_pool() -> List[Cell]:
    """Every valid query shape over :data:`TRACES`."""
    cells = []
    for suite, trace in TRACES:
        word = get_architecture(suite).word_size
        for net in (256, 512, 1024, 2048, 4096, 8192):
            for block in (8, 16, 32, 64):
                for sub in (2, 4, 8, 16):
                    for assoc in (1, 2, 4, 8):
                        if word <= sub <= block and block <= net // 4 and block * assoc <= net:
                            cells.append((suite, trace, net, block, sub, assoc))
    return cells


def payload(cell: Cell) -> Dict[str, Any]:
    suite, trace, net, block, sub, assoc = cell
    return {"suite": suite, "trace": trace, "length": QUERY_LENGTH,
            "net": net, "block": block, "sub": sub, "assoc": assoc}


@dataclass
class Streams:
    """The seeded query plan: the warm-up (hit) set and per-phase miss lists."""

    warm: List[Cell]
    misses: List[List[Cell]]  # phase -> first-seen cells, traces in turn
    seed: int

    @classmethod
    def build(cls, seed: int, phases: int = 1) -> "Streams":
        """Shuffle each trace's shapes by ``seed`` and deal them out, so
        the misses of every phase rotate through the traces in turn."""
        rng = random.Random(seed)
        pool = geometry_pool()
        per_trace = []
        for key in TRACES:
            cells = [cell for cell in pool if cell[:2] == key]
            rng.shuffle(cells)
            per_trace.append(cells)
        warm = [cell for cells in per_trace for cell in cells[:HIT_SET]]
        misses = [
            [cell for turn in zip(*(cells[HIT_SET + phase::phases] for cells in per_trace))
             for cell in turn]
            for phase in range(phases)
        ]
        return cls(warm, misses, seed)

    def queries(self, phase: int) -> Iterator[Tuple[str, Cell]]:
        """``("miss", first-seen cell)``, then ``HITS_PER_MISS`` times
        ``("hit", a seeded pick among the results known so far)``."""
        rng = random.Random(self.seed * 1_000 + phase)
        known = list(self.warm)
        for cell in itertools.chain.from_iterable(
                [fresh] + [None] * HITS_PER_MISS for fresh in self.misses[phase]):
            if cell is None:
                yield "hit", rng.choice(known)
            else:
                known.append(cell)
                yield "miss", cell


@dataclass
class Reply:
    kind: str
    cell: Cell
    status: int
    started: float
    ended: float
    body: Optional[Dict[str, Any]]

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


class Server:
    """One server process: start, query, signal, stop."""

    def __init__(self, args: List[str], log: Path, spans: Optional[Path] = None) -> None:
        here = Path(__file__).resolve().parent
        if spans is None:
            self.command = [sys.executable, "-m", "repro", *args]
        else:
            self.command = [sys.executable, str(here / "launcher.py"), str(spans), *args]
        self.log = log
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, speed: HostSpeed) -> Tuple[float, float]:
        """Launch and wait until ``/healthz`` answers, probing host speed
        while waiting; returns the start and end times."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.monotonic()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                self.command, stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
            )
        while True:
            match = _LISTENING.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(2))
                break
            if self.process.poll() is not None or time.monotonic() - started > 60:
                raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")
            speed.maybe_probe()
            time.sleep(0.005)
        status, _ = self.get("/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return started, time.monotonic()

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._request("GET", path)

    def simulate(self, kind: str, cell: Cell) -> Reply:
        body = json.dumps(payload(cell)).encode()
        started = time.monotonic()
        status, data = self._request("POST", "/simulate", body)
        ended = time.monotonic()
        return Reply(kind, cell, status, started, ended,
                     json.loads(data) if status == 200 else None)

    def metrics(self) -> Dict[str, float]:
        status, data = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values: Dict[str, float] = {}
        for line in data.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def signal(self, signum: int) -> None:
        assert self.process is not None
        self.process.send_signal(signum)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes."""
        assert self.process is not None
        pids = [self.process.pid] + child_pids(self.process.pid)
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Drain gracefully (SIGTERM); kill if the drain hangs."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def drive(server: Server, streams: Streams, phase: int, seconds: float, speed: HostSpeed,
          ) -> Tuple[List[Reply], float, float]:
    """One closed-loop client: each query waits for the previous reply.
    Host speed is probed between replies, while the server is idle.

    A second concurrent client made the in-process server's latencies
    bimodal (hits queued behind a miss holding the interpreter lock), so
    the run-to-run spread hid any change smaller than about 40%.
    """
    replies: List[Reply] = []
    started = time.monotonic()
    for kind, cell in streams.queries(phase):
        speed.maybe_probe()
        if time.monotonic() - started >= seconds:
            break
        replies.append(server.simulate(kind, cell))
    return replies, started, time.monotonic()


def warm_up(server: Server, streams: Streams, speed: HostSpeed,
            ) -> Tuple[Tuple[float, float], List[Reply]]:
    """Compute the hit set: each trace's first two cells concurrently (so
    every worker prepares every trace), then the rest; then re-read it."""
    replies: List[Reply] = []
    seen = set()

    def ask(cell: Cell) -> None:
        kind = "hit" if cell in seen else "miss"
        seen.add(cell)
        replies.append(server.simulate(kind, cell))

    started = time.monotonic()
    for suite, trace in TRACES:
        cells = [cell for cell in streams.warm if cell[:2] == (suite, trace)][:2]
        threads = [threading.Thread(target=ask, args=(cell,)) for cell in cells]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for cell in streams.warm * 2:
        speed.maybe_probe()
        ask(cell)
    return (started, time.monotonic()), replies

# -- Output checks (outside the timed region) ----------------------------


class InProcess:
    """The benchmark's own ``run_cell`` on the same specs: the expected
    answers and the kernel floor."""

    def __init__(self) -> None:
        self.prepared: Dict[Tuple[str, str], Any] = {}
        self.run_cell_ms: Dict[Cell, float] = {}
        self.stats: Dict[Cell, Any] = {}

    def filtered_length(self, cell: Cell) -> int:
        return len(self._prepared(cell))

    def _prepared(self, cell: Cell) -> Any:
        key = cell[:2]
        if key not in self.prepared:
            self.prepared[key] = prepare_trace(suite_trace(*key, length=QUERY_LENGTH))
        return self.prepared[key]

    def expected(self, cell: Cell) -> Any:
        if cell not in self.stats:
            suite, _trace, net, block, sub, assoc = cell
            spec = CellSpec(CacheGeometry(net, block, sub, associativity=assoc),
                            word_size=get_architecture(suite).word_size)
            prepared = self._prepared(cell)
            started = time.monotonic()
            self.stats[cell] = run_cell(prepared, spec)
            self.run_cell_ms[cell] = (time.monotonic() - started) * 1000.0
        return self.stats[cell]


def check_reply(reply: Reply, expected: Any, first: Optional[Dict[str, Any]]) -> List[str]:
    """A computed reply must equal ``expected`` (an in-process run); a hit
    must equal the payload first computed for its query."""
    body = reply.body or {}
    where = f"{reply.kind} {reply.cell}"
    want_source = "computed" if reply.kind == "miss" else "memory"
    problems = []
    if body.get("source") != want_source:
        problems.append(f"{where}: source {body.get('source')!r}, expected {want_source!r}")
    if reply.kind == "miss":
        word = get_architecture(reply.cell[0]).word_size
        ratios = {
            "miss_ratio": expected.miss_ratio,
            "traffic_ratio": expected.traffic_ratio(),
            "scaled_traffic_ratio": expected.scaled_traffic_ratio(NIBBLE_MODE_BUS, word),
        }
        if body.get("result") != ratios:
            problems.append(f"{where}: result {body.get('result')} != run_cell {ratios}")
        if body.get("stats") != expected.to_dict():
            problems.append(f"{where}: stats differ from run_cell")
    elif first is None:
        problems.append(f"{where}: hit for a query never computed")
    else:
        for key in ("fingerprint", "result", "stats"):
            if body.get(key) != first.get(key):
                problems.append(f"{where}: {key} differs from the first computed reply")
    return problems


def check_replies(replies: List[Reply], reference: InProcess) -> List[str]:
    problems: List[str] = []
    first: Dict[Cell, Dict[str, Any]] = {}
    for reply in replies:
        if reply.status != 200:
            continue
        expected = reference.expected(reply.cell) if reply.kind == "miss" else None
        problems += check_reply(reply, expected, first.get(reply.cell))
        if reply.kind == "miss" and reply.body is not None:
            first.setdefault(reply.cell, reply.body)
    return problems

# -- Metric helpers ------------------------------------------------------


def _delta(before: Dict[str, float], after: Dict[str, float], prefix: str) -> float:
    """Change of every series whose name starts with ``prefix``."""
    keys = {key for key in after if key.startswith(prefix)}
    return sum(after[key] - before.get(key, 0.0) for key in keys)


def stage_mean_ms(before: Dict[str, float], after: Dict[str, float], stage: str) -> float:
    base = "repro_service_stage_seconds"
    label = f'{{stage="{stage}"}}'
    count = after.get(f"{base}_count{label}", 0.0) - before.get(f"{base}_count{label}", 0.0)
    total = after.get(f"{base}_sum{label}", 0.0) - before.get(f"{base}_sum{label}", 0.0)
    return total / count * 1000.0 if count else 0.0


def source_of(reply: Reply) -> str:
    return (reply.body or {}).get("source", "")

# -- The workload --------------------------------------------------------


@dataclass
class Phase:
    replies: List[Reply]
    started: float
    ended: float
    before: Dict[str, float] = field(default_factory=dict)
    after: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.ended - self.started


def run(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    supervised = workload == "serve_crashsafe"
    scratch = make_scratch().resolve()
    streams = Streams.build(seed, phases=2 if traced else 1)
    spans_path = spans_file(workload, seed).resolve()
    starts: List[Tuple[float, float]] = []
    server: Optional[Server] = None
    speed = HostSpeed()
    try:
        for attempt in range(SETUP_REPEATS):
            args = ["serve", "--port", "0"]
            if supervised:
                args += ["--supervised", "--store-dir", str(scratch / f"store-{attempt}")]
            last = attempt == SETUP_REPEATS - 1
            server = Server(args, scratch / f"server-{attempt}.log",
                            spans_path if traced and last else None)
            starts.append(server.start(speed))
            if not last:
                server.stop()
        assert server is not None
        warm, warm_replies = warm_up(server, streams, speed)
        phases: List[Phase] = []
        for index in range(2 if traced else 1):
            if traced and index == 1:
                server.signal(signal.SIGUSR1)
            before = server.metrics()
            replies, started, ended = drive(server, streams, index,
                                            seconds / 2 if traced else seconds, speed)
            phases.append(Phase(replies, started, ended, before, server.metrics()))
        if traced:
            server.signal(signal.SIGUSR2)
        peak = server.peak_rss_mb()
        server.stop()
    except BaseException:
        if server is not None:
            server.kill()
        raise

    result = Result(workload)
    result.notes.append(speed.note())
    reference = InProcess()
    replies = warm_replies + [reply for phase in phases for reply in phase.replies]
    for problem in check_replies(replies, reference):
        result.mismatch(problem)
    measured = phases[-1]
    result.attempted = len(measured.replies)
    result.failed = sum(reply.status != 200 for reply in measured.replies)
    if traced:
        per_layer(result, phases, reference, spans_path, supervised)
    else:
        setup_s = median(speed.scaled(*window) for window in starts) + speed.scaled(*warm)
        end_to_end(result, measured, reference, speed, setup_s, peak)
    return result


def end_to_end(result: Result, phase: Phase, reference: InProcess, speed: HostSpeed,
               setup_s: float, peak: float) -> None:
    """Every time is scaled to the nominal host."""
    ok = [reply for reply in phase.replies if reply.status == 200]

    def latencies(source: str) -> List[float]:
        return [speed.scaled(reply.started, reply.ended) * 1000.0
                for reply in ok if source_of(reply) == source]

    misses = latencies("computed")
    hits = latencies("memory")
    accesses = sum(reference.filtered_length(reply.cell)
                   for reply in ok if source_of(reply) == "computed")
    wall = speed.scaled(phase.started, phase.ended)
    result.put("setup_s", setup_s, 1 + SETUP_REPEATS)
    result.put("accesses_per_s", accesses / wall, len(misses))
    result.put("rps", len(ok) / wall, len(ok))
    result.put("miss_p50_ms", percentile(misses, 0.5), len(misses))
    result.put("miss_p90_ms", percentile(misses, 0.9), len(misses))
    result.put("hit_p50_ms", percentile(hits, 0.5), len(hits))
    result.notes.append(f"hit p90 {percentile(hits, 0.9):.6g} ms (n={len(hits)}; "
                        "printed, not a metric: too noisy to gate)")
    result.put("success_rate", len(ok) / result.attempted, result.attempted)
    result.put("peak_rss_mb", peak, 1)
    result.notes.append(
        f"closed loop, one client, {phase.wall:.2f} host s ({wall:.2f} nominal s): "
        f"{len(misses)} computed, {len(hits)} memory hits, "
        f"{len(ok) - len(misses) - len(hits)} other; unscaled rps {len(ok) / phase.wall:.6g}"
    )
    if len(misses) < MISS_FLOOR or len(hits) < HIT_FLOOR:
        result.notes.append(f"below the sample floors of {MISS_FLOOR} misses and "
                            f"{HIT_FLOOR} hits: lengthen --seconds")


def per_layer(result: Result, phases: List[Phase], reference: InProcess, spans_path: Path,
              supervised: bool) -> None:
    plain, traced = phases
    before, after = traced.before, traced.after
    ok = [reply for reply in traced.replies if reply.status == 200]
    computed = [reply for reply in ok if source_of(reply) == "computed"]
    n = max(len(computed), 1)
    spans: List[Dict[str, Any]] = []
    counts: Dict[str, float] = {}
    for line in spans_path.read_text().splitlines():
        record = json.loads(line)
        if "counts" in record:
            counts = record["counts"]
        else:
            spans.append(record)
    times = self_times(spans)

    for layer, metric in LAYER_TIMES.items():
        if layer in times:
            result.put(metric, times[layer] / n, len(computed))
    result.put("workloads.gen_s", times.get("workloads.gen", 0.0), len(computed))
    for engine in ("vectorized", "reference"):
        layer = f"engine.{engine}"
        busy = times.get(layer, 0.0)
        result.put(f"{layer}.cells", counts.get(f"{layer}.cells", 0), len(computed))
        result.put(f"{layer}.accesses_per_s",
                   counts.get(f"{layer}.accesses", 0) / busy if busy else 0.0,
                   int(counts.get(f"{layer}.cells", 0)))
    result.put("stackdist.passes", counts.get("stackdist.passes", 0), len(computed))
    result.put("stackdist.covered_ratio",
               sum((reply.body or {}).get("engine") == "stackdist" for reply in computed) / n,
               len(computed))
    for name, key in (("core.accesses", "accesses"), ("core.misses", "misses"),
                      ("core.bytes_fetched", "bytes_fetched")):
        result.put(name, sum(reply.body["stats"][key] for reply in computed), len(computed))

    edge = [reply.latency_ms - reply.body["elapsed_ms"] for reply in ok]
    result.put("service.app.edge_ms", percentile(edge, 0.5), len(edge))
    for stage in ("queue", "prepare", "simulate"):
        result.put(f"service.simulator.{stage}_ms", stage_mean_ms(before, after, stage),
                   len(computed))
    result.put("service.simulator.coalesced",
               _delta(before, after, "repro_service_coalesced_total"), len(ok))
    result.put("service.simulator.rejected",
               _delta(before, after, "repro_service_rejected_total"), len(ok))
    hits = _delta(before, after, 'repro_service_cache_lookups_total{outcome="memory"}') + \
        _delta(before, after, 'repro_service_cache_lookups_total{outcome="disk"}')
    lookups = _delta(before, after, "repro_service_cache_lookups_total")
    result.put("service.cache.hit_ratio", hits / lookups if lookups else 0.0, int(lookups))
    kernel = [reference.run_cell_ms[reply.cell] for reply in computed]
    result.put("engine.run_cell_ms", percentile(kernel, 0.5), len(kernel))
    if supervised:
        mean_kernel = sum(kernel) / len(kernel)
        result.put("service.supervisor.overhead_ms",
                   stage_mean_ms(before, after, "simulate") - mean_kernel, len(kernel))
        result.put("service.supervisor.worker_restarts",
                   _delta(before, after, "repro_service_worker_restarts_total"), len(ok))
        result.notes.append("spans inside supervised worker processes are not recorded "
                            "(ROADMAP item 2); their engine and trace layers read 0 here")

    def mean_latency(phase: Phase) -> float:
        return sum(reply.latency_ms for reply in phase.replies) / len(phase.replies)

    result.put("trace_overhead_ratio", mean_latency(traced) / mean_latency(plain) - 1.0,
               len(traced.replies))
    zero_fill(result)
    result.notes.append(
        f"traced phase {traced.wall:.2f}s with {len(computed)} computed of {len(ok)} "
        f"replies after an untraced phase of {plain.wall:.2f}s (wrappers installed, "
        "disabled); server layer times are "
        "self seconds per computed reply, counts are totals over the traced phase"
    )
