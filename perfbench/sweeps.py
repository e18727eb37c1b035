"""The two sweep workloads: ``table7`` and ``design_space``.

Both run :func:`repro.runner.run_sweep` in this process on suite traces
rebuilt from :class:`repro.workloads.suites.TraceSpec` with a seed
offset.  One *round* runs every segment of the workload once on fresh
trace objects (so each sweep pays its own filtering and decode, as a
new CLI run would): the computed cells are the misses.  Each round
then resumes all of its sweeps from their complete checkpoints, as a
re-run after a crash would, a few times: each such resume of the whole
round is one hit sample.  Rounds repeat until ``--seconds`` have
passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from statistics import median

from common import (
    LAYER_TIMES,
    HostSpeed,
    Result,
    make_scratch,
    percentile,
    self_peak_rss_mb,
    spans_path,
    zero_fill,
)
from recorder import Recorder, self_times

from repro.analysis.paper_data import TABLE7
from repro.core.config import CacheGeometry
from repro.core.fetch import make_fetch
from repro.core.misspath import MissPathConfig
from repro.core.replacement import make_replacement
from repro.engine import make_engine, prepare_trace
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.stackdist.engine import run_group_pass
from repro.stackdist.planner import plan_grid
from repro.staticcheck.phases import SamplingConfig
from repro.trace.record import Trace
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import (
    Z8000_FIGURE_TRACES,
    suite_specs,
)

#: Seed offset per ``--seed`` step for the suite trace specs.
SEED_STRIDE = 7919

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Exact cells per segment and round whose full counters are compared
#: with the reference engine (seeded pick).
EXACT_CHECKS = 2

#: Hit samples one run needs: a p90 with ten samples beyond it.
HIT_SAMPLES = 100

#: A hit sample lasts tens of milliseconds, so its scale comes from the
#: two probes that bracket it, not from the probes of the last second.
HIT_PROBE_WINDOW = 0.005


@dataclass(frozen=True)
class Segment:
    """One sweep of a workload: a suite slice, a grid and its options."""

    label: str
    suite: str
    traces: Optional[Tuple[str, ...]]
    length: int
    geometries: Tuple[CacheGeometry, ...]
    fetch: Optional[str] = None
    miss_path: Optional[MissPathConfig] = None
    sample: Optional[SamplingConfig] = None

    @property
    def word_size(self) -> int:
        return get_architecture(self.suite).word_size

    @property
    def options(self) -> Dict[str, Any]:
        """The segment's ``run_sweep`` keyword arguments."""
        return dict(word_size=self.word_size, fetch=self.fetch,
                    miss_path=self.miss_path, sample=self.sample)


def table7_segments(length: int = 10_000) -> List[Segment]:
    """The paper's Table 7: each architecture's published geometries
    over its suite (4-way, LRU, demand, warm start, reads only)."""
    return [
        Segment(
            label=f"table7-{arch}",
            suite=arch,
            traces=Z8000_FIGURE_TRACES if arch == "z8000" else None,
            length=length,
            geometries=tuple(CacheGeometry(n, b, s) for (n, b, s) in sorted(TABLE7[arch])),
        )
        for arch in sorted(TABLE7)
    ]


def design_space_segments(length: int = 20_000) -> List[Segment]:
    """Sweeps the stack-distance passes cannot answer, each over every
    trace of its suite: a cell's cost depends on its seeded trace, and a
    percentile over three traces moved by 20% from one seed to the next."""
    load_forward = tuple(
        CacheGeometry(net, block, sub)
        for net in (256, 1024, 4096)
        for block, sub in ((16, 4), (32, 8))
    )
    chained = tuple(CacheGeometry(net, 16, 8) for net in (512, 2048))
    sampled = (CacheGeometry(512, 16, 4), CacheGeometry(2048, 32, 8))
    return [
        Segment("design-loadforward", "z8000", None, length, load_forward,
                fetch="load-forward"),
        Segment(
            "design-chain", "pdp11", None, length, chained,
            miss_path=MissPathConfig(
                victim_entries=4, stream_buffers=4, stream_depth=4,
                l2_net_size=16_384,
            ),
        ),
        Segment("design-sampled", "vax", None, length, sampled,
                sample=SamplingConfig(interval=500)),
    ]


def build_traces(segment: Segment, seed: int) -> List[Trace]:
    """The segment's suite traces, regenerated with the seed offset."""
    specs = suite_specs(segment.suite)
    if segment.traces is not None:
        by_name = {spec.name: spec for spec in specs}
        specs = [by_name[name] for name in segment.traces]
    return [
        dataclasses.replace(spec, seed=spec.seed + seed * SEED_STRIDE).build(segment.length)
        for spec in specs
    ]


def fresh(trace: Trace) -> Trace:
    """A new trace object over the same arrays (no cached decode)."""
    return Trace(trace.addrs, trace.kinds, trace.sizes, name=trace.name)


@dataclass
class SweepRun:
    """One computed sweep of a segment."""

    segment: Segment
    traces: List[Trace]
    points: List[Any]
    report: Any
    started: float
    ended: float
    checkpoint: Path
    checkpoint_bytes: int

    @property
    def cells(self) -> int:
        return len(self.segment.geometries) * len(self.traces)

    def miss_ms(self, ratio: float = 1.0) -> List[float]:
        """Host time until each computed cell was answered: its own run,
        or the whole stack-distance pass that answered its group (the
        runner books each member an equal share of the pass), times
        ``ratio`` (nominal seconds per host second over the sweep)."""
        members = {
            cell_key(self.segment.geometries[index], trace.name): len(group.geometry_indices)
            for group in pass_plan(self.segment).groups
            for index in group.geometry_indices
            for trace in self.traces
        }
        return [
            outcome.elapsed * 1000.0 * ratio * (members[outcome.key]
                                                if outcome.engine == "stackdist" else 1)
            for outcome in self.report.outcomes if outcome.status.value == "ok"
        ]

    def ratios(self) -> Dict[str, Tuple[float, float, float]]:
        return {
            cell_key(point.geometry, name): tuple(values)
            for point in self.points
            for name, values in point.per_trace.items()
        }


def run_segment(
    segment: Segment,
    base: List[Trace],
    checkpoint: Path,
    recorder: Optional[Recorder] = None,
) -> SweepRun:
    """Compute one sweep on fresh trace objects with a new checkpoint."""
    traces = [fresh(trace) for trace in base]
    if checkpoint.exists():
        checkpoint.unlink()
    sweep = run_sweep if recorder is None else recorder.wrap("runner", run_sweep)
    started = time.monotonic()
    points, report = sweep(traces, list(segment.geometries),
                           config=RunnerConfig(checkpoint=checkpoint), **segment.options)
    ended = time.monotonic()
    return SweepRun(segment, traces, points, report, started, ended, checkpoint,
                    checkpoint.stat().st_size)


def resume_sweep(run: SweepRun, recorder: Optional[Recorder] = None) -> bool:
    """Resume a computed sweep from its complete checkpoint; returns
    whether it answered like the computed sweep."""
    sweep = run_sweep if recorder is None else recorder.wrap("runner", run_sweep)
    resumed, _report = sweep(
        run.traces, list(run.segment.geometries),
        config=RunnerConfig(checkpoint=run.checkpoint, resume=True), **run.segment.options,
    )
    return [p.per_trace for p in resumed] == [p.per_trace for p in run.points]


def pass_plan(segment: Segment) -> Any:
    """The stack-distance pass groups ``run_sweep`` forms for the segment
    under the default ``RunnerConfig``."""
    return plan_grid(
        list(segment.geometries), grid_engine="auto", replacement="lru",
        fetch=segment.fetch, warmup="fill", miss_path=segment.miss_path,
        engine="auto", cell_timeout=None, max_cell_accesses=None,
        injector_active=False,
    )


# -- Output checks (outside the timed region) ----------------------------


def reference_stats(segment: Segment, geometry: CacheGeometry, prepared: Trace,
                    warmup: Any = "fill") -> Any:
    return make_engine("reference").run(
        geometry, prepared,
        replacement=make_replacement("lru"),
        fetch=make_fetch(segment.fetch) if segment.fetch else None,
        word_size=segment.word_size, warmup=warmup, miss_path=segment.miss_path,
    )


def route_stats(segment: Segment, geometry_index: int, prepared: Trace, route: str) -> Any:
    """Re-run one cell through the route the sweep used for it."""
    geometry = segment.geometries[geometry_index]
    if route == "stackdist":
        for group in pass_plan(segment).groups:
            if geometry_index in group.geometry_indices:
                position = group.geometry_indices.index(geometry_index)
                return run_group_pass(
                    prepared, group.block_size, group.num_sets, group.members,
                    word_size=segment.word_size,
                )[position]
        raise LookupError(f"no pass group holds geometry {geometry.label}")
    return make_engine(route).run(
        geometry, prepared,
        replacement=make_replacement("lru"),
        fetch=make_fetch(segment.fetch) if segment.fetch else None,
        word_size=segment.word_size, warmup="fill", miss_path=segment.miss_path,
    )


def check_exact_cell(key: str, route: str, output: Sequence[float], route_counts: dict,
                     reference: Any, word_size: int) -> List[str]:
    """The sweep's ratios and its route's counters against the reference."""
    problems = []
    expected = (
        reference.miss_ratio,
        reference.traffic_ratio(),
        reference.scaled_traffic_ratio(NIBBLE_MODE_BUS, word_size),
    )
    if tuple(output) != expected:
        problems.append(f"{key}: sweep ratios {tuple(output)} != reference {expected}")
    reference_counts = reference.to_dict()
    if route_counts != reference_counts:
        differing = sorted(
            name for name in set(route_counts) | set(reference_counts)
            if route_counts.get(name) != reference_counts.get(name)
        )
        problems.append(f"{key}: {route} counters differ from reference in {differing}")
    return problems


def check_sampled_cell(key: str, record: dict, output: Sequence[float],
                       reference_miss: float) -> List[str]:
    """A sampled cell's interval must contain the reference miss ratio."""
    problems = []
    low, high = record["stats"]["sampled"]["miss_ratio_ci"]
    if not low <= reference_miss <= high:
        problems.append(
            f"{key}: reference miss ratio {reference_miss!r} outside [{low!r}, {high!r}]"
        )
    if record["miss"] != output[0]:
        problems.append(f"{key}: checkpoint miss {record['miss']!r} != sweep {output[0]!r}")
    return problems


def check_round(runs: List[SweepRun], seed: int) -> List[str]:
    """Output checks on one round: a seeded subset of exact cells against
    the reference engine, and every sampled cell's interval."""
    rng = random.Random(seed)
    problems: List[str] = []
    for run in runs:
        segment = run.segment
        outputs = run.ratios()
        routes = {outcome.key: outcome.engine for outcome in run.report.outcomes}
        prepared = {trace.name: prepare_trace(fresh(trace)) for trace in run.traces}
        if segment.sample is not None:
            records = {}
            for line in run.checkpoint.read_text().splitlines():
                record = json.loads(line)
                if record.get("kind") == "cell":
                    records[record["key"]] = record
            for geometry in segment.geometries:
                for name, trace in prepared.items():
                    key = cell_key(geometry, name)
                    truth = reference_stats(segment, geometry, trace, warmup=0).miss_ratio
                    problems += check_sampled_cell(key, records[key], outputs[key], truth)
            continue
        cells = [(gi, name) for gi in range(len(segment.geometries)) for name in prepared]
        for gi, name in rng.sample(cells, min(EXACT_CHECKS, len(cells))):
            geometry = segment.geometries[gi]
            key = cell_key(geometry, name)
            reference = reference_stats(segment, geometry, prepared[name])
            route = routes[key]
            counts = route_stats(segment, gi, prepared[name], route).to_dict()
            problems += check_exact_cell(key, route, outputs[key], counts, reference,
                                         segment.word_size)
    return problems


# -- The workload --------------------------------------------------------


Window = Tuple[float, float]  # two time.monotonic() readings


@dataclass
class Round:
    """Every segment computed once, then the round's hit samples: each a
    resume of all its sweeps once."""

    runs: List[SweepRun]
    started: float
    ended: float = 0.0
    traced: bool = False
    resumes: List[Window] = field(default_factory=list)
    resume_mismatches: List[str] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return sum(run.cells for run in self.runs)

    def resume(self, recorder: Optional[Recorder] = None,
               speed: Optional[HostSpeed] = None) -> None:
        """Resume every sweep of the round once: one hit sample, between
        two host-speed probes when a ``speed`` is given."""
        if speed is not None:
            speed.probe()
        started = time.monotonic()
        for run in self.runs:
            if not resume_sweep(run, recorder):
                self.resume_mismatches.append(run.segment.label)
        self.resumes.append((started, time.monotonic()))
        if speed is not None:
            speed.probe()
        self.ended = time.monotonic()


class SweepWorkload:
    """Set-up, timed rounds, checks and metrics of one sweep workload."""

    def __init__(self, name: str, segments: List[Segment], seed: int) -> None:
        self.name = name
        self.segments = segments
        self.seed = seed
        self.scratch = make_scratch()
        self.base: Dict[str, List[Trace]] = {}
        self.filtered_lengths: Dict[str, int] = {}

    def setup(self) -> Tuple[List[Window], Window]:
        """Generate the traces (several times) and warm every route up
        once; returns the generation windows and the warm-up window."""
        generation = []
        for _ in range(SETUP_REPEATS):
            started = time.monotonic()
            self.base = {seg.label: build_traces(seg, self.seed) for seg in self.segments}
            generation.append((started, time.monotonic()))
        for segment in self.segments:
            self.filtered_lengths[segment.label] = sum(
                len(prepare_trace(fresh(trace))) for trace in self.base[segment.label]
            )
        started = time.monotonic()
        for segment in self.segments:
            resume_sweep(run_segment(segment, self.base[segment.label][:1],
                                     self.scratch / f"{segment.label}-warm.jsonl"))
        return generation, (started, time.monotonic())

    def round(self, index: int, recorder: Optional[Recorder] = None) -> List[SweepRun]:
        return [
            run_segment(segment, self.base[segment.label],
                        self.scratch / f"{segment.label}-{index}.jsonl", recorder)
            for segment in self.segments
        ]

    def timed(self, seconds: float, recorder: Optional[Recorder] = None,
              speed: Optional[HostSpeed] = None) -> List[Round]:
        """Rounds until ``seconds`` have passed.  The first round's time
        fixes the hit samples per round, so that the run's samples reach
        ``HIT_SAMPLES`` spread over the whole run.  With a ``speed``, time
        is nominal time, so the rounds and that mix are the same however
        fast the host runs.  With a recorder, the rounds
        alternate between untraced and traced (at least one each), so both
        halves see the same host conditions."""
        def clock(start: float, end: float) -> float:
            return end - start if speed is None else speed.scaled(start, end)

        rounds: List[Round] = []
        least = 1 if recorder is None else 2
        resumes = 0
        started = time.monotonic()
        while len(rounds) < least or clock(started, time.monotonic()) < seconds:
            traced = recorder is not None and len(rounds) % 2 == 1
            if recorder is not None:
                recorder.enabled = traced
            round_started = time.monotonic()
            one = Round(self.round(len(rounds), recorder), round_started, traced=traced)
            one.ended = time.monotonic()
            if not resumes:
                computed = clock(round_started, one.ended)
                resumes = min(HIT_SAMPLES, math.ceil(HIT_SAMPLES * computed / seconds))
            for _ in range(resumes):
                one.resume(recorder, speed)
            rounds.append(one)
        if recorder is not None:
            recorder.enabled = False
        return rounds

    def check(self, rounds: List[Round], result: Result) -> None:
        for one in rounds:
            for label in one.resume_mismatches:
                result.mismatch(f"{label}: a resumed sweep answered differently "
                                "from the computed sweep")
        first = rounds[0].runs
        for later in rounds[1:]:
            for a, b in zip(first, later.runs):
                if a.ratios() != b.ratios():
                    result.mismatch(f"{a.segment.label}: rounds answered differently")
        for problem in check_round(first, self.seed):
            result.mismatch(problem)

    def end_to_end(self, seconds: float) -> Result:
        """The timed run; every time is scaled to the nominal host."""
        result = Result(self.name)
        speed = HostSpeed()
        with speed.ticking():
            generation, warm = self.setup()
            rounds = self.timed(seconds, speed=speed)
            while sum(len(one.resumes) for one in rounds) < HIT_SAMPLES:
                rounds[-1].resume(speed=speed)
        result.notes.append(speed.note())
        peak = self_peak_rss_mb()
        runs = [run for one in rounds for run in one.runs]
        computed = sum(speed.scaled(run.started, run.ended) for run in runs)
        wall = sum(speed.scaled(one.started, one.ended) for one in rounds)
        miss_ms = [ms for run in runs
                   for ms in run.miss_ms(speed.ratio(run.started, run.ended))]
        hit_ms = [speed.scaled(*window, window=HIT_PROBE_WINDOW) * 1000.0 / one.cells
                  for one in rounds for window in one.resumes]
        computed_cells = sum(len(run.report.outcomes) for run in runs)
        resumed_cells = sum(len(one.resumes) * one.cells for one in rounds)
        failed = sum(
            1 for run in runs for outcome in run.report.outcomes
            if outcome.status.value != "ok"
        )
        accesses = sum(
            len(run.segment.geometries) * self.filtered_lengths[run.segment.label]
            for run in runs
        )
        result.attempted = computed_cells + resumed_cells
        result.failed = failed
        setup_s = median(speed.scaled(*window) for window in generation) + speed.scaled(*warm)
        result.put("setup_s", setup_s, 1 + SETUP_REPEATS)
        result.put("accesses_per_s", accesses / computed, len(runs))
        result.put("rps", result.attempted / wall, result.attempted)
        result.put("miss_p50_ms", percentile(miss_ms, 0.5), len(miss_ms))
        result.put("miss_p90_ms", percentile(miss_ms, 0.9), len(miss_ms))
        result.put("hit_p50_ms", percentile(hit_ms, 0.5), len(hit_ms))
        result.notes.append(f"hit p90 {percentile(hit_ms, 0.9):.6g} ms (n={len(hit_ms)}; "
                            "printed, not a metric: too noisy to gate)")
        result.put("success_rate", (result.attempted - failed) / result.attempted,
                   result.attempted)
        result.put("peak_rss_mb", peak, 1)
        host_wall = sum(one.ended - one.started for one in rounds)
        host_computed = sum(run.ended - run.started for run in runs)
        result.notes.append(
            f"{len(rounds)} rounds in {host_wall:.2f} host s ({wall:.2f} nominal s); "
            f"unscaled accesses_per_s {accesses / host_computed:.6g}; miss = computed cell "
            f"(time until answered: its own run or its whole pass, n = cells); hit = every "
            f"sweep of a round resumed once from its checkpoint, time per cell "
            f"(n = such resumes)"
        )
        self.check(rounds, result)
        return result

    def per_layer(self, seconds: float) -> Result:
        result = Result(self.name)
        generation, _warm = self.setup()
        recorder = Recorder(f"{self.name}-{self.seed}")
        recorder.install()
        try:
            rounds = self.timed(seconds, recorder)
        finally:
            recorder.uninstall()
        recorder.write_jsonl(str(spans_path(self.name, self.seed)))
        traced = [one for one in rounds if one.traced]
        plain = [one for one in rounds if not one.traced]
        n = len(traced)
        times = self_times(recorder.spans)
        counts = recorder.counts
        runs = [run for one in traced for run in one.runs]
        outcomes = [outcome for run in runs for outcome in run.report.outcomes]

        def per_round(name: str, value: float) -> None:
            result.put(name, value / n, n)

        result.put("workloads.gen_s", median(end - start for start, end in generation),
                   SETUP_REPEATS)
        for layer, metric in LAYER_TIMES.items():
            per_round(metric, times.get(layer, 0.0))
        for engine in ("vectorized", "reference"):
            layer = f"engine.{engine}"
            per_round(f"{layer}.cells", counts.get(f"{layer}.cells", 0))
            busy = times.get(layer, 0.0)
            result.put(f"{layer}.accesses_per_s",
                       counts.get(f"{layer}.accesses", 0) / busy if busy else 0.0,
                       int(counts.get(f"{layer}.cells", 0)))
        per_round("stackdist.passes", counts.get("stackdist.passes", 0))
        result.put("stackdist.covered_ratio",
                   sum(o.engine == "stackdist" for o in outcomes) / len(outcomes),
                   len(outcomes))
        total = counts.get("engine.sampled.total", 0)
        result.put("engine.sampled.simulated_fraction",
                   counts.get("engine.sampled.simulated", 0) / total if total else 0.0,
                   int(counts.get("engine.sampled.cells", 0)))
        per_round("runner.checkpoint.records", counts.get("runner.checkpoint.records", 0))
        per_round("runner.checkpoint.bytes", sum(run.checkpoint_bytes for run in runs))
        per_round("runner.retried", sum(o.attempts > 1 for o in outcomes))
        per_round("runner.skipped", sum(o.status.value != "ok" for o in outcomes))
        for name in ("core.accesses", "core.misses", "core.bytes_fetched",
                     "core.misspath.memory_bytes"):
            per_round(name, counts.get(name, 0))
        plain_wall = median(one.ended - one.started for one in plain)
        traced_wall = median(one.ended - one.started for one in traced)
        result.put("trace_overhead_ratio", traced_wall / plain_wall - 1.0, len(rounds))
        zero_fill(result)
        result.attempted = len(outcomes) + sum(
            len(one.resumes) * one.cells for one in traced
        )
        result.failed = sum(o.status.value != "ok" for o in outcomes)
        result.notes.append(
            f"{n} traced rounds (median {traced_wall:.2f}s) alternating with {len(plain)} "
            f"untraced (median {plain_wall:.2f}s), wrappers installed throughout; layer "
            f"times are self seconds per traced round; core.* are exact per-round counts; "
            f"service.* do no work here (0)"
        )
        self.check(rounds, result)
        return result


def table7(seed: int) -> SweepWorkload:
    return SweepWorkload("table7", table7_segments(), seed)


def design_space(seed: int) -> SweepWorkload:
    return SweepWorkload("design_space", design_space_segments(), seed)

