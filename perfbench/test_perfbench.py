"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import common  # noqa: E402
import recorder  # noqa: E402
import serving  # noqa: E402
import sweeps  # noqa: E402

from repro.core.config import CacheGeometry  # noqa: E402
from repro.core.misspath import MissPathConfig  # noqa: E402
from repro.staticcheck.phases import SamplingConfig  # noqa: E402


@pytest.fixture(autouse=True)
def in_tmp_checkout(tmp_path, monkeypatch):
    """Run every test from a scratch directory holding only ``src``."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    yield tmp_path
    common.remove_scratch()


TINY = [
    sweeps.Segment("tiny-lru", "pdp11", ("ED", "PLOT"), 600,
                   (CacheGeometry(256, 16, 4), CacheGeometry(256, 16, 8))),
    sweeps.Segment("tiny-chain", "pdp11", ("ED",), 600, (CacheGeometry(256, 16, 8),),
                   miss_path=MissPathConfig(victim_entries=2)),
    sweeps.Segment("tiny-sampled", "vax", ("troff",), 2_000, (CacheGeometry(512, 16, 4),),
                   sample=SamplingConfig(interval=200)),
]


def tiny_sweeps(monkeypatch, seed: int = 0) -> sweeps.SweepWorkload:
    monkeypatch.setattr(sweeps, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sweeps, "EXACT_CHECKS", 4)
    return sweeps.SweepWorkload("tiny", list(TINY), seed)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def emitted(result: common.Result, names) -> dict:
    out = io.StringIO()
    result.emit(names, out=out)
    text = out.getvalue()
    for name, unit in names:
        assert any(line.split()[1:2] == [name] and f" {unit} (n=" in line
                   for line in text.splitlines()), name
    return last_json(text)


# -- Every named metric is emitted with its unit -------------------------


def test_sweep_emits_every_metric_with_its_unit(monkeypatch):
    workload = tiny_sweeps(monkeypatch)
    summary = emitted(workload.end_to_end(0.01), common.END_TO_END)
    assert summary["correct"] and summary["failed"] == 0
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == dict(common.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())

    layers = emitted(workload.per_layer(0.01), common.PER_LAYER)
    assert {name: m["unit"] for name, m in layers["metrics"].items()} == dict(common.PER_LAYER)
    values = {name: m["value"] for name, m in layers["metrics"].items()}
    assert values["stackdist.passes"] > 0
    assert values["engine.reference.cells"] > 0 and values["engine.sampled.run_s"] > 0
    assert values["core.accesses"] == int(values["core.accesses"]) > 0
    assert values["service.simulator.simulate_ms"] == 0


def test_serve_emits_every_metric_with_its_unit(monkeypatch):
    monkeypatch.setattr(serving, "QUERY_LENGTH", 1_000)
    monkeypatch.setattr(serving, "HIT_SET", 2)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    summary = emitted(serving.run("serve", 0, 1.0, traced=False), common.END_TO_END)
    assert summary["correct"] and summary["failed"] == 0
    layers = emitted(serving.run("serve", 0, 1.0, traced=True), common.PER_LAYER)
    values = {name: m["value"] for name, m in layers["metrics"].items()}
    assert values["engine.run_cell_ms"] > 0 and values["service.simulator.simulate_ms"] > 0
    assert values["engine.vectorized.cells"] > 0
    assert values["service.cache.hit_ratio"] > 0.5


def test_command_fails_without_the_program(in_tmp_checkout):
    bare = in_tmp_checkout / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "correct" not in done.stdout


# -- A corrupted output trips the check ----------------------------------


def test_corrupted_sweep_cell_trips_the_check(monkeypatch):
    workload = tiny_sweeps(monkeypatch)
    workload.setup()
    runs = workload.round(0)
    assert sweeps.check_round(runs, seed=0) == []

    point = runs[0].points[0]
    name = next(iter(point.per_trace))
    miss, traffic, scaled = point.per_trace[name]
    point.per_trace[name] = (miss + 1e-12, traffic, scaled)
    problems = sweeps.check_round(runs, seed=0)
    assert len(problems) == 1 and "sweep ratios" in problems[0]


def test_resumed_sweep_must_answer_like_the_computed_one(monkeypatch):
    workload = tiny_sweeps(monkeypatch)
    workload.setup()
    one = sweeps.Round(workload.round(0), 0.0)
    one.resume()
    assert one.resume_mismatches == [] and len(one.resumes) == 1

    point = one.runs[0].points[0]
    name = next(iter(point.per_trace))
    miss, traffic, scaled = point.per_trace[name]
    point.per_trace[name] = (miss + 1e-12, traffic, scaled)
    one.resume()
    assert one.resume_mismatches == [one.runs[0].segment.label]


def test_pass_answered_cells_wait_for_the_whole_pass(monkeypatch):
    workload = tiny_sweeps(monkeypatch)
    workload.setup()
    run = workload.round(0)[0]
    assert {outcome.engine for outcome in run.report.outcomes} == {"stackdist"}
    # Both geometries of the tiny LRU segment share one pass per trace.
    shares = [outcome.elapsed * 1000.0 for outcome in run.report.outcomes]
    assert run.miss_ms() == [2 * share for share in shares]


def test_sampled_interval_must_hold_the_reference():
    record = {"miss": 0.25, "stats": {"sampled": {"miss_ratio_ci": [0.2, 0.3]}}}
    assert sweeps.check_sampled_cell("k", record, (0.25, 0, 0), 0.29) == []
    assert sweeps.check_sampled_cell("k", record, (0.25, 0, 0), 0.31)
    assert sweeps.check_sampled_cell("k", record, (0.26, 0, 0), 0.29)


def test_corrupted_counter_trips_the_check():
    segment = TINY[0]
    trace = sweeps.prepare_trace(sweeps.build_traces(segment, 0)[0])
    reference = sweeps.reference_stats(segment, segment.geometries[0], trace)
    output = (reference.miss_ratio, reference.traffic_ratio(),
              reference.scaled_traffic_ratio(sweeps.NIBBLE_MODE_BUS, segment.word_size))
    counts = reference.to_dict()
    assert sweeps.check_exact_cell("k", "vectorized", output, counts, reference, 2) == []
    counts["evictions"] += 1
    problems = sweeps.check_exact_cell("k", "vectorized", output, counts, reference, 2)
    assert problems and "evictions" in problems[0]


def test_corrupted_response_trips_the_check(monkeypatch):
    monkeypatch.setattr(serving, "QUERY_LENGTH", 1_000)
    cell = ("pdp11", "ED", 256, 16, 8, 4)
    expected = serving.InProcess().expected(cell)
    good = {
        "source": "computed",
        "fingerprint": "f",
        "result": {
            "miss_ratio": expected.miss_ratio,
            "traffic_ratio": expected.traffic_ratio(),
            "scaled_traffic_ratio": expected.scaled_traffic_ratio(serving.NIBBLE_MODE_BUS, 2),
        },
        "stats": expected.to_dict(),
    }
    miss = serving.Reply("miss", cell, 200, 0.0, 0.001, good)
    assert serving.check_reply(miss, expected, None) == []

    bad = json.loads(json.dumps(good))
    bad["stats"]["misses"] += 1
    assert serving.check_reply(serving.Reply("miss", cell, 200, 0.0, 0.001, bad), expected, None)

    hit = dict(good, source="memory")
    assert serving.check_reply(serving.Reply("hit", cell, 200, 0.0, 0.001, hit), None, good) == []
    stale = dict(bad, source="memory")
    assert serving.check_reply(serving.Reply("hit", cell, 200, 0.0, 0.001, stale), None, good)


# -- The seed changes the inputs -----------------------------------------


def test_seed_changes_sweep_traces():
    segment = dataclasses.replace(TINY[0], traces=("ED",))
    same = [sweeps.build_traces(segment, 3)[0].addrs for _ in range(2)]
    other = sweeps.build_traces(segment, 4)[0].addrs
    assert (same[0] == same[1]).all()
    assert not (len(other) == len(same[0]) and (other == same[0]).all())


def test_seed_changes_query_stream():
    def first(streams, count=12 * (1 + serving.HITS_PER_MISS)):
        stream = streams.queries(0)
        return [next(stream) for _ in range(count)]

    one, again, two = serving.Streams.build(5), serving.Streams.build(5), serving.Streams.build(6)
    assert first(one) == first(again)
    assert first(one) != first(two)
    kinds = [kind for kind, _ in first(one)]
    assert kinds.count("miss") == 12 and kinds[0] == "miss"
    misses = [cell for kind, cell in first(one) if kind == "miss"]
    assert len(set(misses)) == len(misses) and not set(misses) & set(one.warm)


# -- Spans ---------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        {"id": 1, "name": "runner", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "engine", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "decode", "start": 2.0, "end": 3.0, "parent": 2},
        {"id": 4, "name": "engine", "start": 5.0, "end": 6.0, "parent": 1},
    ]
    assert recorder.self_times(spans) == {"runner": 6.0, "engine": 3.0, "decode": 1.0}


def test_wrappers_record_only_when_enabled_and_uninstall():
    from repro.engine.vectorized import VectorizedEngine

    original = VectorizedEngine.__dict__["run"]
    rec = recorder.Recorder("test")
    rec.install()
    try:
        assert VectorizedEngine.__dict__["run"] is not original
        segment = TINY[0]
        trace = sweeps.prepare_trace(sweeps.build_traces(segment, 0)[0])
        sweeps.route_stats(segment, 0, trace, "vectorized")
        assert rec.spans == []
        rec.enabled = True
        started = time.monotonic()
        sweeps.route_stats(segment, 0, trace, "vectorized")
        names = {span["name"] for span in rec.spans}
        assert "engine.vectorized" in names and "engine.traceview.decode" in names
        assert all(span["start"] >= started for span in rec.spans)
        assert rec.counts["engine.vectorized.cells"] == 1
    finally:
        rec.uninstall()
    assert VectorizedEngine.__dict__["run"] is original
    path = Path("spans.jsonl")
    rec.write_jsonl(str(path))
    assert all(set(json.loads(line)) == {"id", "name", "start", "end", "parent", "run"}
               for line in path.read_text().splitlines())
    os.remove(path)


# -- Host speed ----------------------------------------------------------


def test_host_speed_scales_to_the_nominal_host_without_the_probes():
    speed = common.HostSpeed()
    # Two probes at twice the nominal time: the host ran at half speed.
    twice = 2 * common.PROBE_NOMINAL_S
    speed.starts, speed.durations = [10.2, 10.6], [twice, twice]
    speed._spent = [0.0, twice, 2 * twice]
    assert speed.scaled(10.0, 11.0) == pytest.approx((1.0 - 2 * twice) / 2)
    assert speed.ratio(10.0, 11.0) == pytest.approx((1.0 - 2 * twice) / 2)
    # Far from any probe, the median of all probes sets the scale.
    assert speed.scaled(20.0, 20.5) == pytest.approx(0.25)
    speed._probing = True  # a timer tick that lands inside a probe is dropped
    speed.probe()
    assert len(speed.starts) == 2
    speed._probing = False
    with speed.ticking():
        deadline = time.monotonic() + 3 * common.PROBE_INTERVAL
        while time.monotonic() < deadline:
            pass
    assert len(speed.starts) >= 4
