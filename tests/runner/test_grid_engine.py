"""Stack-distance passes in run_sweep: equality, records, resume interop.

Every coverable grid runs on passes under the default engine; an
explicit ``engine=`` runs per cell and is part of the sweep
fingerprint.  A fault injector (one that injects nothing) forces the
per-cell path without changing the fingerprint, which is how these
tests put both paths behind one checkpoint.  A cell timeout forces
nothing: passes honor it.
"""

import json

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec, prepare_trace, run_cell
from repro.runner.chaos import points_digest
from repro.runner.faults import FaultInjector
from repro.runner.runner import RunnerConfig, run_sweep
from repro.stackdist import plan_grid, run_group_pass
from repro.trace.record import Trace

#: The runner config of each path: the default, and an idle fault
#: injector that keeps the sweep (and its fingerprint) but rules out
#: passes.  It wraps no trace, so its cells run vectorized.
PATH_CONFIGS = {"stackdist": {}, "percell": {"injector": FaultInjector()}}
PATH_ENGINES = {"stackdist": "stackdist", "percell": "vectorized"}


def read_trace(n=300, name="reads", stride=12):
    addrs = [(i * stride) % 2048 for i in range(n)]
    return Trace(addrs, [0] * n, 2, name=name)


@pytest.fixture
def traces():
    return [read_trace(name="alpha"), read_trace(name="beta", stride=40)]


@pytest.fixture
def grid():
    """Constant-sets quartet: net co-varies with assoc, one pass group."""
    return [
        CacheGeometry(
            net_size=256 * assoc, block_size=16,
            sub_block_size=8, associativity=assoc,
        )
        for assoc in (1, 2, 4, 8)
    ]


def test_stackdist_points_equal_percell(traces, grid):
    base, base_report = run_sweep(
        traces, grid, config=RunnerConfig(engine="vectorized")
    )
    fast, fast_report = run_sweep(traces, grid, config=RunnerConfig())
    assert points_digest(base) == points_digest(fast)
    for lhs, rhs in zip(base, fast):
        assert lhs.per_trace == rhs.per_trace
    assert base_report.pass_groups == 0
    assert fast_report.pass_groups == 2  # one group per trace
    assert fast_report.by_engine().get("stackdist") == 8


def test_auto_uses_passes_for_groups_of_two_plus(traces, grid):
    points, report = run_sweep(traces, grid, config=RunnerConfig())
    assert report.pass_groups == 2
    assert all(o.engine == "stackdist" for o in report.outcomes)
    summary = report.summary()
    assert "stackdist" in summary and "pass group" in summary


def test_singleton_grid_runs_one_member_passes(traces):
    grid = [CacheGeometry(512, 16, 8), CacheGeometry(1024, 32, 8)]
    points, report = run_sweep(traces, grid, config=RunnerConfig())
    assert report.pass_groups == 4  # one per shape and trace
    assert report.by_engine() == {"stackdist": 4}
    per_cell, _ = run_sweep(
        traces, grid, config=RunnerConfig(engine="vectorized")
    )
    assert points_digest(points) == points_digest(per_cell)
    # Every counter, not only the ratios, matches the per-cell engine.
    spec = CellSpec.of(None)
    for trace in traces:
        prepared = prepare_trace(trace)
        for group in plan_grid(grid, spec=spec).groups:
            ((index,), (member,)) = group.geometry_indices, group.members
            (stats,) = run_group_pass(
                prepared, group.block_size, group.num_sets, (member,),
                word_size=spec.word_size,
            )
            expected = run_cell(
                prepared, CellSpec.of(grid[index], engine="vectorized")
            )
            assert stats.to_dict() == expected.to_dict()


def test_cell_timeout_sweep_answers_from_passes(traces, grid, tmp_path):
    ck = tmp_path / "timed.jsonl"
    baseline, _ = run_sweep(traces, grid)
    points, report = run_sweep(
        traces, grid, config=RunnerConfig(checkpoint=ck, cell_timeout=60.0)
    )
    assert points_digest(points) == points_digest(baseline)
    assert report.pass_groups == 2
    records = [json.loads(line) for line in ck.read_text().splitlines()[1:]]
    assert len(records) == 8
    assert all(record["engine"] == "stackdist" for record in records)


def test_write_traces_fall_back_transparently(grid):
    # filter_writes=False keeps the WRITE accesses, which break LRU
    # inclusion — the pass phase must skip the trace, not mis-answer it.
    n = 200
    writes = Trace(
        [(i * 24) % 1024 for i in range(n)],
        [0, 1] * (n // 2), 2, name="rw",
    )
    base, _ = run_sweep(
        [writes], grid, filter_writes=False,
        config=RunnerConfig(engine="vectorized"),
    )
    fast, report = run_sweep([writes], grid, filter_writes=False)
    assert points_digest(base) == points_digest(fast)
    assert report.pass_groups == 0
    assert "stackdist" not in report.by_engine()


def test_filtered_write_trace_is_coverable(grid):
    # The default filter_writes=True drops writes during preparation,
    # so the prepared trace is read-only and one-pass coverable again.
    n = 200
    writes = Trace(
        [(i * 24) % 1024 for i in range(n)],
        [0, 1] * (n // 2), 2, name="rw",
    )
    _, report = run_sweep([writes], grid)
    assert report.pass_groups == 1
    assert report.by_engine().get("stackdist") == 4


def test_records_carry_engine_and_same_fingerprint(traces, grid, tmp_path):
    ck_fast = tmp_path / "fast.jsonl"
    ck_slow = tmp_path / "slow.jsonl"
    run_sweep(
        traces, grid,
        config=RunnerConfig(checkpoint=ck_fast, **PATH_CONFIGS["stackdist"]),
    )
    run_sweep(
        traces, grid,
        config=RunnerConfig(checkpoint=ck_slow, **PATH_CONFIGS["percell"]),
    )
    fast_lines = [json.loads(line) for line in ck_fast.read_text().splitlines()]
    slow_lines = [json.loads(line) for line in ck_slow.read_text().splitlines()]
    # Same header fingerprint: the path is not part of the sweep's
    # identity, only of how cells were computed.
    assert fast_lines[0]["fingerprint"] == slow_lines[0]["fingerprint"]
    fast_cells = {r["key"]: r for r in fast_lines[1:] if r.get("kind") == "cell"}
    slow_cells = {r["key"]: r for r in slow_lines[1:] if r.get("kind") == "cell"}
    assert fast_cells.keys() == slow_cells.keys()
    for key, record in fast_cells.items():
        assert record["engine"] == "stackdist"
        assert slow_cells[key]["engine"] == PATH_ENGINES["percell"]
        for ratio in ("miss", "traffic", "scaled"):
            assert record[ratio] == slow_cells[key][ratio]


@pytest.mark.parametrize(
    "first, second", [("stackdist", "percell"), ("percell", "stackdist")]
)
def test_resume_interop_across_grid_engines(traces, grid, tmp_path, first, second):
    ck = tmp_path / "sweep.jsonl"
    baseline, _ = run_sweep(traces, grid)
    # Full sweep on one path, then truncate to half the cells to
    # simulate a kill mid-sweep...
    run_sweep(
        traces, grid,
        config=RunnerConfig(checkpoint=ck, **PATH_CONFIGS[first]),
    )
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text("".join(lines[:5]))  # header + 4 cell records
    # ...then the full sweep resumes on the other path.
    points, report = run_sweep(
        traces, grid,
        config=RunnerConfig(checkpoint=ck, resume=True, **PATH_CONFIGS[second]),
    )
    assert report.resumed == 4
    assert points_digest(points) == points_digest(baseline)
    resumed = [o for o in report.outcomes if o.status.value == "resumed"]
    assert all(o.engine == PATH_ENGINES[first] for o in resumed)
