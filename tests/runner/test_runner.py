"""Resilient-runner integration tests: resume, retry, degradation."""

import math

import pytest

from repro.analysis.sweep import sweep
from repro.core.config import CacheGeometry
from repro.errors import (
    CellTimeoutError,
    ConfigurationError,
    ReproError,
    TransientError,
)
from repro.runner.chaos import points_digest
from repro.runner.faults import FaultInjector, SweepAborted
from repro.runner.retry import RetryPolicy
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.trace.record import Trace

NO_SLEEP = staticmethod(lambda seconds: None)


def constant_trace(addr, n=200, name="const"):
    return Trace([addr] * n, [0] * n, 2, name=name)


def striding_trace(n=200, name="cold"):
    return Trace([i * 64 for i in range(n)], [0] * n, 2, name=name)


@pytest.fixture
def traces():
    return [constant_trace(0x100, name="hot"), striding_trace(name="cold")]


@pytest.fixture
def geometries():
    return [
        CacheGeometry(64, 16, 16),
        CacheGeometry(64, 16, 8),
        CacheGeometry(128, 16, 8),
    ]


class TestInertConfig:
    def test_default_config_matches_plain_sweep(self, traces, geometries):
        plain = sweep(traces, geometries, word_size=2, warmup=0)
        resilient, report = run_sweep(
            traces, geometries, word_size=2, warmup=0, config=RunnerConfig()
        )
        assert points_digest(plain) == points_digest(resilient)
        assert report.total == len(traces) * len(geometries)
        assert not report.skipped

    def test_engine_keyword_is_refused_with_the_config_to_use(
        self, traces, geometries
    ):
        with pytest.raises(ConfigurationError, match=r"RunnerConfig\(engine="):
            run_sweep(traces, geometries, engine="reference")


class TestCheckpointResume:
    def test_killed_sweep_resumes_bit_identically(self, traces, geometries, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        baseline, _ = run_sweep(traces, geometries, word_size=2, warmup=0)

        with pytest.raises(SweepAborted):
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(
                    checkpoint=ck, injector=FaultInjector(abort_after=3)
                ),
            )
        resumed, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(checkpoint=ck, resume=True),
        )
        assert report.resumed == 3
        assert points_digest(resumed) == points_digest(baseline)

    def test_resume_without_checkpoint_file_runs_everything(
        self, traces, geometries, tmp_path
    ):
        baseline, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(checkpoint=tmp_path / "new.jsonl", resume=True),
        )
        assert report.resumed == 0
        assert points_digest(points) == points_digest(baseline)

    def test_previously_skipped_cells_stay_skipped_on_resume(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "sweep.jsonl"
        run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(
                checkpoint=ck, lenient=True,
                injector=FaultInjector(
                    error_cells=("*/cold",), fail_attempts=None
                ),
                sleep=lambda s: None,
            ),
        )
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(checkpoint=ck, resume=True, lenient=True),
        )
        assert all(point.skipped_traces == ("cold",) for point in points)
        assert len(report.skipped) == len(geometries)

    def test_for_tag_derives_disjoint_checkpoints(self, tmp_path):
        config = RunnerConfig(checkpoint=tmp_path / "ck.jsonl")
        assert config.for_tag("net64").checkpoint == tmp_path / "ck.net64.jsonl"
        assert RunnerConfig().for_tag("net64").checkpoint is None


class TestRetry:
    def test_transient_cell_recovers_and_results_are_unchanged(
        self, traces, geometries
    ):
        baseline, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        flaky = cell_key(geometries[1], "hot")
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(
                retry=RetryPolicy(max_retries=2),
                injector=FaultInjector(
                    error_cells=(flaky,), error_at=10, fail_attempts=2
                ),
                sleep=lambda s: None,
            ),
        )
        assert report.retried == 1
        assert points_digest(points) == points_digest(baseline)

    def test_retries_stop_after_the_budget(self, traces, geometries):
        injector = FaultInjector(
            error_cells=("*",), error_at=0, fail_attempts=None
        )
        with pytest.raises(TransientError):
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(
                    retry=RetryPolicy(max_retries=3),
                    injector=injector,
                    sleep=lambda s: None,
                ),
            )
        first = cell_key(geometries[0], "hot")
        assert injector._attempts[first] == 4  # 1 try + 3 retries


class TestGracefulDegradation:
    def test_partial_average_matches_hand_computed_value(
        self, traces, geometries
    ):
        # Hand computation: with "cold" failing, the suite average over
        # the survivors is exactly the per-trace value of "hot".
        clean, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(
                lenient=True,
                injector=FaultInjector(
                    error_cells=("*/cold",), fail_attempts=None
                ),
                sleep=lambda s: None,
            ),
        )
        for point, reference in zip(points, clean):
            hot_miss, hot_traffic, hot_scaled = reference.per_trace["hot"]
            assert point.miss_ratio == hot_miss
            assert point.traffic_ratio == hot_traffic
            assert point.scaled_traffic_ratio == hot_scaled
            assert point.skipped_traces == ("cold",)
            assert list(point.per_trace) == ["hot"]
        assert set(report.skipped_by_trace()) == {"cold"}
        assert all("TransientError" in o.reason for o in report.skipped)

    def test_all_cells_failing_yields_nan_point(self, traces, geometries):
        points, _ = run_sweep(
            traces, [geometries[0]], word_size=2, warmup=0,
            config=RunnerConfig(
                lenient=True,
                injector=FaultInjector(error_cells=("*",), fail_attempts=None),
                sleep=lambda s: None,
            ),
        )
        assert math.isnan(points[0].miss_ratio)
        assert points[0].skipped_traces == ("hot", "cold")

    def test_strict_mode_propagates_the_failure(self, traces, geometries):
        with pytest.raises(TransientError):
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(
                    injector=FaultInjector(
                        error_cells=("*/cold",), fail_attempts=None
                    ),
                ),
            )


class TestBudgets:
    def test_wall_clock_timeout_skips_a_stalled_cell(self, traces, geometries):
        stalled = cell_key(geometries[0], "hot")
        points, report = run_sweep(
            traces, [geometries[0]], word_size=2, warmup=0,
            config=RunnerConfig(
                lenient=True,
                cell_timeout=0.02,
                injector=FaultInjector(
                    stall_cells=(stalled,), stall_seconds=0.001
                ),
            ),
        )
        assert [o.key for o in report.skipped] == [stalled]
        assert report.skipped[0].reason == (
            f"CellTimeoutError: cell {stalled}: wall-clock timeout"
        )
        assert points[0].skipped_traces == ("hot",)

    def test_expired_budget_fails_a_strict_sweep(self, traces, geometries):
        with pytest.raises(CellTimeoutError, match="wall-clock timeout"):
            run_sweep(
                traces, [geometries[0]], word_size=2, warmup=0,
                config=RunnerConfig(cell_timeout=0.0, engine="vectorized"),
            )

    def test_generous_budgets_change_nothing(self, traces, geometries):
        baseline, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        points, _ = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(cell_timeout=60.0),
        )
        assert points_digest(points) == points_digest(baseline)


class TestHealthBreaker:
    def test_long_failure_streak_aborts_even_in_lenient_mode(
        self, traces, geometries
    ):
        with pytest.raises(ReproError, match="consecutive"):
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(
                    lenient=True,
                    max_consecutive_failures=3,
                    injector=FaultInjector(
                        error_cells=("*",), fail_attempts=None
                    ),
                    sleep=lambda s: None,
                ),
            )

    def test_abort_message_names_the_streak_limit_and_last_failure(
        self, traces, geometries
    ):
        with pytest.raises(ReproError) as excinfo:
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(
                    lenient=True,
                    max_consecutive_failures=3,
                    injector=FaultInjector(
                        error_cells=("*",), fail_attempts=None
                    ),
                    sleep=lambda s: None,
                ),
            )
        assert str(excinfo.value) == (
            "aborting sweep: 3 consecutive cell failures (health limit 3); "
            "last failure at 64:16,8@4/hot: TransientError: injected fault "
            "at access 0 of trace 'hot'"
        )
