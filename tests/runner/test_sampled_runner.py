"""Sampled sweeps through the resilient runner.

The load-bearing guarantees: the ``--sample`` axis is part of the
checkpoint identity (a sampled sweep can never resume — or be resumed
by — an exact sweep, nor one with different sampling parameters),
sampled cells record clearly-marked ``exact: false`` stats payloads,
and every incompatible axis falls back to exact simulation with
bit-identical results and a named preflight warning.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import CacheGeometry
from repro.errors import ConfigurationError
from repro.runner.chaos import points_digest
from repro.runner.checkpoint import CHECKPOINT_VERSION
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.trace.record import Trace


def looping_trace(n=600, name="loop"):
    addrs = [0x100 + (i % 16) * 2 for i in range(n)]
    return Trace(addrs, [2] * n, 2, name=name)


def striding_trace(n=600, name="cold"):
    return Trace([i * 64 for i in range(n)], [0] * n, 2, name=name)


@pytest.fixture
def traces():
    return [looping_trace(), striding_trace()]


@pytest.fixture
def geometries():
    return [CacheGeometry(128, 16, 8), CacheGeometry(256, 16, 8)]


def run_sampled_sweep(traces, geometries, ck=None, sample="100,2", **kwargs):
    config = RunnerConfig(checkpoint=ck, **kwargs) if ck or kwargs else None
    return run_sweep(
        traces, geometries, word_size=2, warmup=0,
        sample=sample, config=config,
    )


class TestSampledCells:
    def test_cells_run_and_report_the_sampled_engine(
        self, traces, geometries
    ):
        points, report = run_sampled_sweep(traces, geometries)
        assert report.total == len(traces) * len(geometries)
        assert all(o.engine == "sampled" for o in report.outcomes)
        for point in points:
            assert 0.0 <= point.miss_ratio <= 1.0

    def test_checkpoint_records_marked_sampled_stats(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "sampled.jsonl"
        run_sampled_sweep(traces, geometries, ck=ck)
        lines = [json.loads(line) for line in ck.read_text().splitlines()]
        header, cells = lines[0], lines[1:]
        assert header["version"] == CHECKPOINT_VERSION
        assert len(cells) == len(traces) * len(geometries)
        for cell in cells:
            assert cell["engine"] == "sampled"
            marker = cell["stats"]["sampled"]
            assert marker["exact"] is False
            assert marker["sample"]["interval"] == 100
            assert marker["sample"]["k"] == 2

    def test_timed_out_cell_is_skipped_as_a_cell_timeout(
        self, traces, geometries
    ):
        # A zero budget expires before the first interval runs.
        _, report = run_sampled_sweep(
            traces, geometries[:1], cell_timeout=0.0, lenient=True
        )
        keys = [cell_key(geometries[0], trace.name) for trace in traces]
        assert [o.key for o in report.skipped] == keys
        for outcome in report.skipped:
            assert outcome.reason == (
                f"CellTimeoutError: cell {outcome.key}: wall-clock timeout"
            )

    def test_sampled_sweep_is_deterministic(self, traces, geometries):
        one, _ = run_sampled_sweep(traces, geometries)
        two, _ = run_sampled_sweep(traces, geometries)
        assert points_digest(one) == points_digest(two)


class TestFingerprintDisjointness:
    def test_exact_sweep_refuses_a_sampled_checkpoint(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "sampled.jsonl"
        run_sampled_sweep(traces, geometries, ck=ck)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(
                traces, geometries, word_size=2, warmup=0,
                config=RunnerConfig(checkpoint=ck, resume=True),
            )

    def test_sampled_sweep_refuses_an_exact_checkpoint(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "exact.jsonl"
        run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(checkpoint=ck),
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sampled_sweep(traces, geometries, ck=ck, resume=True)

    def test_different_sampling_parameters_never_share_cells(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "sampled.jsonl"
        run_sampled_sweep(traces, geometries, ck=ck, sample="100,2")
        for other in ("100,3", "50,2", "100"):
            with pytest.raises(ConfigurationError, match="different sweep"):
                run_sampled_sweep(
                    traces, geometries, ck=ck, sample=other, resume=True
                )

    def test_sampled_sweep_resumes_itself_bit_identically(
        self, traces, geometries, tmp_path
    ):
        ck = tmp_path / "sampled.jsonl"
        baseline, _ = run_sampled_sweep(traces, geometries, ck=ck)
        resumed, report = run_sampled_sweep(
            traces, geometries, ck=ck, resume=True
        )
        assert report.resumed == len(traces) * len(geometries)
        assert points_digest(resumed) == points_digest(baseline)


class TestNamedFallbacks:
    def test_checked_engine_falls_back_to_exact_results(
        self, traces, geometries
    ):
        exact, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            sample="100,2", config=RunnerConfig(engine="checked"),
        )
        assert points_digest(points) == points_digest(exact)
        assert "sampled" not in {o.engine for o in report.outcomes}
        assert "sample-fallback-checked" in {
            f.rule for f in report.preflight
        }

    def test_injector_falls_back_with_a_named_warning(
        self, traces, geometries
    ):
        from repro.runner.faults import FaultInjector

        exact, _ = run_sweep(traces, geometries, word_size=2, warmup=0)
        points, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            sample="100,2",
            config=RunnerConfig(injector=FaultInjector()),
        )
        assert points_digest(points) == points_digest(exact)
        assert "sample-fallback-injector" in {
            f.rule for f in report.preflight
        }

    def test_fallback_checkpoint_is_the_exact_sweeps_checkpoint(
        self, traces, geometries, tmp_path
    ):
        # A fallen-back sweep *is* an exact sweep; its checkpoint must
        # interoperate with one, not with sampled checkpoints.
        ck = tmp_path / "fallback.jsonl"
        run_sweep(
            traces, geometries, word_size=2, warmup=0,
            sample="100,2",
            config=RunnerConfig(engine="checked", checkpoint=ck),
        )
        resumed, report = run_sweep(
            traces, geometries, word_size=2, warmup=0,
            config=RunnerConfig(
                engine="checked", checkpoint=ck, resume=True
            ),
        )
        assert report.resumed == len(traces) * len(geometries)
