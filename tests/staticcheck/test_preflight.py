"""Sweep-preflight tests: fail before the checkpoint, warn on the report."""

import copy
import os

import pytest

from repro.core.config import CacheGeometry
from repro.errors import StaticCheckError
from repro.runner.runner import RunnerConfig, run_sweep
from repro.staticcheck import preflight_sweep
from repro.workloads.suites import suite_trace

GEOMS = [CacheGeometry(net_size=64, block_size=8, sub_block_size=8)]


@pytest.fixture(scope="module")
def trace():
    return suite_trace("pdp11", "SIMP", length=500)


class TestPreflightFunction:
    def test_clean_sweep_yields_no_findings(self, trace):
        assert preflight_sweep([trace], GEOMS) == []

    def test_bad_replacement_is_an_error(self, trace):
        with pytest.raises(StaticCheckError) as excinfo:
            preflight_sweep([trace], GEOMS, replacement="lrru")
        assert [d.rule for d in excinfo.value.diagnostics] == [
            "policy-unknown-replacement"
        ]

    def test_duplicate_trace_names_are_an_error(self, trace):
        twin = copy.copy(trace)
        with pytest.raises(StaticCheckError) as excinfo:
            preflight_sweep([trace, twin], GEOMS)
        assert [d.rule for d in excinfo.value.diagnostics] == [
            "sweep-duplicate-cell"
        ]

    def test_load_forward_single_sub_is_a_warning(self, trace):
        findings = preflight_sweep([trace], GEOMS, fetch="load-forward")
        assert [d.rule for d in findings] == ["fetch-lf-single-sub"]

    def test_non_strict_returns_errors_instead_of_raising(self, trace):
        findings = preflight_sweep(
            [trace], GEOMS, replacement="lrru", strict=False
        )
        assert [d.rule for d in findings] == ["policy-unknown-replacement"]


class TestRunnerIntegration:
    def test_rejected_before_checkpoint_io(self, trace, tmp_path):
        # The seeded failure mode: a misspelled policy used to fail the
        # first cell *after* the checkpoint file had been truncated.
        checkpoint = tmp_path / "ck.jsonl"
        with pytest.raises(StaticCheckError):
            run_sweep(
                [trace], GEOMS, replacement="lrru",
                config=RunnerConfig(checkpoint=checkpoint),
            )
        assert not os.path.exists(checkpoint)

    def test_rejected_even_in_lenient_mode(self, trace):
        # Lenient mode degrades per-cell failures; a sweep that cannot
        # produce a single valid cell must still be refused outright.
        with pytest.raises(StaticCheckError):
            run_sweep(
                [trace], GEOMS, fetch="prefetch-all",
                config=RunnerConfig(lenient=True),
            )

    def test_warnings_land_on_the_report(self, trace):
        points, report = run_sweep([trace], GEOMS, fetch="load-forward")
        assert [d.rule for d in report.preflight] == ["fetch-lf-single-sub"]
        assert points[0].miss_ratio > 0

    def test_preflight_can_be_disabled(self, trace):
        points, report = run_sweep(
            [trace], GEOMS, fetch="load-forward",
            config=RunnerConfig(preflight=False),
        )
        assert report.preflight == []
        assert points[0].miss_ratio > 0

    def test_clean_checkpointed_sweep_still_works(self, trace, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        points, report = run_sweep(
            [trace], GEOMS, config=RunnerConfig(checkpoint=checkpoint)
        )
        assert checkpoint.exists()
        assert report.completed == 1 and report.preflight == []


#: Three shapes sharing (block 16, 32 sets): one pass group.
SHARED_SETS = [
    CacheGeometry(512, 16, 8, associativity=1),
    CacheGeometry(1024, 16, 8, associativity=2),
    CacheGeometry(2048, 16, 8, associativity=4),
]


class TestCoverageMatchesTheRun:
    """The coverage lint's ``covered`` equals the cells a pass answered."""

    @pytest.mark.parametrize(
        "blocker",
        [
            {},
            {"engine": "checked"},
            {"cell_timeout": 30},
            {"max_cell_accesses": 10**9},
        ],
        ids=["none", "checked", "cell_timeout", "max_cell_accesses"],
    )
    def test_covered_equals_stackdist_cells(self, trace, blocker):
        _, report = run_sweep(
            [trace], SHARED_SETS,
            config=RunnerConfig(grid_engine="stackdist", **blocker),
        )
        (coverage,) = [
            d for d in report.preflight if d.rule == "sweep-stackdist-coverage"
        ]
        ran = sum(1 for o in report.outcomes if o.engine == "stackdist")
        assert coverage.data["covered"] == ran
        assert ran == (3 if not blocker else 0)
        assert report.pass_groups == (1 if not blocker else 0)
