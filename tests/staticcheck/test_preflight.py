"""Sweep-preflight tests: fail before the checkpoint, warn on the report."""

import copy
import os

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.errors import StaticCheckError
from repro.runner.runner import RunnerConfig, run_sweep
from repro.staticcheck import preflight_sweep
from repro.staticcheck.configlint import lint_stackdist_coverage
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

    @pytest.mark.parametrize(
        "axes, rule",
        [
            ({"miss_path": {"victim_entires": 4}}, "misspath-unknown-key"),
            ({"sample": "0"}, "sample-interval-invalid"),
            ({"warmup": None}, "sweep-bad-warmup"),
            ({"replacement": None}, "policy-unknown-replacement"),
            ({"engine": "foo"}, "policy-unknown-engine"),
            ({"engine": None}, "policy-unknown-engine"),
            ({"word_size": 0}, "sweep-bad-word-size"),
            ({"word_size": 2.5}, "sweep-bad-word-size"),
            ({"word_size": True}, "sweep-bad-word-size"),
        ],
    )
    def test_malformed_axis_names_its_rule(self, trace, axes, rule):
        # The axes are linted before CellSpec.of coerces them, so the
        # sweep fails as the service does: with the rule id.  The
        # engine axis arrives through the runner config.
        axes = dict(axes)
        config = RunnerConfig(engine=axes.pop("engine", "auto"))
        with pytest.raises(StaticCheckError) as excinfo:
            run_sweep([trace], GEOMS, config=config, **axes)
        assert rule in {d.rule for d in excinfo.value.diagnostics}

    def test_warnings_land_on_the_report(self, trace):
        points, report = run_sweep([trace], GEOMS, fetch="load-forward")
        assert [d.rule for d in report.preflight] == ["fetch-lf-single-sub"]
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
    """The coverage lint (``repro lint --sweep-coverage``) reports, for
    the same axes, exactly the cells a run answers from passes; a cell
    timeout blocks no pass.  The preflight itself stays quiet about
    coverage."""

    @pytest.mark.parametrize(
        "knobs, blocked",
        [
            ({}, False),
            ({"engine": "checked"}, True),
            ({"cell_timeout": 30}, False),
        ],
        ids=["none", "checked", "cell_timeout"],
    )
    def test_covered_equals_stackdist_cells(self, trace, knobs, blocked):
        config = RunnerConfig(**knobs)
        _, report = run_sweep([trace], SHARED_SETS, config=config)
        coverage, *fallbacks = lint_stackdist_coverage(
            SHARED_SETS, spec=CellSpec.of(None, engine=config.engine)
        )
        assert coverage.rule == "sweep-stackdist-coverage"
        assert [f.data["cells"] for f in fallbacks] == ([3] if blocked else [])
        assert report.preflight == []
        ran = sum(1 for o in report.outcomes if o.engine == "stackdist")
        assert coverage.data["covered"] == ran
        assert ran == (0 if blocked else 3)
        assert report.pass_groups == (0 if blocked else 1)
