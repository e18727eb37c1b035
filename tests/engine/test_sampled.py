"""Sampled-engine unit tests: estimator, bounds, and the exact marker.

The contract under test (docs/sampling.md): a degenerate whole-trace
plan reproduces the reference engine *bit-identically*; a real plan's
confidence interval covers the true cold miss ratio; and the
serialized payload carries a ``"sampled"`` marker that strict
``CacheStats.from_dict`` rejects, so sampled results can never
masquerade as exact ones.
"""

from __future__ import annotations

import pytest

from repro.core.config import CacheGeometry
from repro.core.replacement import make_replacement
from repro.core.stats import CacheStats
from repro.engine.base import make_engine
from repro.engine.batch import prepare_trace
from repro.engine.sampled import (
    DICT_COUNTERS,
    SCALAR_COUNTERS,
    run_sampled,
    sample_trace,
    verify_sampling,
)
from repro.errors import ConfigurationError
from repro.staticcheck.phases import SamplingConfig, analyze_trace
from repro.workloads.generator import program_trace

GEOMETRY = CacheGeometry(1024, 16, 8, associativity=4)
WORD = 2


@pytest.fixture(scope="module")
def trace():
    return prepare_trace(program_trace("matmul", 8000, word_size=WORD))


@pytest.fixture(scope="module")
def exact(trace):
    return make_engine("vectorized").run(
        GEOMETRY, trace, replacement=make_replacement("lru"),
        word_size=WORD, warmup=0,
    )


def sampled_for(trace, interval, k=None, seed=0, **kwargs):
    config = SamplingConfig(interval=interval, k=k, seed=seed)
    plan = analyze_trace(trace, interval, k, seed=seed)
    return run_sampled(GEOMETRY, trace, plan, config, word_size=WORD, **kwargs)


class TestCounters:
    def test_seventeen_counters_and_no_overlap(self):
        assert len(SCALAR_COUNTERS) == 14
        assert len(DICT_COUNTERS) == 3
        assert not set(SCALAR_COUNTERS) & set(DICT_COUNTERS)

    def test_counter_names_match_cachestats(self):
        payload = CacheStats().to_dict()
        assert set(SCALAR_COUNTERS + DICT_COUNTERS) <= set(payload)


class TestDegenerateBitIdentity:
    def test_whole_trace_plan_equals_reference_exactly(self, trace, exact):
        sampled = sampled_for(trace, len(trace) + 1)
        exact_dict = exact.to_dict()
        for name in SCALAR_COUNTERS:
            assert sampled.estimates[name] == exact_dict[name], name
        for name in DICT_COUNTERS:
            assert dict(sampled.estimates[name]) == exact_dict[name], name
        assert sampled.miss_ratio == exact.miss_ratio

    def test_degenerate_bounds_are_zero(self, trace):
        sampled = sampled_for(trace, len(trace))
        # One singleton interval primed from the trace start: no
        # witness term, no cold term.
        assert all(half == 0.0 for half in sampled.half_widths.values())
        lo, hi = sampled.miss_ratio_ci
        assert lo == hi == sampled.miss_ratio


class TestBounds:
    def test_ci_covers_the_true_cold_miss_ratio(self, trace, exact):
        sampled = sampled_for(trace, 1000, 4)
        lo, hi = sampled.miss_ratio_ci
        assert lo <= exact.miss_ratio <= hi
        assert lo <= sampled.miss_ratio <= hi

    def test_stream_determined_counters_are_exact(self, trace, exact):
        # Every interval contributes its own access count scaled by
        # its own weight, so the accesses estimate is exact whatever
        # the clustering did.
        sampled = sampled_for(trace, 1000, 4)
        assert sampled.estimates["accesses"] == len(trace)
        assert sampled.half_widths["accesses"] == 0.0
        assert sampled.half_widths["bytes_accessed"] == 0.0

    def test_ci_is_ordered_and_non_negative(self, trace):
        sampled = sampled_for(trace, 500, 3)
        for name in SCALAR_COUNTERS + DICT_COUNTERS:
            lo, hi = sampled.ci(name)
            assert 0.0 <= lo <= hi

    def test_miss_ratio_ci_is_clamped_to_unit_interval(self, trace):
        sampled = sampled_for(trace, 1000, 4)
        lo, hi = sampled.miss_ratio_ci
        assert 0.0 <= lo <= hi <= 1.0


class TestSampledMarker:
    def test_to_dict_carries_the_sampled_section(self, trace):
        payload = sampled_for(trace, 1000, 4).to_dict()
        marker = payload["sampled"]
        assert marker["exact"] is False
        assert marker["sample"] == {"interval": 1000, "k": 4, "seed": 0}
        assert marker["total_accesses"] == len(trace)
        assert set(marker["ci"]) == set(SCALAR_COUNTERS + DICT_COUNTERS)

    def test_strict_from_dict_rejects_sampled_payloads(self, trace):
        payload = sampled_for(trace, 1000, 4).to_dict()
        with pytest.raises(ValueError, match="not a CacheStats dump"):
            CacheStats.from_dict(payload)

    def test_summary_is_the_compact_checkpoint_form(self, trace):
        sampled = sampled_for(trace, 1000, 4)
        summary = sampled.summary()
        assert summary["exact"] is False
        assert summary["sample"] == "i1000,k4,s0"
        assert summary["miss_ratio"] == sampled.miss_ratio
        assert summary["miss_ratio_ci"] == list(sampled.miss_ratio_ci)

    def test_speedup_accounting(self, trace):
        sampled = sampled_for(trace, 500, 2)
        assert 0 < sampled.simulated_accesses <= len(trace) + 2 * 500
        assert sampled.speedup_factor > 0


class TestGuards:
    def test_plan_trace_mismatch_is_refused(self, trace):
        config = SamplingConfig(1000, 2)
        plan = analyze_trace(trace[: len(trace) - 500], 1000, 2)
        with pytest.raises(ConfigurationError, match="rebuild the plan"):
            run_sampled(GEOMETRY, trace, plan, config, word_size=WORD)

    def test_negative_warmup_is_refused(self, trace):
        with pytest.raises(ConfigurationError, match="warmup_intervals"):
            sampled_for(trace, 1000, 2, warmup_intervals=-1)

    def test_random_replacement_runs_without_bound_claims(self, trace):
        # The estimate exists; docs/sampling.md documents that the
        # interval is not a guarantee under random replacement.
        sampled = sampled_for(trace, 1000, 4, replacement="random")
        assert 0.0 <= sampled.miss_ratio <= 1.0

    def test_engine_name_is_spelled_canonically(self, trace):
        # The interval engine goes through CellSpec.of, so any spelling
        # it accepts routes like the canonical name.
        loose = sampled_for(trace, 1000, 2, engine="Vectorized")
        assert loose.to_dict() == sampled_for(trace, 1000, 2).to_dict()
        with pytest.raises(ConfigurationError):
            sampled_for(trace, 1000, 2, engine="warp")


class TestSampleTrace:
    def test_one_call_plan_and_run(self, trace):
        config = SamplingConfig(1000, 4)
        one = sample_trace(GEOMETRY, trace, config, word_size=WORD)
        two = sampled_for(trace, 1000, 4)
        assert one.to_dict() == two.to_dict()


class TestVerifySampling:
    def test_bounds_hold_on_a_bundled_program(self):
        reports = verify_sampling(
            programs=["matmul"], word_sizes=(2,), length=6000, interval=1000
        )
        assert len(reports) == 1
        report = reports[0]
        assert report["covered"] is True
        assert report["ci"][0] <= report["true_miss_ratio"] <= report["ci"][1]

    def test_unknown_program_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown program"):
            verify_sampling(programs=["quux"], word_sizes=(2,), length=2000)
