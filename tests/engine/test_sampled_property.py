"""Property tests for the sampled estimator (Hypothesis).

Two guarantees are strong enough to randomize:

* **Degenerate bit-identity** — a plan whose single interval spans the
  whole trace must reproduce the reference engine with ``==`` on every
  counter, not approximately (the estimator's scale factor
  short-circuits to exact integers when cluster total == interval
  length).
* **Two-interval coverage** — with two intervals and a one-interval
  priming budget, every simulated window reaches back to the trace
  start, so each measured interval is *exactly* its cold full-trace
  slice; the witness term then bounds the cross-interval disagreement
  and the true miss count must land inside the reported interval.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import CacheGeometry
from repro.core.replacement import make_replacement
from repro.engine import ReferenceEngine
from repro.engine.sampled import (
    DICT_COUNTERS,
    SCALAR_COUNTERS,
    run_sampled,
)
from repro.staticcheck.phases import SamplingConfig, analyze_trace
from repro.trace.record import Trace

GEOMETRY = CacheGeometry(128, 16, 8, associativity=2)
REFERENCE = ReferenceEngine()


@st.composite
def traces(draw, min_size=2, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    addrs = draw(
        st.lists(
            st.integers(min_value=0, max_value=1023),
            min_size=n, max_size=n,
        )
    )
    kinds = draw(st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n))
    return Trace(
        [a * 2 for a in addrs], kinds, 2, name="prop"
    )


def exact_cold(trace):
    return REFERENCE.run(
        GEOMETRY, trace, replacement=make_replacement("lru"),
        word_size=2, warmup=0,
    )


def sampled_for(trace, interval, k):
    config = SamplingConfig(interval=interval, k=k)
    plan = analyze_trace(trace, interval, k)
    return run_sampled(GEOMETRY, trace, plan, config, word_size=2)


@settings(max_examples=40, deadline=None)
@given(trace=traces())
def test_degenerate_plan_is_bit_identical(trace):
    sampled = sampled_for(trace, len(trace), 1)
    exact = exact_cold(trace).to_dict()
    for name in SCALAR_COUNTERS:
        assert sampled.estimates[name] == exact[name], name
    for name in DICT_COUNTERS:
        assert dict(sampled.estimates[name]) == exact[name], name
    assert all(half == 0.0 for half in sampled.half_widths.values())


#: An all-miss trace whose estimate, scaled as ``value * (total /
#: length)``, rounded one ulp above the true 47 misses.
_ROUNDING_TRACE = Trace(
    [0, 8, 16, 24, 64, 96, 128, 144, 160, 0, 8, 32, 56, 64, 176, 256,
     0, 64, 72, 80, 88, 96, 128, 168, 0, 8, 32, 64, 256, 0, 8, 40, 128,
     320, 0, 64, 128, 152, 0, 8, 16, 24, 64, 128, 384, 0, 450],
    [0] * 47, 2, name="prop",
)


@settings(max_examples=40, deadline=None)
@given(trace=traces(), k=st.sampled_from([1, 2]))
@example(trace=_ROUNDING_TRACE, k=1)
def test_two_interval_plan_covers_the_truth(trace, k):
    interval = (len(trace) + 1) // 2
    sampled = sampled_for(trace, interval, k)
    exact = exact_cold(trace)
    lo, hi = sampled.ci("misses")
    assert lo <= exact.to_dict()["misses"] <= hi
    lo, hi = sampled.miss_ratio_ci
    assert lo <= exact.miss_ratio <= hi


@settings(max_examples=25, deadline=None)
@given(
    trace=traces(min_size=4, max_size=80),
    interval=st.integers(min_value=1, max_value=20),
    k=st.integers(min_value=1, max_value=4),
)
def test_estimates_are_well_formed(trace, interval, k):
    sampled = sampled_for(trace, interval, k)
    # The access stream itself is never estimated, only replayed.
    assert sampled.estimates["accesses"] == pytest.approx(len(trace))
    assert sampled.total_accesses == len(trace)
    for name in SCALAR_COUNTERS + DICT_COUNTERS:
        lo, hi = sampled.ci(name)
        assert 0.0 <= lo <= hi
        assert sampled.half_widths[name] >= 0.0


@settings(max_examples=15, deadline=None)
@given(
    trace=traces(min_size=6, max_size=60),
    interval=st.integers(min_value=2, max_value=15),
    k=st.integers(min_value=1, max_value=3),
)
def test_sampling_is_deterministic(trace, interval, k):
    assert (
        sampled_for(trace, interval, k).to_dict()
        == sampled_for(trace, interval, k).to_dict()
    )
