"""The route planner: one decision per cell, each fallback named.

The table below is the routing table of ``docs/engines.md``: every
row pins the path :func:`repro.engine.route.plan` picks for a spec and
the reasons it names for passing over the cheaper paths.
"""

from __future__ import annotations

import pytest

from repro.core.misspath import MissPathConfig
from repro.engine import CellSpec, TraceView, plan
from repro.engine.route import PATHS, Route
from repro.errors import ConfigurationError
from repro.runner.runner import _GuardedTrace
from repro.trace.record import Trace

CHAIN = {"victim_entries": 4}
SAMPLE = "100,2"

#: (CellSpec.of kwargs, plan kwargs, expected path, reasons that must appear)
TABLE = [
    ({}, {}, "vectorized", ()),
    ({}, {"grid_engine": "auto"}, "stackdist", ()),
    ({}, {"grid_engine": "stackdist"}, "stackdist", ()),
    ({}, {"grid_engine": "percell"}, "vectorized",
     ("grid engine forced to percell",)),
    ({"replacement": "fifo"}, {"grid_engine": "auto"}, "vectorized",
     ("replacement policy 'fifo' (inclusion needs LRU)",)),
    ({"fetch": "load-forward"}, {"grid_engine": "auto"}, "vectorized",
     ("fetch policy 'load-forward' (only demand fetch)",)),
    ({"miss_path": CHAIN}, {"grid_engine": "auto"}, "reference",
     ("enabled miss-path chain (per-miss structure state)",)),
    ({"engine": "checked"}, {"grid_engine": "stackdist"}, "checked",
     ("checked engine (sanitizer must observe every access)",)),
    ({"engine": "reference"}, {"grid_engine": "auto"}, "reference",
     ("explicit per-cell engine 'reference' (auto grid defers to it)",)),
    ({"engine": "reference"}, {"grid_engine": "stackdist"}, "stackdist", ()),
    ({}, {"grid_engine": "auto", "cell_timeout": 1.0}, "vectorized",
     ("cell_timeout (per-cell deadline needs per-cell runs)",)),
    ({}, {"grid_engine": "auto", "max_cell_accesses": 10}, "vectorized",
     ("max_cell_accesses (per-cell budget needs per-cell runs)",)),
    ({}, {"grid_engine": "auto", "injector_active": True}, "vectorized",
     ("fault injector (per-access proxies are per cell)",)),
    ({"sample": SAMPLE}, {"grid_engine": "auto"}, "sampled", ()),
    ({"sample": SAMPLE, "engine": "checked"}, {}, "checked",
     ("sample-fallback-checked",)),
    ({"sample": SAMPLE, "miss_path": CHAIN}, {}, "reference",
     ("sample-fallback-chain",)),
    ({"sample": SAMPLE}, {"injector_active": True}, "vectorized",
     ("sample-fallback-injector",)),
]


@pytest.mark.parametrize("axes, context, path, reasons", TABLE)
def test_routing_table(axes, context, path, reasons):
    route = plan(CellSpec.of(None, **axes), **context)
    assert route.path == path
    assert route.path in PATHS
    for reason in reasons:
        assert reason in route.reasons


def test_every_sample_fallback_is_named_in_order():
    spec = CellSpec.of(None, engine="checked", miss_path=CHAIN, sample=SAMPLE)
    route = plan(spec, injector_active=True)
    assert route.path == "checked"
    assert route.sample_fallbacks == (
        "sample-fallback-injector",
        "sample-fallback-checked",
        "sample-fallback-chain",
    )


def test_reason_joins_the_reasons():
    assert Route("vectorized", ("a", "b")).reason == "a; b"
    assert Route("sampled").reason == ""


def test_trace_with_writes_is_not_a_pass(tiny_trace):
    route = plan(CellSpec(None), tiny_trace, grid_engine="stackdist")
    assert route.path == "vectorized"
    assert any("writes" in reason for reason in route.reasons)
    reads = Trace([0, 8, 16], [0, 2, 0], 2, name="reads")
    assert plan(CellSpec(None), reads, grid_engine="auto").path == "stackdist"


def test_proxies_take_the_reference_loop(tiny_trace):
    guarded = _GuardedTrace(tiny_trace, "key", max_accesses=5)
    assert plan(CellSpec(None), guarded).path == "reference"
    assert plan(CellSpec(None), TraceView.of(tiny_trace)).path == "vectorized"


def test_empty_trace_is_exact_even_when_sampled():
    empty = Trace([], [], 2, name="empty")
    route = plan(CellSpec.of(None, sample=SAMPLE), empty, grid_engine="auto")
    assert route.path == "vectorized"
    assert route.reasons == ("trace-empty",)


def test_lone_cell_never_plans_a_pass():
    assert plan(CellSpec(None)).path == "vectorized"
    assert plan(CellSpec(None)).reasons == ()


@pytest.mark.parametrize(
    "spec, context",
    [
        (CellSpec(None, engine="warp"), {}),
        (CellSpec(None), {"grid_engine": "warp"}),
    ],
)
def test_unknown_names_rejected(spec, context):
    with pytest.raises(ConfigurationError):
        plan(spec, **context)


class TestCellSpec:
    def test_of_normalizes_loose_values(self):
        spec = CellSpec.of(None, engine="AUTO", miss_path={}, sample="100")
        assert spec.engine == "auto"
        assert spec.fetch == "demand"
        assert spec.miss_path is None
        assert spec.sample is not None and spec.sample.interval == 100

    def test_disabled_chain_is_no_chain(self):
        assert CellSpec.of(None, miss_path=MissPathConfig()).miss_path is None

    def test_fingerprint_params_name_every_axis_key(self):
        spec = CellSpec.of(None, miss_path=CHAIN, sample=SAMPLE)
        params = spec.fingerprint_params(bus_model="bus", filter_writes=True)
        assert params["miss_path"] == spec.miss_path.key()
        assert params["sample"] == spec.sample.key()
        assert CellSpec(None).fingerprint_params("bus", True)["sample"] == "none"
