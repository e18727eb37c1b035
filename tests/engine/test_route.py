"""The route planner: one decision per cell, each fallback named.

The table below is the routing table of ``docs/engines.md``: every
row pins the path :func:`repro.engine.route.plan` picks for a spec and
the reasons it names for passing over the cheaper paths.
"""

from __future__ import annotations

import pytest

from repro.core.config import CacheGeometry
from repro.core.misspath import MissPathConfig
from repro.engine import CellSpec, TraceView, plan
from repro.engine.route import PATHS, Route
from repro.errors import ConfigurationError
from repro.runner.faults import FaultyTrace
from repro.stackdist import plan_grid, run_group_pass
from repro.trace.record import Trace

CHAIN = {"victim_entries": 4}
SAMPLE = "100,2"
WRITES = Trace([0, 8, 16], [0, 1, 0], 2, name="writes")

#: (CellSpec.of kwargs, plan kwargs, expected path, reasons that must appear)
TABLE = [
    ({}, {}, "vectorized", ()),
    ({}, {"grid": True}, "stackdist", ()),
    ({"warmup": 0}, {"grid": True}, "stackdist", ()),
    ({"engine": "vectorized"}, {"grid": True}, "vectorized",
     ("explicit per-cell engine 'vectorized'",)),
    ({"replacement": "fifo"}, {"grid": True}, "vectorized",
     ("replacement policy 'fifo' (inclusion needs LRU)",)),
    ({"fetch": "load-forward"}, {"grid": True}, "stackdist", ()),
    ({"miss_path": CHAIN}, {"grid": True}, "vectorized",
     ("enabled miss-path chain (per-miss structure state)",)),
    ({"engine": "checked"}, {"grid": True}, "checked",
     ("checked engine (sanitizer must observe every access)",)),
    ({"engine": "reference"}, {"grid": True}, "reference",
     ("explicit per-cell engine 'reference'",)),
    ({"miss_path": {}}, {"grid": True}, "stackdist", ()),
    ({}, {"grid": True, "trace": WRITES}, "vectorized",
     ("trace carries writes (write misses break inclusion)",)),
    ({"replacement": "fifo", "fetch": "load-forward"}, {"grid": True},
     "vectorized",
     ("replacement policy 'fifo' (inclusion needs LRU)",)),
    ({}, {"grid": True, "injector_active": True}, "vectorized",
     ("fault injector (per-access proxies are per cell)",)),
    ({"sample": SAMPLE}, {"grid": True}, "sampled", ()),
    ({"sample": SAMPLE, "engine": "checked"}, {}, "checked",
     ("sample-fallback-checked",)),
    ({"sample": SAMPLE, "miss_path": CHAIN}, {}, "vectorized",
     ("sample-fallback-chain",)),
    ({"sample": SAMPLE}, {"injector_active": True}, "vectorized",
     ("sample-fallback-injector",)),
    ({"fetch": "load-forward-optimized"}, {"grid": True}, "stackdist", ()),
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
    route = plan(CellSpec(None), tiny_trace, grid=True)
    assert route.path == "vectorized"
    assert any("writes" in reason for reason in route.reasons)
    reads = Trace([0, 8, 16], [0, 2, 0], 2, name="reads")
    assert plan(CellSpec(None), reads, grid=True).path == "stackdist"


def test_proxies_take_the_reference_loop(tiny_trace):
    assert plan(CellSpec(None), FaultyTrace(tiny_trace)).path == "reference"
    assert plan(CellSpec(None), TraceView.of(tiny_trace)).path == "vectorized"


def test_empty_trace_is_exact_even_when_sampled():
    empty = Trace([], [], 2, name="empty")
    route = plan(CellSpec.of(None, sample=SAMPLE), empty, grid=True)
    assert route.path == "vectorized"
    assert route.reasons == ("trace-empty",)


def test_lone_cell_never_plans_a_pass():
    assert plan(CellSpec(None)).path == "vectorized"
    assert plan(CellSpec(None)).reasons == ()


@pytest.mark.parametrize(
    "spec, context",
    [
        (CellSpec(None, engine="warp"), {}),
        # A spec built without CellSpec.of keeps its raw spelling, which
        # the fingerprint records; the route refuses it, not re-spells it.
        (CellSpec(None, engine="Vectorized"), {"grid": True}),
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

    @pytest.mark.parametrize(
        "axes, blocker",
        [
            ({"replacement": "LRU"}, "replacement policy 'LRU' (inclusion needs LRU)"),
        ],
    )
    def test_route_reads_the_names_the_fingerprint_records(self, axes, blocker):
        # A spec built without CellSpec.of keeps its raw spelling: the
        # route weighs that spelling, as the fingerprint records it.
        raw = CellSpec(None, **axes)
        ((axis, name),) = axes.items()
        assert raw.fingerprint_params("bus", True)[axis] == name
        assert blocker in plan(raw, grid=True).reasons
        canonical = CellSpec.of(None, **axes)
        assert canonical.fingerprint_params("bus", True)[axis] == name.lower()
        assert plan(canonical, grid=True).path == "stackdist"

    def test_a_raw_fetch_spelling_reaches_the_pass_as_stored(self):
        # Fetch no longer sways the route, so a raw spelling plans a
        # pass; the pass refuses it (the runner then runs the cells per
        # cell), while the CellSpec.of spelling runs on the pass.
        raw = CellSpec(None, fetch="Demand")
        assert plan(raw, grid=True) == Route("stackdist")
        geometries = [CacheGeometry(64, 16, 8)]
        (group,) = plan_grid(geometries, spec=raw).groups
        assert [member.fetch for member in group.members] == ["Demand"]
        reads = Trace([0, 8, 16], [0, 0, 2], 2, name="reads")
        with pytest.raises(ConfigurationError, match="unknown fetch policy 'Demand'"):
            run_group_pass(reads, 16, 1, group.members)
        (group,) = plan_grid(geometries, spec=CellSpec.of(None, fetch="Demand")).groups
        assert [member.fetch for member in group.members] == ["demand"]
