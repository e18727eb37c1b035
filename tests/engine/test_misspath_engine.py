"""Miss-path threading through the engine layer.

Pins the three contracts the chain adds to the engines:

* an *empty* chain is indistinguishable from no chain on every engine
  (``test_equivalence.py`` repeats this over its whole combo grid);
* an *enabled* chain runs on the vectorized engine, bit-identical to
  the reference loop including ``MissPathStats``, and
  :func:`~repro.engine.route.plan` keeps chained cells on
  ``vectorized`` — only a per-access trace proxy still sends them to
  ``reference``;
* a chained run still matches the bare run counter-for-counter — the
  chain only adds the ``misspath`` block;
* on real workloads the structures order as the miss-side literature
  predicts for a small L1 (Jouppi, ISCA 1990): each one cuts memory
  traffic below the bare miss path, and victim cache plus stream
  buffers beats either alone.
"""

from __future__ import annotations

import pytest

from repro.core.config import CacheGeometry
from repro.core.misspath import MissPathConfig
from repro.engine import (
    CellSpec,
    CheckedEngine,
    ReferenceEngine,
    TraceView,
    VectorizedEngine,
    plan,
)
from repro.errors import ConfigurationError
from repro.runner.faults import FaultyTrace
from repro.workloads.suites import suite_trace

CHAIN = MissPathConfig(victim_entries=4, stream_buffers=2, l2_net_size=1024)
EMPTY = MissPathConfig()


class TestEmptyChainTripwire:
    @pytest.mark.parametrize(
        "engine_cls", [ReferenceEngine, CheckedEngine, VectorizedEngine]
    )
    @pytest.mark.parametrize("miss_path", [None, EMPTY, {}])
    def test_empty_chain_is_byte_identical_to_none(
        self, engine_cls, miss_path, z8000_grep_trace, reference_geometry
    ):
        bare = engine_cls().run(reference_geometry, z8000_grep_trace)
        routed = engine_cls().run(
            reference_geometry, z8000_grep_trace, miss_path=miss_path
        )
        assert dict(routed.snapshot()) == dict(bare.snapshot())
        assert routed.transaction_words == bare.transaction_words
        assert routed.misspath is None
        assert "misspath" not in routed.to_dict()


class TestVectorizedRejection:
    def test_mapping_form_is_validated_first(self, tiny_trace, small_geometry):
        with pytest.raises(ConfigurationError, match="unknown miss-path"):
            VectorizedEngine().run(
                small_geometry, tiny_trace, miss_path={"victim_entires": 4}
            )


def path_for(engine, trace, miss_path=None):
    return plan(CellSpec.of(None, engine=engine, miss_path=miss_path), trace).path


class TestResolveEngineDegradation:
    def test_auto_keeps_chained_cells_vectorized(self, tiny_trace):
        assert path_for("auto", tiny_trace) == "vectorized"
        assert path_for("auto", tiny_trace, CHAIN) == "vectorized"
        assert path_for("auto", TraceView.of(tiny_trace), CHAIN) == "vectorized"

    def test_explicit_vectorized_keeps_the_chain(self, tiny_trace):
        assert path_for("vectorized", tiny_trace, CHAIN) == "vectorized"

    def test_chained_proxy_still_degrades_to_reference(self, tiny_trace):
        proxy = FaultyTrace(tiny_trace)
        assert path_for("auto", proxy, CHAIN) == "reference"

    def test_empty_chain_keeps_vectorized(self, tiny_trace):
        for miss_path in (None, EMPTY, {}):
            assert path_for("auto", tiny_trace, miss_path) == "vectorized"
            assert path_for("vectorized", tiny_trace, miss_path) == "vectorized"

    def test_checked_accepts_chains_directly(self, tiny_trace):
        assert path_for("checked", tiny_trace, CHAIN) == "checked"

    def test_malformed_mapping_rejected_at_resolution(self, tiny_trace):
        with pytest.raises(ConfigurationError, match="unknown miss-path"):
            path_for("auto", tiny_trace, {"victim_entires": 4})


class TestChainedRunContracts:
    @pytest.mark.parametrize("warmup", ["fill", 0, 500])
    @pytest.mark.parametrize("flush_at_end", [False, True])
    def test_vectorized_chain_matches_reference(
        self, warmup, flush_at_end, z8000_grep_trace
    ):
        geometry = CacheGeometry(256, 16, 8, associativity=2)
        kwargs = dict(miss_path=CHAIN, warmup=warmup, flush_at_end=flush_at_end)
        reference = ReferenceEngine().run(geometry, z8000_grep_trace, **kwargs)
        vectorized = VectorizedEngine().run(geometry, z8000_grep_trace, **kwargs)
        assert vectorized.to_dict() == reference.to_dict()  # misspath included
        assert vectorized.misspath.structure_hits > 0

    @pytest.mark.parametrize(
        "engine_cls", [ReferenceEngine, CheckedEngine, VectorizedEngine]
    )
    def test_chained_l1_counters_match_bare(
        self, engine_cls, z8000_grep_trace
    ):
        geometry = CacheGeometry(256, 16, 8, associativity=2)
        bare = engine_cls().run(geometry, z8000_grep_trace)
        chained = engine_cls().run(
            geometry, z8000_grep_trace, miss_path=CHAIN
        )
        assert dict(chained.snapshot()) == dict(bare.snapshot())
        misspath = chained.misspath
        assert misspath is not None
        assert misspath.demand_misses == (
            bare.block_misses + bare.sub_block_misses
        )
        assert misspath.chain == ("victim", "stream", "l2")

    def test_chain_reduces_memory_traffic_on_a_real_workload(
        self, z8000_grep_trace
    ):
        geometry = CacheGeometry(256, 16, 8, associativity=2)
        bare = ReferenceEngine().run(geometry, z8000_grep_trace)
        chained = ReferenceEngine().run(
            geometry, z8000_grep_trace, miss_path=CHAIN
        )
        # The L1's own fetch accounting is untouched; the chain's memory
        # traffic is what a front-end with miss-side structures would move.
        assert chained.bytes_fetched == bare.bytes_fetched
        assert (
            chained.misspath.memory_bytes_fetched < bare.bytes_fetched
        )


#: The compared miss paths behind one L1: bare, each structure alone,
#: victim + stream, and that pair in front of an L2.
JOUPPI_CHAINS = {
    "bare": None,
    "vc4": MissPathConfig(victim_entries=4),
    "mc4": MissPathConfig(miss_entries=4),
    "sb4x4": MissPathConfig(stream_buffers=4, stream_depth=4),
    "vc4+sb4x4": MissPathConfig(
        victim_entries=4, stream_buffers=4, stream_depth=4
    ),
    "vc4+sb4x4+l2": MissPathConfig(
        victim_entries=4, stream_buffers=4, stream_depth=4, l2_net_size=4096
    ),
}


class TestJouppiOrderings:
    # A 128 B L1 misses often enough for every structure to matter.  The
    # vectorized engine runs the rows: the equivalence contract makes it
    # bit-identical to the reference loop, at a fraction of the cost.
    @pytest.mark.parametrize(
        "suite, program", [("pdp11", "ED"), ("z8000", "GREP"), ("vax", "c2")]
    )
    def test_structures_order_on_memory_traffic(self, suite, program):
        trace = TraceView.of(suite_trace(suite, program, length=30_000))
        geometry = CacheGeometry(128, 16, 8, associativity=2)
        memory = {}
        l1_fetched = set()
        for name, miss_path in JOUPPI_CHAINS.items():
            stats = VectorizedEngine().run(geometry, trace, miss_path=miss_path)
            l1_fetched.add(stats.bytes_fetched)
            memory[name] = (
                stats.bytes_fetched if miss_path is None
                else stats.misspath.memory_bytes_fetched
            )
        assert len(l1_fetched) == 1, "a chain changed what the L1 fetches"
        for name in ("vc4", "mc4", "sb4x4"):
            assert memory[name] < memory["bare"], (name, memory)
        for name in ("vc4", "sb4x4"):
            assert memory["vc4+sb4x4"] < memory[name], (name, memory)
