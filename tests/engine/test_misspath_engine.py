"""Miss-path threading through the engine layer.

Pins the three contracts the refactor added to the engines:

* an *empty* chain is indistinguishable from no chain on every engine
  that accepts one (the always-on edition of the ``REPRO_MISSPATH_EMPTY``
  tripwire in ``test_equivalence.py``);
* the vectorized engine refuses an *enabled* chain loudly, and
  :func:`~repro.engine.route.plan` routes both ``auto`` and explicit
  ``vectorized`` requests to ``reference`` instead;
* a chained run still matches the bare run counter-for-counter — the
  chain only adds the ``misspath`` block.
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
from repro.errors import ConfigurationError, EngineError

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
    def test_enabled_chain_raises_engine_error(
        self, tiny_trace, small_geometry
    ):
        with pytest.raises(EngineError, match="miss-path chain"):
            VectorizedEngine().run(
                small_geometry, tiny_trace, miss_path=CHAIN
            )

    def test_mapping_form_is_validated_first(self, tiny_trace, small_geometry):
        with pytest.raises(ConfigurationError, match="unknown miss-path"):
            VectorizedEngine().run(
                small_geometry, tiny_trace, miss_path={"victim_entires": 4}
            )


def path_for(engine, trace, miss_path=None):
    return plan(CellSpec.of(None, engine=engine, miss_path=miss_path), trace).path


class TestResolveEngineDegradation:
    def test_auto_degrades_to_reference_when_chained(self, tiny_trace):
        assert path_for("auto", tiny_trace) == "vectorized"
        assert path_for("auto", tiny_trace, CHAIN) == "reference"
        assert path_for("auto", TraceView.of(tiny_trace), CHAIN) == "reference"

    def test_explicit_vectorized_degrades_too(self, tiny_trace):
        assert path_for("vectorized", tiny_trace, CHAIN) == "reference"

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
    @pytest.mark.parametrize("engine_cls", [ReferenceEngine, CheckedEngine])
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
