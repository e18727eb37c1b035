"""Unit suites for the miss-path chain structures and their stats.

Each structure is exercised in isolation through the MissPath protocol
(probe/fill/evict), then the assembled chain is checked for probe
order, short-circuiting, fill announcement, and L1-eviction capture.
Hypothesis drives random chains over random traces and asserts the
conservation laws of :func:`check_misspath_conservation` on the result.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.conservation import check_misspath_conservation
from repro.core.misspath import (
    MISS_PATH_KEYS,
    BackingL2,
    MissCache,
    MissPathChain,
    MissPathConfig,
    MissPathStats,
    StreamBufferSet,
    VictimCache,
    build_miss_path,
)
from repro.core.sim import run_config, simulate
from repro.core.stats import CacheStats
from repro.errors import ConfigurationError
from repro.trace.record import Trace

GEOMETRY = CacheGeometry(64, 16, 8)
FULL_CHAIN = MissPathConfig(
    victim_entries=4,
    miss_entries=4,
    stream_buffers=2,
    stream_depth=4,
    l2_net_size=1024,
)


class TestMissPathConfig:
    def test_default_is_the_empty_chain(self):
        config = MissPathConfig()
        assert not config.enabled
        assert config.chain_names == ()
        assert config.key() == "none"
        assert build_miss_path(config, GEOMETRY) is None
        assert build_miss_path(None, GEOMETRY) is None

    def test_chain_names_follow_probe_order(self):
        assert FULL_CHAIN.chain_names == ("victim", "miss", "stream", "l2")
        assert MissPathConfig(l2_net_size=512).chain_names == ("l2",)
        assert MissPathConfig(
            stream_buffers=1, victim_entries=1
        ).chain_names == ("victim", "stream")

    def test_unknown_key_rejected_loudly(self):
        # The satellite requirement by name: a typo'd ``victim_entires``
        # must fail parsing, never silently configure a bare chain.
        with pytest.raises(ConfigurationError, match="victim_entires"):
            MissPathConfig.from_dict({"victim_entires": 4})
        with pytest.raises(ConfigurationError, match="unknown miss-path"):
            MissPathConfig.coerce({"victim_entries": 4, "extra": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            MissPathConfig.from_dict(["victim_entries"])  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("victim_entries", -1),
            ("miss_entries", -2),
            ("stream_buffers", -1),
            ("l2_net_size", -64),
            ("stream_depth", 0),
            ("l2_associativity", 0),
            ("victim_entries", True),
            ("stream_depth", "4"),
            ("stream_depth", True),
            ("l2_associativity", True),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            MissPathConfig(**{field: value})

    def test_round_trip_and_coerce(self):
        payload = FULL_CHAIN.to_dict()
        assert set(payload) == MISS_PATH_KEYS
        assert MissPathConfig.from_dict(payload) == FULL_CHAIN
        assert MissPathConfig.coerce(payload) == FULL_CHAIN
        assert MissPathConfig.coerce(FULL_CHAIN) is FULL_CHAIN
        assert MissPathConfig.coerce(None) is None

    def test_key_is_canonical_and_stable(self):
        assert FULL_CHAIN.key() == "vc4+mc4+sb2x4+l2:1024/0/0@4"
        assert MissPathConfig(victim_entries=8).key() == "vc8"
        assert MissPathConfig(
            stream_buffers=4, stream_depth=8
        ).key() == "sb4x8"
        assert MissPathConfig(
            l2_net_size=4096, l2_block_size=64, l2_sub_block_size=16,
            l2_associativity=2,
        ).key() == "l2:4096/64/16@2"

    def test_l2_geometry_inherits_l1_shape(self):
        config = MissPathConfig(l2_net_size=1024)
        geometry = config.l2_geometry(GEOMETRY)
        assert geometry.block_size == GEOMETRY.block_size
        assert geometry.sub_block_size == GEOMETRY.block_size
        assert geometry.net_size == 1024
        explicit = MissPathConfig(
            l2_net_size=1024, l2_block_size=32, l2_sub_block_size=8
        ).l2_geometry(GEOMETRY)
        assert (explicit.block_size, explicit.sub_block_size) == (32, 8)
        with pytest.raises(ConfigurationError, match="no backing L2"):
            MissPathConfig(victim_entries=1).l2_geometry(GEOMETRY)

    def test_config_is_hashable(self):
        assert len({FULL_CHAIN, MissPathConfig(), FULL_CHAIN}) == 2


class TestVictimCache:
    def test_hit_requires_every_needed_sub_block(self):
        victim = VictimCache(entries=2)
        victim.evict(block_addr=5, mask=0b01)
        assert not victim.probe(5, 0b10)  # needs the missing half
        assert not victim.probe(5, 0b11)
        assert victim.probe(5, 0b01)

    def test_hit_swaps_the_block_out(self):
        victim = VictimCache(entries=2)
        victim.evict(7, 0b11)
        assert victim.probe(7, 0b01)
        assert victim.contents() == {}
        assert not victim.probe(7, 0b01)  # gone after the swap

    def test_capacity_evicts_lru(self):
        victim = VictimCache(entries=2)
        for block in (1, 2, 3):
            victim.evict(block, 0b11)
        assert victim.contents() == {2: 0b11, 3: 0b11}
        assert victim.stats.evictions == 1

    def test_reevicting_merges_masks(self):
        victim = VictimCache(entries=2)
        victim.evict(9, 0b01)
        victim.evict(9, 0b10)
        assert victim.contents() == {9: 0b11}
        assert victim.stats.evictions == 0

    def test_empty_mask_evictions_ignored(self):
        victim = VictimCache(entries=2)
        victim.evict(4, 0)
        assert victim.contents() == {}
        assert victim.stats.fills == 0


class TestMissCache:
    def test_tag_only_hit_supplies_any_mask(self):
        miss = MissCache(entries=2)
        miss.fill(3, 0b01)
        assert miss.probe(3, 0b10)  # no data, optimistic full-block hit
        assert miss.probe(3, 0b11)  # and the entry persists across hits

    def test_capacity_evicts_lru(self):
        miss = MissCache(entries=2)
        for block in (1, 2, 3):
            miss.fill(block, 0b1)
        assert miss.contents() == [2, 3]
        assert miss.stats.evictions == 1

    def test_hit_refreshes_recency(self):
        miss = MissCache(entries=2)
        miss.fill(1, 0b1)
        miss.fill(2, 0b1)
        assert miss.probe(1, 0b1)
        miss.fill(3, 0b1)  # evicts 2, not the refreshed 1
        assert miss.contents() == [1, 3]


class TestStreamBufferSet:
    def test_fill_prefetches_successors(self):
        stream = StreamBufferSet(buffers=1, depth=3)
        stream.fill(10, 0b1)
        assert stream.contents() == [[11, 12, 13]]
        assert stream.stats.fills == 3

    def test_hit_consumes_through_match_and_refills(self):
        stream = StreamBufferSet(buffers=1, depth=3)
        stream.fill(10, 0b1)
        assert stream.probe(12, 0b1)  # skips 11, consumes 12
        assert stream.contents() == [[13, 14, 15]]
        assert stream.probe(13, 0b1)
        assert stream.contents() == [[14, 15, 16]]

    def test_nonsequential_miss_reallocates_lru_buffer(self):
        stream = StreamBufferSet(buffers=2, depth=2)
        stream.fill(10, 0b1)   # buffer 0: [11, 12]
        stream.fill(100, 0b1)  # buffer 1: [101, 102]
        assert stream.probe(11, 0b1)  # buffer 0 becomes most recent
        stream.fill(200, 0b1)  # flushes buffer 1, the LRU one
        assert stream.contents() == [[12, 13], [201, 202]]
        assert stream.stats.evictions == 1

    def test_miss_on_unbuffered_address(self):
        stream = StreamBufferSet(buffers=1, depth=2)
        stream.fill(10, 0b1)
        assert not stream.probe(10, 0b1)  # the missed block itself
        assert not stream.probe(50, 0b1)


class TestBackingL2:
    def test_probe_spans_the_needed_sub_blocks(self):
        l2 = BackingL2(
            MissPathConfig(l2_net_size=1024), GEOMETRY, word_size=2
        )
        assert not l2.probe(0, 0b11)  # cold: one L2 fetch
        assert l2.last_fetch_bytes > 0
        assert l2.probe(0, 0b01)  # warm: resident now
        assert l2.last_fetch_bytes == 0
        assert l2.cache.stats.accesses == 2

    def test_word_size_must_fit_l2_sub_block(self):
        with pytest.raises(ConfigurationError, match="word_size"):
            BackingL2(
                MissPathConfig(l2_net_size=64, l2_block_size=2),
                GEOMETRY,
                word_size=4,
            )


class TestMissPathChain:
    def test_requires_a_configured_structure(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            MissPathChain(MissPathConfig(), GEOMETRY)

    def test_probe_order_short_circuits_at_first_hit(self):
        chain = MissPathChain(
            MissPathConfig(victim_entries=2, miss_entries=2), GEOMETRY
        )
        chain.on_l1_eviction(5, 0b11)
        chain.service_miss(5, 0b01, nbytes=8)  # victim hit stops the walk
        victim = chain.stats.structures["victim"]
        miss = chain.stats.structures["miss"]
        assert (victim.probes, victim.hits) == (1, 1)
        assert (miss.probes, miss.hits) == (0, 0)
        assert chain.stats.memory_fetches == 0

    def test_memory_miss_fills_probed_structures(self):
        chain = MissPathChain(
            MissPathConfig(miss_entries=2, stream_buffers=1), GEOMETRY
        )
        chain.service_miss(7, 0b11, nbytes=16)
        assert chain.stats.memory_fetches == 1
        assert chain.stats.memory_bytes_fetched == 16
        assert chain.stats.structures["miss"].fills == 1
        assert chain.stats.structures["stream"].fills == 4  # one per depth
        # The very next miss on the same block hits the miss cache.
        chain.service_miss(7, 0b11, nbytes=16)
        assert chain.stats.structures["miss"].hits == 1
        assert chain.stats.memory_fetches == 1

    def test_structure_hit_does_not_fill_downstream(self):
        chain = MissPathChain(
            MissPathConfig(victim_entries=2, miss_entries=2), GEOMETRY
        )
        chain.on_l1_eviction(3, 0b11)
        chain.service_miss(3, 0b11, nbytes=16)  # victim services it
        assert chain.stats.structures["miss"].fills == 0

    def test_l2_service_fills_tag_side_structures(self):
        chain = MissPathChain(
            MissPathConfig(miss_entries=1, l2_net_size=1024), GEOMETRY
        )
        chain.service_miss(1, 0b11, nbytes=16)  # L2 cold miss -> memory
        assert chain.stats.memory_fetches == 1
        assert chain.stats.structures["miss"].fills == 1
        chain.service_miss(2, 0b11, nbytes=16)  # displaces tag 1 from MC
        # Block 1 is L2-resident now: the L2 hit services the miss AND
        # announces the fill back up to the probed-and-missed miss cache.
        chain.service_miss(1, 0b11, nbytes=16)
        assert chain.stats.structures["l2"].hits == 1
        assert chain.stats.memory_fetches == 2
        assert chain.stats.structures["miss"].fills == 3

    def test_memory_bytes_follow_l2_traffic_when_chained(self):
        chain = MissPathChain(
            MissPathConfig(l2_net_size=1024), GEOMETRY, word_size=2
        )
        chain.service_miss(0, 0b11, nbytes=16)
        assert chain.stats.memory_bytes_fetched == (
            chain.stats.l2_stats.bytes_fetched
        )

    def test_stats_objects_are_shared(self):
        chain = MissPathChain(FULL_CHAIN, GEOMETRY)
        for structure in chain.structures:
            assert structure.stats is chain.stats.structures[structure.name]
        assert chain.stats.l2_stats is chain.l2.cache.stats


class TestCacheIntegration:
    def test_l1_counters_identical_with_and_without_chain(self, tiny_trace):
        bare = run_config(GEOMETRY, tiny_trace, warmup=0)
        chained = run_config(
            GEOMETRY, tiny_trace, warmup=0, miss_path=FULL_CHAIN
        )
        snapshot = dict(bare.snapshot())
        assert dict(chained.snapshot()) == snapshot
        assert chained.misspath is not None
        assert bare.misspath is None

    def test_demand_misses_match_l1_miss_events(self, random_trace):
        stats = run_config(
            GEOMETRY, random_trace, warmup=0, miss_path=FULL_CHAIN
        )
        assert stats.misspath.demand_misses == (
            stats.block_misses + stats.sub_block_misses
        )
        assert check_misspath_conservation(stats.misspath, stats) == []

    def test_victim_cache_captures_l1_evictions(self):
        # Two blocks ping-ponging in a direct-mapped set: every miss
        # after the first two should hit the victim cache.
        geometry = CacheGeometry(32, 16, 16, associativity=1)
        addrs = [0, 32, 0, 32, 0, 32]
        trace = Trace(addrs, [0] * len(addrs), 2, name="pingpong")
        stats = run_config(
            geometry, trace, warmup=0,
            miss_path=MissPathConfig(victim_entries=2),
        )
        victim = stats.misspath.structures["victim"]
        assert victim.hits == 4
        assert stats.misspath.memory_fetches == 2

    def test_warmup_resets_chain_counters_in_place(self, random_trace):
        cache = SubBlockCache(GEOMETRY, miss_path=FULL_CHAIN)
        stats = simulate(cache, random_trace, warmup=1000)
        misspath = stats.misspath
        assert misspath is cache.stats.misspath  # same object, reset live
        assert check_misspath_conservation(misspath, stats) == []
        assert misspath.demand_misses == (
            stats.block_misses + stats.sub_block_misses
        )

    def test_flush_at_end_feeds_the_victim_cache(self):
        cache = SubBlockCache(
            GEOMETRY, miss_path=MissPathConfig(victim_entries=8)
        )
        trace = Trace([0, 16, 32], [0, 0, 0], 2, name="fill")
        stats = simulate(cache, trace, warmup=0, flush_at_end=True)
        assert stats.misspath.structures["victim"].fills == stats.evictions


class TestMissPathStatsSerialization:
    def test_round_trip_through_a_real_run(self, random_trace):
        stats = run_config(
            GEOMETRY, random_trace, warmup=0, miss_path=FULL_CHAIN
        )
        rebuilt = CacheStats.from_dict(stats.to_dict())
        assert rebuilt.misspath is not None
        assert rebuilt.misspath.to_dict() == stats.misspath.to_dict()
        assert check_misspath_conservation(rebuilt.misspath, rebuilt) == []

    def test_chainless_stats_omit_the_key(self, tiny_trace):
        stats = run_config(GEOMETRY, tiny_trace, warmup=0)
        assert "misspath" not in stats.to_dict()

    def test_from_dict_rejects_malformed_dumps(self):
        dump = MissPathStats(("victim",)).to_dict()
        with pytest.raises(ValueError, match="not a MissPathStats"):
            MissPathStats.from_dict({**dump, "extra": 1})
        with pytest.raises(ValueError, match="do not match"):
            MissPathStats.from_dict({**dump, "structures": {}})
        bad_structure = {
            **dump,
            "structures": {"victim": {"probes": 0}},
        }
        with pytest.raises(ValueError, match="not a StructureStats"):
            MissPathStats.from_dict(bad_structure)

    def test_hits_summary_flattens_the_chain(self):
        stats = MissPathStats(("victim", "l2"))
        stats.structures["victim"].hits = 3
        stats.structures["l2"].hits = 2
        stats.memory_fetches = 5
        assert stats.hits_summary() == {
            "victim": 3, "l2": 2, "memory_fetches": 5
        }


class TestConservationChecker:
    def _clean(self):
        stats = MissPathStats(("victim", "miss"))
        stats.demand_misses = 10
        stats.structures["victim"].probes = 10
        stats.structures["victim"].hits = 4
        stats.structures["miss"].probes = 6
        stats.structures["miss"].hits = 1
        stats.memory_fetches = 5
        stats.memory_bytes_fetched = 80
        return stats

    def test_clean_stats_pass(self):
        assert check_misspath_conservation(self._clean()) == []

    def test_each_rule_family_fires(self):
        stats = self._clean()
        stats.memory_bytes_fetched = -1
        assert any(
            v.startswith("misspath-negative")
            for v in check_misspath_conservation(stats)
        )

        stats = self._clean()
        stats.structures["victim"].hits = 11
        assert any(
            v.startswith("misspath-bounds")
            for v in check_misspath_conservation(stats)
        )

        stats = self._clean()
        stats.structures["miss"].probes = 10
        assert any(
            v.startswith("misspath-chain")
            for v in check_misspath_conservation(stats)
        )

        stats = self._clean()
        stats.memory_fetches = 3
        assert any(
            v.startswith("misspath-service")
            for v in check_misspath_conservation(stats)
        )

        stats = self._clean()
        stats.memory_fetches = 0
        stats.structures["miss"].hits = 6
        assert any(
            v.startswith("misspath-memory")
            for v in check_misspath_conservation(stats)
        )

    def test_l1_link_rule(self, tiny_trace):
        stats = run_config(
            GEOMETRY, tiny_trace, warmup=0, miss_path=FULL_CHAIN
        )
        assert check_misspath_conservation(stats.misspath, stats) == []
        stats.misspath.demand_misses += 1
        violations = check_misspath_conservation(stats.misspath, stats)
        assert any(v.startswith("misspath-l1-link") for v in violations)


# -- Property-based: random chains obey the conservation laws -----------

chain_configs = st.builds(
    MissPathConfig,
    victim_entries=st.integers(0, 6),
    miss_entries=st.integers(0, 6),
    stream_buffers=st.integers(0, 3),
    stream_depth=st.integers(1, 6),
    l2_net_size=st.sampled_from([0, 256, 1024]),
    l2_associativity=st.sampled_from([1, 2, 4]),
)

word_accesses = st.lists(
    st.tuples(
        st.integers(0, 1023),
        st.sampled_from([0, 1, 2]),
        st.sampled_from([1, 2, 4]),
    ),
    max_size=200,
)


class TestChainProperties:
    @given(config=chain_configs, accesses=word_accesses)
    @settings(max_examples=60, deadline=None)
    def test_conservation_holds_for_random_chains(self, config, accesses):
        trace = Trace(
            [a for a, _, _ in accesses],
            [k for _, k, _ in accesses],
            [s for _, _, s in accesses],
            name="hyp",
        )
        stats = run_config(
            GEOMETRY, trace, warmup=0, word_size=2,
            miss_path=config if config.enabled else None,
        )
        if not config.enabled:
            assert stats.misspath is None
            return
        assert check_misspath_conservation(stats.misspath, stats) == []

    @given(config=chain_configs, accesses=word_accesses)
    @settings(max_examples=30, deadline=None)
    def test_serialization_round_trips(self, config, accesses):
        if not config.enabled:
            return
        trace = Trace(
            [a for a, _, _ in accesses],
            [k for _, k, _ in accesses],
            [s for _, _, s in accesses],
            name="hyp",
        )
        stats = run_config(GEOMETRY, trace, warmup=0, miss_path=config)
        rebuilt = MissPathStats.from_dict(stats.misspath.to_dict())
        assert rebuilt.to_dict() == stats.misspath.to_dict()

    @given(config=chain_configs, accesses=word_accesses)
    @settings(max_examples=30, deadline=None)
    def test_chain_never_perturbs_l1(self, config, accesses):
        trace = Trace(
            [a for a, _, _ in accesses],
            [k for _, k, _ in accesses],
            [s for _, _, s in accesses],
            name="hyp",
        )
        bare = run_config(GEOMETRY, trace, warmup=0)
        chained = run_config(
            GEOMETRY, trace, warmup=0,
            miss_path=config if config.enabled else None,
        )
        assert dict(chained.snapshot()) == dict(bare.snapshot())
        assert chained.transaction_words == bare.transaction_words
