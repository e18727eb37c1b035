"""Miss-path chains through the service layer.

Covers the new ``miss_path`` query axis end to end: payload parsing and
normalization (a disabled chain coalesces with chainless queries),
fingerprint distinctness, the worker-protocol round trip, and the
``repro_service_misspath_hits_total`` counter fed by computed cells —
and only by computed cells, never by cache hits.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.misspath import MissPathConfig
from repro.errors import ConfigurationError, StaticCheckError
from repro.service import ServiceConfig, SimQuery, SimulationService

BASE = {"suite": "pdp11", "trace": "ED", "net": 256, "block": 16, "sub": 8}
CHAIN = {"victim_entries": 4, "stream_buffers": 2, "stream_depth": 4}


def simulate_queries(*queries):
    """Run queries sequentially on one service; returns (results, service)."""

    async def main():
        service = SimulationService(ServiceConfig(batch_window=0.0))
        await service.start()
        try:
            results = []
            for query in queries:
                results.append(await service.simulate(query))
            return results, service
        finally:
            await service.stop()

    return asyncio.run(main())


class TestQueryAxis:
    def test_mapping_parses_to_config(self):
        query = SimQuery.from_payload(dict(BASE, miss_path=CHAIN), 4000)
        assert query.spec.miss_path == MissPathConfig(**CHAIN)

    @pytest.mark.parametrize("disabled", [None, {}, {"victim_entries": 0}])
    def test_disabled_chain_coalesces_with_chainless(self, disabled):
        bare = SimQuery.from_payload(dict(BASE), 4000)
        routed = SimQuery.from_payload(dict(BASE, miss_path=disabled), 4000)
        assert routed == bare
        assert routed.spec.miss_path is None
        assert routed.fingerprint(4000) == bare.fingerprint(4000)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="victim_entires"):
            SimQuery.from_payload(
                dict(BASE, miss_path={"victim_entires": 4}), 4000
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"stream_depth": 0},
            {"victim_entries": -1},
            {"l2_associativity": 0},
            "vc4",  # must be a mapping, not a key string
        ],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(StaticCheckError, match="misspath-bad-value"):
            SimQuery.from_payload(dict(BASE, miss_path=bad), 4000)

    def test_chain_key_changes_the_fingerprint(self):
        bare = SimQuery.from_payload(dict(BASE), 4000)
        chained = SimQuery.from_payload(dict(BASE, miss_path=CHAIN), 4000)
        other = SimQuery.from_payload(
            dict(BASE, miss_path={"victim_entries": 8}), 4000
        )
        prints = {q.fingerprint(4000) for q in (bare, chained, other)}
        assert len(prints) == 3

    def test_worker_protocol_round_trips(self):
        chained = SimQuery.from_payload(dict(BASE, miss_path=CHAIN), 4000)
        assert SimQuery.from_payload(chained.to_dict(), 4000) == chained
        bare = SimQuery.from_payload(dict(BASE), 4000)
        assert bare.to_dict()["miss_path"] is None
        assert SimQuery.from_payload(bare.to_dict(), 4000) == bare


class TestServiceExecution:
    def test_computed_cell_feeds_the_metrics_counter(self):
        chained = SimQuery.from_payload(
            dict(BASE, length=4000, miss_path=CHAIN), 4000
        )
        (first, second), service = simulate_queries(chained, chained)
        assert first.source == "computed"
        assert second.source in ("memory", "disk")

        misspath = first.entry.stats["misspath"]
        demand = misspath["demand_misses"]
        assert demand > 0
        counter = service.metrics.misspath_hits_total
        serviced = sum(
            counter.value(labels={"structure": name})
            for name in ("victim", "stream")
        )
        memory = counter.value(labels={"structure": "memory"})
        # Conservation carries through to /metrics — and the cache hit
        # on the second request did not double-count anything.
        assert serviced + memory == demand

        rendered = service.metrics.render()
        assert "repro_service_misspath_hits_total" in rendered

    def test_chained_and_bare_results_are_distinct_entries(self):
        bare = SimQuery.from_payload(dict(BASE, length=4000), 4000)
        chained = SimQuery.from_payload(
            dict(BASE, length=4000, miss_path=CHAIN), 4000
        )
        (bare_result, chained_result), _service = simulate_queries(
            bare, chained
        )
        assert bare_result.entry.fingerprint != chained_result.entry.fingerprint
        # The chain never alters L1 behavior: both entries report the
        # same miss and traffic ratios, only the misspath block differs.
        assert bare_result.entry.miss == chained_result.entry.miss
        assert bare_result.entry.traffic == chained_result.entry.traffic
        assert "misspath" not in bare_result.entry.stats
        assert chained_result.entry.stats["misspath"]["chain"] == [
            "victim", "stream"
        ]

    def test_chainless_metrics_stay_zero(self):
        bare = SimQuery.from_payload(dict(BASE, length=4000), 4000)
        _results, service = simulate_queries(bare)
        counter = service.metrics.misspath_hits_total
        assert counter.value(labels={"structure": "memory"}) == 0
