"""The ``sample`` query axis through the service layer.

Sampling is opt-in per service (``--allow-sampling``) and a sampled
answer is a different product from an exact one: the query layer
refuses contradictory combinations at parse time (``exact: true``,
checked engine, miss-path chain), the fingerprint carries the sample
key so caches can never cross-serve, and served payloads are marked
``stats.sampled.exact == false``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.staticcheck.phases import SamplingConfig

BASE = {"suite": "pdp11", "trace": "ED", "net": 256, "block": 16, "sub": 8}
SAMPLE = {"interval": 500, "k": 2}


def simulate_queries(*queries, allow_sampling=True, supervised=False):
    """Run queries sequentially on one service; returns (results, service)."""

    async def main():
        service = SimulationService(
            ServiceConfig(batch_window=0.0, allow_sampling=allow_sampling,
                          supervised=supervised)
        )
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
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        assert query.spec.sample == SamplingConfig(interval=500, k=2)

    def test_cli_string_form_parses_too(self):
        query = SimQuery.from_payload(dict(BASE, sample="500,2"), 4000)
        assert query.spec.sample == SamplingConfig(interval=500, k=2)

    def test_absent_sample_means_exact(self):
        assert SimQuery.from_payload(dict(BASE), 4000).spec.sample is None

    @pytest.mark.parametrize(
        "bad", ["abc", {"interval": 0}, {"interval": 500, "stride": 2}]
    )
    def test_malformed_sample_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SimQuery.from_payload(dict(BASE, sample=bad), 4000)

    def test_exact_true_plus_sample_is_a_contradiction(self):
        with pytest.raises(ConfigurationError, match="exact"):
            SimQuery.from_payload(
                dict(BASE, sample=SAMPLE, exact=True), 4000
            )

    def test_exact_false_plus_sample_is_fine(self):
        query = SimQuery.from_payload(
            dict(BASE, sample=SAMPLE, exact=False), 4000
        )
        assert query.spec.sample is not None

    def test_exact_must_be_boolean(self):
        with pytest.raises(ConfigurationError, match="exact"):
            SimQuery.from_payload(dict(BASE, exact="yes"), 4000)

    def test_checked_engine_plus_sample_refused(self):
        with pytest.raises(ConfigurationError, match="checked") as excinfo:
            SimQuery.from_payload(
                dict(BASE, sample=SAMPLE, engine="checked"), 4000
            )
        assert [d.rule for d in excinfo.value.diagnostics] == [
            "sample-fallback-checked"
        ]

    def test_miss_path_plus_sample_refused(self):
        with pytest.raises(ConfigurationError, match="chain"):
            SimQuery.from_payload(
                dict(BASE, sample=SAMPLE, miss_path={"victim_entries": 4}),
                4000,
            )

    def test_to_dict_round_trips(self):
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        payload = query.to_dict()
        assert payload["sample"] == {"interval": 500, "k": 2, "seed": 0}
        assert SimQuery.from_payload(payload, 4000) == query


class TestFingerprints:
    def test_sampled_and_exact_never_share_a_fingerprint(self):
        bare = SimQuery.from_payload(dict(BASE), 4000)
        sampled = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        assert bare.fingerprint(4000) != sampled.fingerprint(4000)

    def test_different_sample_parameters_differ(self):
        one = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        two = SimQuery.from_payload(
            dict(BASE, sample={"interval": 500, "k": 3}), 4000
        )
        three = SimQuery.from_payload(
            dict(BASE, sample={"interval": 250, "k": 2}), 4000
        )
        prints = {q.fingerprint(4000) for q in (one, two, three)}
        assert len(prints) == 3


class TestOptIn:
    def test_default_service_refuses_sampled_queries(self):
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        with pytest.raises(ConfigurationError, match="allow-sampling"):
            simulate_queries(query, allow_sampling=False)

    def test_supervised_service_serves_sampled_queries(self):
        # Workers run the same group function, so an opted-in
        # supervised service answers the estimate an in-process one does.
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        (worker,), _ = simulate_queries(query, supervised=True)
        (thread,), _ = simulate_queries(query)
        assert worker.entry.engine == "sampled"
        assert worker.entry.stats["sampled"]["exact"] is False
        assert worker.entry == thread.entry


class TestServedResults:
    def test_sampled_result_is_marked_not_exact(self):
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        (result,), _service = simulate_queries(query)
        assert result.entry.engine == "sampled"
        payload = result.to_payload()
        marker = payload["stats"]["sampled"]
        assert marker["exact"] is False
        assert marker["sample"] == {"interval": 500, "k": 2, "seed": 0}
        assert 0.0 <= payload["result"]["miss_ratio"] <= 1.0
        lo, hi = marker["miss_ratio_ci"]
        assert lo <= marker["miss_ratio"] <= hi

    def test_exact_and_sampled_results_are_cached_separately(self):
        bare = SimQuery.from_payload(dict(BASE), 4000)
        sampled = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        (one, two), _service = simulate_queries(bare, sampled)
        assert one.source == "computed"
        assert two.source == "computed"  # not served from the exact entry
        assert one.entry.fingerprint != two.entry.fingerprint
        assert "sampled" not in one.entry.stats
        assert one.entry.engine != "sampled"

    def test_repeated_sampled_query_hits_the_cache(self):
        query = SimQuery.from_payload(dict(BASE, sample=SAMPLE), 4000)
        (first, again), _service = simulate_queries(query, query)
        assert first.source == "computed"
        assert again.source == "memory"
        assert again.entry.stats == first.entry.stats
