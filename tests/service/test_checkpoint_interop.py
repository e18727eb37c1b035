"""Cross-subsystem contract: service cache entries == sweep checkpoints.

The result cache is content-addressed by the checkpoint fingerprint of
the single-cell sweep a query denotes.  These tests pin the contract
from both sides: the addresses are provably identical, a served result
can seed a ``--resume`` run, and a runner checkpoint can seed the
service cache.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec, prepare_trace
from repro.errors import ConfigurationError
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.checkpoint import sweep_fingerprint
from repro.runner.health import CellStatus
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.service.cache import ResultCache
from repro.workloads.suites import suite_trace

GEOMETRY = CacheGeometry(1024, 16, 8)
QUERY = SimQuery(
    suite="pdp11", trace="ED", length=4000, filter_writes=True,
    spec=CellSpec(GEOMETRY),
)


def simulate_once(config=None, cache=None):
    async def main():
        service = SimulationService(
            config or ServiceConfig(batch_window=0.0), cache=cache
        )
        await service.start()
        try:
            return await service.simulate(QUERY), service
        finally:
            await service.stop()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def trace():
    return suite_trace("pdp11", "ED", length=4000)


class TestFingerprintIdentity:
    def test_query_fingerprint_equals_sweep_fingerprint(self, trace):
        """The addresses agree *by construction*, for every option set."""
        for engine, replacement, word_size in (
            ("auto", "lru", 2),
            ("reference", "fifo", 2),
            ("vectorized", "random", 4),
        ):
            query = SimQuery(
                suite="pdp11", trace="ED", length=4000, filter_writes=True,
                spec=CellSpec(
                    GEOMETRY, engine=engine, replacement=replacement,
                    word_size=word_size,
                ),
            )
            prepared_length = len(prepare_trace(trace))
            expected = sweep_fingerprint(
                [cell_key(GEOMETRY, "ED")],
                [prepared_length],
                engine=engine,
                miss_path="none",
                sample="none",
                word_size=word_size,
                fetch="demand",
                replacement=replacement,
                warmup="fill",
                bus_model=NIBBLE_MODE_BUS,
                filter_writes=True,
            )
            assert query.fingerprint(prepared_length) == expected

    def test_service_entry_carries_the_checkpoint_fingerprint(
        self, trace, tmp_path
    ):
        """A checkpointed run and a served query agree on the address."""
        checkpoint = tmp_path / "cell.jsonl"
        run_sweep(
            [trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
        )
        header = json.loads(checkpoint.read_text().splitlines()[0])
        result, _service = simulate_once()
        assert result.entry.fingerprint == header["fingerprint"]


    def test_spellings_share_one_fingerprint(self, trace, tmp_path):
        """``CellSpec.of`` spells the axes canonically for the runner and
        the service alike, so ``load_forward``/``LRU`` address the same
        entry as ``load-forward``/``lru``."""
        spelled = CellSpec.of(None, fetch="load_forward", replacement="LRU")
        canonical = CellSpec.of(None, fetch="load-forward", replacement="lru")
        assert spelled.fingerprint_params(NIBBLE_MODE_BUS, True) == (
            canonical.fingerprint_params(NIBBLE_MODE_BUS, True)
        )
        checkpoint = tmp_path / "cell.jsonl"
        run_sweep(
            [trace], [GEOMETRY], fetch="load_forward", replacement="LRU",
            config=RunnerConfig(checkpoint=str(checkpoint)),
        )
        header = json.loads(checkpoint.read_text().splitlines()[0])
        query = SimQuery.from_payload(
            {"suite": "pdp11", "trace": "ED", "net": 1024, "block": 16,
             "sub": 8, "fetch": "load_forward", "replacement": "LRU"},
            4000,
        )
        assert query.spec == dataclasses.replace(canonical, geometry=GEOMETRY)
        prepared_length = len(prepare_trace(trace))
        assert query.fingerprint(prepared_length) == header["fingerprint"]


class TestServiceSeedsRunner:
    def test_exported_entry_resumes_a_sweep(self, trace, tmp_path):
        result, service = simulate_once()
        checkpoint = tmp_path / "exported.jsonl"
        service.cache.export_checkpoint(
            result.entry.fingerprint, checkpoint
        )

        points, report = run_sweep(
            [trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint), resume=True),
        )
        # The cell was NOT re-simulated: it resumed from the service's
        # exported record, with the identical ratio triple.
        assert report.resumed == 1
        assert all(
            outcome.status is CellStatus.RESUMED for outcome in report.outcomes
        )
        assert points[0].per_trace["ED"] == (
            result.entry.miss, result.entry.traffic, result.entry.scaled
        )

    def test_export_of_unknown_fingerprint_rejected(self, tmp_path):
        cache = ResultCache()
        with pytest.raises(ConfigurationError, match="no cached result"):
            cache.export_checkpoint("deadbeef", tmp_path / "x.jsonl")


class TestRunnerSeedsService:
    def test_runner_checkpoint_seeds_the_cache(self, trace, tmp_path):
        checkpoint = tmp_path / "cell.jsonl"
        points, _report = run_sweep(
            [trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
        )
        direct = points[0].per_trace["ED"]
        fingerprint = json.loads(
            checkpoint.read_text().splitlines()[0]
        )["fingerprint"]

        cache = ResultCache()
        assert cache.seed_from_checkpoint(checkpoint, fingerprint) == 1

        # A service built on the seeded cache answers from memory
        # without ever simulating.
        result, service = simulate_once(cache=cache)
        assert result.source == "memory"
        assert (result.entry.miss, result.entry.traffic, result.entry.scaled) == direct
        assert service.metrics.cells_total.value(labels={"status": "ok"}) == 0

    def test_wrong_fingerprint_rejected(self, trace, tmp_path):
        checkpoint = tmp_path / "cell.jsonl"
        run_sweep(
            [trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
        )
        with pytest.raises(ConfigurationError):
            ResultCache().seed_from_checkpoint(checkpoint, "00000000")

    def test_multi_cell_checkpoint_rejected(self, trace, tmp_path):
        checkpoint = tmp_path / "grid.jsonl"
        run_sweep(
            [trace], [GEOMETRY, CacheGeometry(512, 16, 8)],
            config=RunnerConfig(checkpoint=str(checkpoint)),
        )
        fingerprint = json.loads(
            checkpoint.read_text().splitlines()[0]
        )["fingerprint"]
        with pytest.raises(ConfigurationError, match="single-cell"):
            ResultCache().seed_from_checkpoint(checkpoint, fingerprint)
