"""Unit tests for the service chaos harness's building blocks.

The full harness (``python -m repro chaos --serve``) spawns real
worker fleets and takes ~15s, so CI runs it as its own smoke job; these
tests pin the measurement tools the scenarios' verdicts rest on — a
harness that misreads ``/metrics`` or miscompares results would pass
scenarios it should fail.
"""

from __future__ import annotations

import struct

import pytest

from repro.service.chaos import (
    SERVE_SCENARIOS,
    ChaosFailure,
    _committed_matches,
    _diff,
    _first_payload_offset,
    _metric,
    _require,
)
from repro.service.store import SEGMENT_MAGIC, WalStore

EXPOSITION = """\
# HELP repro_service_worker_restarts_total Worker restarts by reason.
# TYPE repro_service_worker_restarts_total counter
repro_service_worker_restarts_total{reason="crashed"} 3
repro_service_worker_restarts_total{reason="hung"} 1
repro_service_workers_alive 2
repro_service_drain_seconds 0.25
"""


class TestScenarioCatalogue:
    def test_ids_are_stable_and_documented(self):
        # docs/resilience.md and the CI smoke job refer to scenarios by
        # these exact ids; renames must be deliberate.
        assert SERVE_SCENARIOS == (
            "serve-kill-worker",
            "serve-crash-loop",
            "serve-stalled-heartbeat",
            "serve-torn-tail",
            "serve-bit-flip",
            "serve-slow-loris",
            "serve-drain",
            "serve-poison-query",
        )

    def test_require_raises_chaos_failure_with_the_detail(self):
        _require(True, "fine")
        with pytest.raises(ChaosFailure, match="lost 2 results"):
            _require(False, "lost 2 results")


class TestMetricsParsing:
    def test_reads_a_labeled_series(self):
        assert _metric(
            EXPOSITION,
            "repro_service_worker_restarts_total",
            '{reason="crashed"}',
        ) == 3.0
        assert _metric(
            EXPOSITION,
            "repro_service_worker_restarts_total",
            '{reason="hung"}',
        ) == 1.0

    def test_reads_an_unlabeled_series(self):
        assert _metric(EXPOSITION, "repro_service_drain_seconds") == 0.25

    def test_a_missing_series_reads_as_zero(self):
        assert _metric(EXPOSITION, "repro_service_no_such_metric") == 0.0

    def test_a_prefix_name_does_not_shadow_a_longer_one(self):
        # "workers_alive" must not match the restarts series above it.
        assert _metric(EXPOSITION, "repro_service_workers_alive") == 2.0


class TestResultComparison:
    def test_diff_reports_only_divergent_fingerprints(self):
        baseline = {"fp-a": {"miss_ratio": 0.1}, "fp-b": {"miss_ratio": 0.2}}
        served = {
            "fp-a": {"miss_ratio": 0.1},
            "fp-b": {"miss_ratio": 0.3},
            "fp-c": {"miss_ratio": 0.4},  # not in the baseline at all
        }
        assert _diff(served, baseline) == ["fp-b", "fp-c"]
        assert _diff(dict(baseline), baseline) == []

    def test_committed_matches_distinguishes_lost_from_altered(self):
        baseline = {
            "fp-a": {
                "miss_ratio": 0.1, "traffic_ratio": 0.2,
                "scaled_traffic_ratio": 0.3,
            },
            "fp-b": {
                "miss_ratio": 0.4, "traffic_ratio": 0.5,
                "scaled_traffic_ratio": 0.6,
            },
        }
        records = {
            "fp-b": {"miss": 0.4, "traffic": 0.5, "scaled": 0.99},
        }
        problems = _committed_matches(
            records, {"fp-a", "fp-b"}, baseline
        )
        assert problems == ["fp-a lost", "fp-b altered"]

    def test_matching_commits_raise_no_problems(self):
        baseline = {
            "fp-a": {
                "miss_ratio": 0.1, "traffic_ratio": 0.2,
                "scaled_traffic_ratio": 0.3,
            },
        }
        records = {"fp-a": {"miss": 0.1, "traffic": 0.2, "scaled": 0.3}}
        assert _committed_matches(records, {"fp-a"}, baseline) == []


class TestBitFlipTargeting:
    def test_the_offset_lands_inside_the_first_payload(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        store.put({
            "kind": "result", "fingerprint": "fp-0", "key": "k", "trace": "T",
            "miss": 0.25, "traffic": 0.5, "scaled": 0.75, "stats": {},
            "engine": "vectorized",
        })
        store.close()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        offset = _first_payload_offset(segment)
        data = segment.read_bytes()
        header = len(SEGMENT_MAGIC)
        length, _crc = struct.unpack_from("<II", data, header)
        assert header + 8 <= offset < header + 8 + length
        # Flipping that byte must fail the frame's CRC on recovery.
        mutated = bytearray(data)
        mutated[offset] ^= 0x01
        segment.write_bytes(bytes(mutated))
        reopened = WalStore(tmp_path / "wal")
        assert reopened.last_recovery.records_damaged == 1
        assert reopened.get("fp-0") is None
        reopened.close()
