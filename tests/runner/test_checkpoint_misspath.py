"""Checkpoint format v3: miss-path fingerprints, legacy resume, records.

Version 3 folds the miss-path chain key into the sweep fingerprint and
closes the fingerprint-param set.  These tests pin the new identity
rules (chained and chainless sweeps can never share an address), the
per-version legacy resume path (v1 and v2 checkpoints still resume —
but only into chainless sweeps), and the per-cell ``misspath`` summary
the runner records for chained sweeps.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.config import CacheGeometry
from repro.core.misspath import MissPathConfig
from repro.errors import ConfigurationError
from repro.runner.checkpoint import (
    CHECKPOINT_VERSION,
    FINGERPRINT_PARAMS,
    CheckpointWriter,
    load_checkpoint,
    sweep_fingerprint,
)
from repro.runner.runner import RunnerConfig, run_sweep

FP = sweep_fingerprint(["a"], [10], miss_path="none", word_size=2)
CHAIN = MissPathConfig(victim_entries=4, stream_buffers=2)
GEOMETRY = CacheGeometry(256, 16, 8)


class TestFingerprintParams:
    def test_param_set_is_closed_and_versioned(self):
        assert "miss_path" in FINGERPRINT_PARAMS
        # v4 additionally folds the sampling key into the fingerprint
        # (tests/runner/test_sampled_runner.py pins its semantics).
        assert "sample" in FINGERPRINT_PARAMS
        assert CHECKPOINT_VERSION == 4

    def test_unknown_param_rejected_loudly(self):
        # The satellite requirement by name: a typo'd param must fail
        # immediately, not silently mint a distinct fingerprint.
        with pytest.raises(ConfigurationError, match="victim_entires"):
            sweep_fingerprint(["a"], [10], victim_entires=4)

    def test_miss_path_key_distinguishes_sweeps(self):
        chained = sweep_fingerprint(
            ["a"], [10], miss_path=CHAIN.key(), word_size=2
        )
        assert chained != FP
        assert chained == sweep_fingerprint(
            ["a"], [10], miss_path=CHAIN.key(), word_size=2
        )
        other_chain = sweep_fingerprint(
            ["a"], [10], miss_path="vc8", word_size=2
        )
        assert other_chain != chained


class TestMisspathCellRecords:
    def test_summary_round_trips_through_the_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        summary = {"victim": 3, "stream": 7, "memory_fetches": 2}
        with CheckpointWriter(path, FP) as writer:
            writer.record_cell(
                "a", "t", "ok", ratios=(0.1, 0.2, 0.3), misspath=summary
            )
            writer.record_cell("b", "t", "ok", ratios=(0.1, 0.2, 0.3))
        cells = load_checkpoint(path, FP)
        assert cells["a"]["misspath"] == summary
        assert "misspath" not in cells["b"]


class TestLegacyResume:
    def _write_legacy(self, tmp_path, version, fingerprint):
        path = tmp_path / "legacy.jsonl"
        lines = []
        for record in (
            {"kind": "header", "version": version, "fingerprint": fingerprint},
            {
                "kind": "cell", "key": "a", "trace": "t1", "status": "ok",
                "attempts": 1, "miss": 0.25, "traffic": 0.5, "scaled": 0.375,
            },
        ):
            body = json.dumps(record, sort_keys=True)
            record["crc"] = f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}"
            lines.append(json.dumps(record, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_v2_resumes_via_the_version_map(self, tmp_path):
        v2_fp = sweep_fingerprint(["a"], [10], engine="auto", word_size=2)
        v3_fp = sweep_fingerprint(
            ["a"], [10], engine="auto", miss_path="none", word_size=2
        )
        path = self._write_legacy(tmp_path, 2, v2_fp)
        cells = load_checkpoint(path, v3_fp, legacy_fingerprints={2: v2_fp})
        assert cells["a"]["miss"] == 0.25

    def test_v1_still_resumes_via_the_back_compat_kwarg(self, tmp_path):
        v1_fp = sweep_fingerprint(["a"], [10], word_size=2)
        path = self._write_legacy(tmp_path, 1, v1_fp)
        cells = load_checkpoint(path, FP, legacy_fingerprints={1: v1_fp})
        assert cells["a"]["miss"] == 0.25

    def test_version_without_a_mapped_fingerprint_rejected(self, tmp_path):
        v2_fp = sweep_fingerprint(["a"], [10], engine="auto", word_size=2)
        path = self._write_legacy(tmp_path, 2, v2_fp)
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(path, FP, legacy_fingerprints={1: v2_fp})

    def test_mismatched_legacy_fingerprint_rejected(self, tmp_path):
        path = self._write_legacy(tmp_path, 2, "feedc0de")
        with pytest.raises(ConfigurationError, match="different sweep"):
            load_checkpoint(path, FP, legacy_fingerprints={2: "00000000"})


class TestSweepIntegration:
    def test_chained_sweep_records_the_summary(self, tiny_trace, tmp_path):
        checkpoint = tmp_path / "chained.jsonl"
        points, _report = run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
            miss_path=CHAIN,
        )
        records = [
            json.loads(line) for line in checkpoint.read_text().splitlines()
        ]
        cell = next(r for r in records if r["kind"] == "cell")
        assert set(cell["misspath"]) == {"victim", "stream", "memory_fetches"}
        assert sum(cell["misspath"].values()) > 0
        assert points[0].miss_ratio > 0

    def test_chainless_sweep_omits_the_summary(self, tiny_trace, tmp_path):
        checkpoint = tmp_path / "bare.jsonl"
        run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
        )
        records = [
            json.loads(line) for line in checkpoint.read_text().splitlines()
        ]
        cell = next(r for r in records if r["kind"] == "cell")
        assert "misspath" not in cell

    def test_chain_key_changes_the_sweep_address(self, tiny_trace, tmp_path):
        checkpoint = tmp_path / "ck.jsonl"
        run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
        )
        bare_fp = json.loads(
            checkpoint.read_text().splitlines()[0]
        )["fingerprint"]
        run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
            miss_path=CHAIN,
        )
        chained_fp = json.loads(
            checkpoint.read_text().splitlines()[0]
        )["fingerprint"]
        assert bare_fp != chained_fp

    def test_chained_sweep_refuses_a_chainless_resume(
        self, tiny_trace, tmp_path
    ):
        checkpoint = tmp_path / "ck.jsonl"
        run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
        )
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(
                [tiny_trace], [GEOMETRY],
                config=RunnerConfig(checkpoint=str(checkpoint), resume=True),
                warmup=0,
                miss_path=CHAIN,
            )

    def test_chained_resume_is_exact(self, z8000_grep_trace, tmp_path):
        checkpoint = tmp_path / "resume.jsonl"
        direct, _ = run_sweep(
            [z8000_grep_trace], [GEOMETRY, CacheGeometry(512, 16, 8)],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            miss_path=CHAIN,
        )
        resumed, report = run_sweep(
            [z8000_grep_trace], [GEOMETRY, CacheGeometry(512, 16, 8)],
            config=RunnerConfig(checkpoint=str(checkpoint), resume=True),
            miss_path=CHAIN,
        )
        assert report.resumed == 2
        assert [p.per_trace for p in resumed] == [p.per_trace for p in direct]

    def test_chainless_sweep_resumes_a_v2_checkpoint(
        self, tiny_trace, tmp_path
    ):
        # Write a real chainless v3 checkpoint, then rewrite its header
        # as the v2 format (same records, fingerprint sans miss_path).
        checkpoint = tmp_path / "v2.jsonl"
        run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint)),
            warmup=0,
        )
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("crc")
        header["version"] = 2
        header["fingerprint"] = "unknown!"  # recomputed below
        # The v2 fingerprint is the v3 one minus the miss_path param;
        # recover it by re-running the sweep's own math.
        from repro.engine.batch import prepare_trace
        from repro.memory.nibble import NIBBLE_MODE_BUS
        from repro.runner.runner import cell_key

        header["fingerprint"] = sweep_fingerprint(
            [cell_key(GEOMETRY, tiny_trace.name)],
            [len(prepare_trace(tiny_trace))],
            engine="auto",
            word_size=2,
            fetch="demand",
            replacement="lru",
            warmup=0,
            bus_model=NIBBLE_MODE_BUS,
            filter_writes=True,
        )
        body = json.dumps(header, sort_keys=True)
        header["crc"] = f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}"
        lines[0] = json.dumps(header, sort_keys=True)
        checkpoint.write_text("\n".join(lines) + "\n")

        _points, report = run_sweep(
            [tiny_trace], [GEOMETRY],
            config=RunnerConfig(checkpoint=str(checkpoint), resume=True),
            warmup=0,
        )
        assert report.resumed == 1
