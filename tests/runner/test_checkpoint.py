"""Checkpoint format tests: round-trips, corruption, fingerprints."""

import json
import zlib

import pytest

from repro.errors import ChecksumError, ConfigurationError
from repro.runner.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    legacy_fingerprints,
    load_checkpoint,
    sweep_fingerprint,
)

FP = sweep_fingerprint(["a", "b"], [100], word_size=2)


class TestFingerprint:
    def test_stable_for_identical_sweeps(self):
        assert FP == sweep_fingerprint(["a", "b"], [100], word_size=2)

    def test_sensitive_to_cells_lengths_and_params(self):
        assert FP != sweep_fingerprint(["a"], [100], word_size=2)
        assert FP != sweep_fingerprint(["a", "b"], [200], word_size=2)
        assert FP != sweep_fingerprint(["a", "b"], [100], word_size=4)


class TestRoundTrip:
    def test_cells_survive_a_round_trip_exactly(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ratios = (0.1234567890123456789, 2 / 3, 1e-17)
        with CheckpointWriter(path, FP) as writer:
            writer.record_cell("a", "t1", "ok", ratios=ratios, attempts=2)
            writer.record_cell("b", "t2", "skipped", reason="boom")
        cells = load_checkpoint(path, FP)
        assert set(cells) == {"a", "b"}
        # Bit-identical float round-trip is what makes resume exact.
        assert (cells["a"]["miss"], cells["a"]["traffic"], cells["a"]["scaled"]) == ratios
        assert cells["a"]["attempts"] == 2
        assert cells["b"]["status"] == "skipped"
        assert cells["b"]["reason"] == "boom"

    def test_missing_file_means_nothing_completed(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl", FP) == {}

    def test_append_mode_keeps_existing_cells(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointWriter(path, FP) as writer:
            writer.record_cell("a", "t1", "ok", ratios=(0.1, 0.2, 0.3))
        with CheckpointWriter(path, FP, fresh=False) as writer:
            writer.record_cell("b", "t2", "ok", ratios=(0.4, 0.5, 0.6))
        assert set(load_checkpoint(path, FP)) == {"a", "b"}

    def test_fresh_mode_truncates(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointWriter(path, FP) as writer:
            writer.record_cell("a", "t1", "ok", ratios=(0.1, 0.2, 0.3))
        with CheckpointWriter(path, FP) as writer:
            writer.record_cell("b", "t2", "ok", ratios=(0.4, 0.5, 0.6))
        assert set(load_checkpoint(path, FP)) == {"b"}


class TestCorruption:
    def _write(self, tmp_path, n_cells=3):
        path = tmp_path / "ck.jsonl"
        with CheckpointWriter(path, FP) as writer:
            for index in range(n_cells):
                writer.record_cell(
                    f"cell{index}", "t", "ok", ratios=(0.1, 0.2, 0.3)
                )
        return path

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = self._write(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # crash mid-write
        cells = load_checkpoint(path, FP)
        assert set(cells) == {"cell0", "cell1"}

    def test_corrupted_interior_line_raises_checksum_error(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["miss"] = 0.999  # tampered, CRC now stale
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChecksumError, match="line 2"):
            load_checkpoint(path, FP)

    def test_wrong_fingerprint_refuses_to_resume(self, tmp_path):
        path = self._write(tmp_path)
        other = sweep_fingerprint(["x"], [1], word_size=4)
        with pytest.raises(ConfigurationError, match="different sweep"):
            load_checkpoint(path, other)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._write(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("crc")
        header["version"] = CHECKPOINT_VERSION + 1
        body = json.dumps(header, sort_keys=True)
        header["crc"] = f"{zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}"
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(path, FP)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text("")
        assert load_checkpoint(path, FP) == {}  # empty file: nothing done
        other = self._write(tmp_path)
        lines = other.read_text().splitlines()
        other.write_text("\n".join(lines[1:]) + "\n")  # drop the header
        with pytest.raises(ConfigurationError, match="header"):
            load_checkpoint(other, FP)


class TestLegacyVersion:
    """Pre-engine (version 1) checkpoints must still resume."""

    def _write_v1(self, tmp_path, fingerprint):
        path = tmp_path / "legacy.jsonl"
        lines = []
        for record in (
            {"kind": "header", "version": 1, "fingerprint": fingerprint},
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

    def test_v1_header_resumes_via_legacy_fingerprint(self, tmp_path):
        new_fp = sweep_fingerprint(
            ["a", "b"], [100], engine="auto", word_size=2
        )
        path = self._write_v1(tmp_path, FP)
        cells = load_checkpoint(path, new_fp, legacy_fingerprints={1: FP})
        assert cells["a"]["miss"] == 0.25

    def test_v1_header_without_legacy_fingerprint_rejected(self, tmp_path):
        path = self._write_v1(tmp_path, FP)
        with pytest.raises(ConfigurationError, match="version"):
            load_checkpoint(path, FP)

    def test_v1_header_with_wrong_legacy_fingerprint_rejected(self, tmp_path):
        path = self._write_v1(tmp_path, FP)
        other = sweep_fingerprint(["x"], [1], word_size=4)
        with pytest.raises(ConfigurationError, match="different sweep"):
            load_checkpoint(path, FP, legacy_fingerprints={1: other})


class TestLegacyFormats:
    BASE = dict(word_size=2, engine="auto", miss_path="none", sample="none")

    def test_offered_only_where_sound(self):
        def versions(**params):
            return set(legacy_fingerprints(["a"], [1], dict(self.BASE, **params)))

        assert versions() == {1, 2, 3}
        assert versions(miss_path="vc4") == {3}
        assert versions(sample="i100,k2,s0") == set()

    def test_each_version_drops_the_params_it_lacked(self):
        offered = legacy_fingerprints(["a"], [1], self.BASE)
        assert offered[3] == sweep_fingerprint(
            ["a"], [1], word_size=2, engine="auto", miss_path="none"
        )
        assert offered[2] == sweep_fingerprint(
            ["a"], [1], word_size=2, engine="auto"
        )
        assert offered[1] == sweep_fingerprint(["a"], [1], word_size=2)
