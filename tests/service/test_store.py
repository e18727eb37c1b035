"""WalStore tests: framing, recovery, quarantine, compaction.

The store's contract is the durability half of the service's failure
model (docs/service.md): commits are atomic and fsync'd, torn tails are
truncated, interior corruption is quarantined (never deleted), and a
record that fails its CRC is never served.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.errors import ConfigurationError
from repro.runner.faults import flip_bit, tear_tail
from repro.service.store import SEGMENT_MAGIC, WalStore


def record(n: int) -> dict:
    return {
        "kind": "result",
        "fingerprint": f"fp-{n:04d}",
        "key": f"1024:16,8@4/T{n}",
        "trace": f"T{n}",
        "miss": 0.25 + n / 1000.0,
        "traffic": 0.5,
        "scaled": 0.75,
        "stats": {"accesses": 1000 + n},
        "engine": "vectorized",
    }


def fill(store: WalStore, count: int) -> None:
    for n in range(count):
        store.put(record(n))


class TestCommit:
    def test_put_then_get_round_trips_exactly(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        store.put(record(0))
        assert store.get("fp-0000") == record(0)
        assert len(store) == 1

    def test_put_is_idempotent(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        store.put(record(0))
        size = (tmp_path / "wal").joinpath("wal-00000001.seg").stat().st_size
        store.put(record(0))
        assert (
            tmp_path / "wal" / "wal-00000001.seg"
        ).stat().st_size == size

    def test_record_without_fingerprint_is_rejected(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        with pytest.raises(ConfigurationError, match="fingerprint"):
            store.put({"kind": "result"})

    def test_segments_roll_at_the_size_bound(self, tmp_path):
        store = WalStore(tmp_path / "wal", segment_bytes=256)
        fill(store, 6)
        assert store.segment_count > 1
        assert len(store) == 6

    def test_survives_close_and_reopen(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 5)
        store.close()
        reopened = WalStore(tmp_path / "wal")
        assert len(reopened) == 5
        assert reopened.get("fp-0003") == record(3)
        assert reopened.last_recovery.tails_truncated == 0
        assert reopened.last_recovery.records_indexed == 5


class TestTornTailRecovery:
    def test_torn_tail_is_truncated_and_prefix_survives(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 4)
        store.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        # Cut inside the final record: the classic kill -9 artifact.
        tear_tail(segment, keep_fraction=0.9, seed=1)
        reopened = WalStore(tmp_path / "wal")
        report = reopened.last_recovery
        assert report.tails_truncated == 1
        assert report.segments_quarantined == 0
        assert report.records_indexed == 3
        for n in range(3):
            assert reopened.get(f"fp-{n:04d}") == record(n)
        assert reopened.get("fp-0003") is None

    def test_recovery_is_idempotent(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 3)
        store.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        tear_tail(segment, keep_fraction=0.9, seed=1)
        WalStore(tmp_path / "wal").close()
        healed = segment.read_bytes()
        second = WalStore(tmp_path / "wal")
        assert second.last_recovery.tails_truncated == 0
        assert segment.read_bytes() == healed

    def test_tail_truncated_store_accepts_new_commits(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 3)
        store.close()
        tear_tail(tmp_path / "wal" / "wal-00000001.seg",
                  keep_fraction=0.9, seed=1)
        reopened = WalStore(tmp_path / "wal")
        reopened.put(record(2))  # the record the tear destroyed
        reopened.put(record(7))
        reopened.close()
        final = WalStore(tmp_path / "wal")
        assert final.get("fp-0002") == record(2)
        assert final.get("fp-0007") == record(7)


class TestCorruptionQuarantine:
    def _flip_payload_bit(self, segment) -> None:
        data = segment.read_bytes()
        length, _ = struct.unpack_from("<II", data, len(SEGMENT_MAGIC))
        flip_bit(segment, offset=len(SEGMENT_MAGIC) + 8 + length // 2)

    def test_interior_corruption_quarantines_and_salvages(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 4)
        store.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        damaged = None
        self._flip_payload_bit(segment)
        damaged = segment.read_bytes()
        reopened = WalStore(tmp_path / "wal")
        report = reopened.last_recovery
        assert report.segments_quarantined == 1
        assert report.records_damaged == 1
        assert report.records_salvaged == 3
        # Record 0 (the damaged one) is gone; the rest were salvaged.
        assert reopened.get("fp-0000") is None
        for n in range(1, 4):
            assert reopened.get(f"fp-{n:04d}") == record(n)

    def test_quarantine_preserves_the_damaged_bytes(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 2)
        store.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        self._flip_payload_bit(segment)
        damaged = segment.read_bytes()
        reopened = WalStore(tmp_path / "wal")
        quarantined = list(reopened.quarantine_dir.glob("wal-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == damaged
        assert not segment.exists()  # moved, not copied or deleted

    def test_foreign_file_is_quarantined_wholesale(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        fill(store, 1)
        store.close()
        rogue = tmp_path / "wal" / "wal-00000099.seg"
        rogue.write_bytes(b"not a segment at all")
        reopened = WalStore(tmp_path / "wal")
        assert reopened.last_recovery.segments_quarantined == 1
        assert reopened.get("fp-0000") == record(0)
        assert (reopened.quarantine_dir / "wal-00000099.seg").exists()

    def test_get_never_serves_a_record_that_fails_its_crc(self, tmp_path):
        store = WalStore(tmp_path / "wal")
        store.put(record(0))
        # Corrupt the segment *behind the live index* — the re-read
        # verification must catch it.
        segment = tmp_path / "wal" / "wal-00000001.seg"
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF
        segment.write_bytes(bytes(data))
        assert store.get("fp-0000") is None


class TestPreparedLengthMeta:
    """Older services persisted trace-group prepared lengths as meta
    records in the same store; a cache must keep opening such a store
    and never serve those records as results."""

    def test_meta_records_are_never_served_as_results(self, tmp_path):
        from repro.service.cache import ResultCache

        cache = ResultCache(store_dir=str(tmp_path / "wal"))
        cache.store.put({
            "kind": "prepared_length",
            "fingerprint": "plen:pdp11:ED:5000:True",
            "group": ["pdp11", "ED", 5000, True],
            "prepared_length": 4242,
        })
        assert cache.get("plen:pdp11:ED:5000:True") is None
        cache.store.close()


class TestCompaction:
    def test_compact_merges_segments_and_keeps_every_record(self, tmp_path):
        store = WalStore(tmp_path / "wal", segment_bytes=256)
        fill(store, 8)
        assert store.segment_count > 1
        carried = store.compact()
        assert carried == 8
        assert store.segment_count == 1
        for n in range(8):
            assert store.get(f"fp-{n:04d}") == record(n)
        store.close()
        reopened = WalStore(tmp_path / "wal")
        assert len(reopened) == 8

    def test_compacted_segment_is_a_valid_frame_stream(self, tmp_path):
        store = WalStore(tmp_path / "wal", segment_bytes=256)
        fill(store, 5)
        store.compact()
        segment = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = segment.read_bytes()
        assert data.startswith(SEGMENT_MAGIC)
        offset = len(SEGMENT_MAGIC)
        seen = 0
        while offset < len(data):
            length, crc = struct.unpack_from("<II", data, offset)
            payload = data[offset + 8:offset + 8 + length]
            assert zlib.crc32(payload) & 0xFFFFFFFF == crc
            json.loads(payload)
            offset += 8 + length
            seen += 1
        assert seen == 5
