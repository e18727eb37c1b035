"""Result-cache tests: LRU, WAL-store disk tier, corruption tolerance."""

from __future__ import annotations

import struct

import pytest

from repro.errors import ConfigurationError
from repro.service.cache import CacheEntry, ResultCache
from repro.service.store import SEGMENT_MAGIC


def entry(n: int) -> CacheEntry:
    return CacheEntry(
        fingerprint=f"{n:08x}",
        key=f"1024:16,8@4/T{n}",
        trace=f"T{n}",
        miss=n / 100.0,
        traffic=n / 50.0,
        scaled=n / 75.0,
        stats={"accesses": n},
    )


class TestMemoryTier:
    def test_get_miss_returns_none(self):
        assert ResultCache(maxsize=4).get("deadbeef") is None

    def test_put_then_get(self):
        cache = ResultCache(maxsize=4)
        cache.put(entry(1))
        got, tier = cache.get("00000001")
        assert tier == "memory"
        assert got.miss == 0.01
        assert got.stats == {"accesses": 1}

    def test_lru_evicts_oldest(self):
        cache = ResultCache(maxsize=2)
        cache.put(entry(1))
        cache.put(entry(2))
        cache.put(entry(3))
        assert cache.get("00000001") is None
        assert cache.get("00000002") is not None
        assert len(cache) == 2

    def test_get_refreshes_recency(self):
        cache = ResultCache(maxsize=2)
        cache.put(entry(1))
        cache.put(entry(2))
        cache.get("00000001")  # 1 becomes MRU
        cache.put(entry(3))  # evicts 2, not 1
        assert cache.get("00000001") is not None
        assert cache.get("00000002") is None

    def test_zero_maxsize_rejected(self):
        with pytest.raises(ConfigurationError):
            ResultCache(maxsize=0)


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        first.put(entry(1))
        first.close()
        second = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        got, tier = second.get("00000001")
        assert tier == "disk"
        original = entry(1)
        assert (got.miss, got.traffic, got.scaled) == (
            original.miss, original.traffic, original.scaled
        )
        assert got.stats == {"accesses": 1}

    def test_eviction_falls_back_to_disk_and_promotes(self, tmp_path):
        cache = ResultCache(maxsize=1, store_dir=tmp_path / "wal")
        cache.put(entry(1))
        cache.put(entry(2))  # evicts 1 from memory; disk keeps it
        got, tier = cache.get("00000001")
        assert tier == "disk"
        # Promotion: the second lookup is a memory hit.
        _, tier = cache.get("00000001")
        assert tier == "memory"

    def test_put_is_idempotent_on_disk(self, tmp_path):
        cache = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        cache.put(entry(1))
        cache.put(entry(1))
        assert len(cache.store) == 1

    def test_torn_final_line_is_dropped(self, tmp_path):
        cache = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        cache.put(entry(1))
        cache.put(entry(2))
        cache.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        with segment.open("rb+") as handle:
            handle.seek(-10, 2)
            handle.truncate()  # tear the last record mid-frame
        reopened = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        assert reopened.get("00000001") is not None
        assert reopened.get("00000002") is None
        assert reopened.disk_entries == 1

    def test_interior_corruption_skips_one_record(self, tmp_path):
        cache = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        cache.put(entry(1))
        cache.put(entry(2))
        cache.close()
        segment = tmp_path / "wal" / "wal-00000001.seg"
        data = bytearray(segment.read_bytes())
        length, _ = struct.unpack_from("<II", data, len(SEGMENT_MAGIC))
        # Flip a byte inside the first record; its CRC no longer matches.
        data[len(SEGMENT_MAGIC) + 8 + length // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        reopened = ResultCache(maxsize=4, store_dir=tmp_path / "wal")
        assert reopened.get("00000001") is None  # never serve bad data
        assert reopened.get("00000002") is not None
