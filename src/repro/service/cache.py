"""Content-addressed result cache: memory LRU plus a WAL-store disk tier.

An entry is one finished simulation cell, addressed by the checkpoint
fingerprint of the single-cell sweep it denotes
(:meth:`repro.service.query.SimQuery.fingerprint`).  Content addressing
buys two properties at once:

* served results and runner results are interchangeable — an entry can
  be exported as a valid v2 sweep checkpoint that ``--resume`` accepts
  (:meth:`ResultCache.export_checkpoint`), and a runner checkpoint can
  seed the cache (:meth:`ResultCache.seed_from_checkpoint`);
* a stale hit is structurally impossible: any change to the trace, the
  geometry, or an execution option changes the address.

Tiering: the memory LRU serves the hot set; the optional disk tier is
the crash-safe WAL segment store (``store_dir``,
:class:`repro.service.store.WalStore`) — fsync'd atomic commits,
torn-tail truncation, and quarantine of corrupt segments — so that a
SIGKILL can never lose or corrupt a committed result.  The cache may
lose entries, never serve bad ones, and the checkpoint interop surface
(:meth:`ResultCache.export_checkpoint`,
:meth:`ResultCache.seed_from_checkpoint`) works with or without it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.runner.checkpoint import CheckpointWriter, load_checkpoint
from repro.service.store import WalStore

__all__ = ["CacheEntry", "ResultCache"]


@dataclass(frozen=True)
class CacheEntry:
    """One cached simulation result.

    Attributes:
        fingerprint: Content address (single-cell sweep fingerprint).
        key: The runner's cell key (``net:block,sub@assoc/trace``).
        trace: Trace name.
        miss / traffic / scaled: The ratio triple a sweep cell records.
        stats: Full counter dump
            (:meth:`repro.core.stats.CacheStats.to_dict`).
        engine: Resolved engine that actually executed the run.
    """

    fingerprint: str
    key: str
    trace: str
    miss: float
    traffic: float
    scaled: float
    stats: Dict[str, Any] = field(hash=False)
    engine: str = "auto"

    def to_record(self) -> Dict[str, Any]:
        """The disk-tier record (the WAL store frames it with a CRC)."""
        return {
            "kind": "result",
            "fingerprint": self.fingerprint,
            "key": self.key,
            "trace": self.trace,
            "miss": self.miss,
            "traffic": self.traffic,
            "scaled": self.scaled,
            "stats": self.stats,
            "engine": self.engine,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "CacheEntry":
        return cls(
            fingerprint=record["fingerprint"],
            key=record["key"],
            trace=record["trace"],
            miss=record["miss"],
            traffic=record["traffic"],
            scaled=record["scaled"],
            stats=record.get("stats", {}),
            engine=record.get("engine", "auto"),
        )


class ResultCache:
    """Two-tier (memory LRU + WAL store) cache of simulation results.

    Thread-safe: the service's worker pool completes cells off the
    event-loop thread, so every public method takes the internal lock.

    Args:
        maxsize: Memory-tier capacity in entries.
        store_dir: Crash-safe WAL store directory
            (:class:`repro.service.store.WalStore`); None keeps the
            cache memory-only.  Recovery (tail truncation, quarantine)
            runs during construction.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        store_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.store: Optional[WalStore] = (
            WalStore(store_dir) if store_dir is not None else None
        )

    # -- Cache protocol ---------------------------------------------------

    def get(self, fingerprint: str) -> "Optional[tuple[CacheEntry, str]]":
        """Look up a result; returns ``(entry, tier)`` or None.

        ``tier`` is ``"memory"`` or ``"disk"``; a disk hit is promoted
        into the memory LRU.
        """
        with self._lock:
            entry = self._memory.get(fingerprint)
            if entry is not None:
                self._memory.move_to_end(fingerprint)
                return entry, "memory"
            if self.store is not None:
                record = self.store.get(fingerprint)
                if record is not None and record.get("kind") == "result":
                    entry = CacheEntry.from_record(record)
                    self._insert_memory(entry)
                    return entry, "disk"
            return None

    def put(self, entry: CacheEntry) -> None:
        """Insert a finished result into both tiers (idempotent).

        With a WAL store the entry is durably committed (fsync'd)
        before this returns: a kill -9 one instruction later loses
        nothing.
        """
        with self._lock:
            self._insert_memory(entry)
            if self.store is not None:
                self.store.put(entry.to_record())

    def _insert_memory(self, entry: CacheEntry) -> None:
        self._memory[entry.fingerprint] = entry
        self._memory.move_to_end(entry.fingerprint)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    @property
    def disk_entries(self) -> int:
        """Entries reachable through the disk tier."""
        with self._lock:
            return len(self.store) if self.store is not None else 0

    def flush(self) -> None:
        """Durability barrier: fsync the WAL tier (drain path).

        A no-op for memory-only caches.
        """
        with self._lock:
            if self.store is not None:
                self.store.flush()

    def close(self) -> None:
        with self._lock:
            if self.store is not None:
                self.store.close()

    # -- Checkpoint interoperability --------------------------------------

    def export_checkpoint(
        self, fingerprint: str, path: Union[str, Path]
    ) -> None:
        """Write one entry as a v2 sweep checkpoint file.

        The file is exactly what :func:`repro.runner.runner.run_sweep`
        would have written for the single-cell sweep the entry denotes,
        so ``--checkpoint path --resume`` reuses the served result
        without re-simulating.

        Raises:
            ConfigurationError: If the fingerprint is not cached.
        """
        found = self.get(fingerprint)
        if found is None:
            raise ConfigurationError(
                f"no cached result with fingerprint {fingerprint}"
            )
        entry, _ = found
        with CheckpointWriter(path, fingerprint, fresh=True) as writer:
            writer.record_cell(
                entry.key,
                entry.trace,
                "ok",
                ratios=(entry.miss, entry.traffic, entry.scaled),
                stats=entry.stats,
            )

    def seed_from_checkpoint(
        self, path: Union[str, Path], fingerprint: str
    ) -> int:
        """Load a sweep checkpoint's completed cells into the cache.

        Only sound for a *single-cell* sweep checkpoint, where the
        sweep fingerprint and the result fingerprint coincide; a
        multi-cell file is rejected because its cells have no
        individual content addresses.

        Returns:
            Number of entries added (0 or 1: skipped cells don't seed).

        Raises:
            ConfigurationError: On a fingerprint mismatch or a
                checkpoint holding more than one cell.
        """
        cells = load_checkpoint(path, fingerprint)
        if len(cells) > 1:
            raise ConfigurationError(
                f"{path}: checkpoint holds {len(cells)} cells; only "
                "single-cell checkpoints are content-addressable"
            )
        added = 0
        for key, record in cells.items():
            if record.get("status") != "ok":
                continue
            self.put(
                CacheEntry(
                    fingerprint=fingerprint,
                    key=key,
                    trace=record["trace"],
                    miss=record["miss"],
                    traffic=record["traffic"],
                    scaled=record["scaled"],
                    stats=record.get("stats", {}),
                )
            )
            added += 1
        return added
