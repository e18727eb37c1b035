"""Crash-safe WAL result store: CRC-framed segments, recovery, quarantine.

The service's original disk tier was an append-only JSONL file — fine
until a crash tears a write or a disk flips a bit, at which point the
only options were "drop the tail silently" or "lose the file".  This
module is the durability contract the supervised service is built on:

* **Commits are atomic and fsync'd.**  A record is framed as
  ``[u32 length][u32 crc32(payload)][payload]`` and appended to the
  active segment with a flush + ``os.fsync`` before :meth:`WalStore.put`
  returns.  A record either commits completely or does not exist; a
  SIGKILL can only ever lose the record that was in flight.
* **Recovery truncates torn tails.**  On open, every segment is
  scanned frame by frame.  A torn tail — the usual crash artifact — is
  truncated back to the last intact frame and logged, never treated as
  corruption.
* **Corruption quarantines, never deletes.**  A frame whose CRC fails
  mid-segment means real damage (bit rot, a torn interior rewrite).
  The intact frames around it are *salvaged* into a fresh segment, and
  the damaged original is moved — byte for byte — into ``quarantine/``
  for post-mortem.  The store never serves a record that fails its CRC
  and never unlinks damaged data.
* **Compaction is atomic.**  :meth:`WalStore.compact` rewrites the live
  records into one new segment (written, fsync'd, then renamed into
  place) before the superseded segments are removed.

Segments are named ``wal-<8-digit>.seg`` and begin with an 8-byte
header (magic + version), so a truncated-to-zero file and a foreign
file are both detected.  The record payloads are the JSON objects of
:meth:`~repro.service.cache.CacheEntry.to_record`, which keeps the
store interchangeable with runner checkpoints through
:class:`~repro.service.cache.ResultCache`.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["RecoveryReport", "WalStore", "SEGMENT_MAGIC"]

logger = logging.getLogger("repro.service.store")

#: Segment file header: magic + format version, 8 bytes total.
SEGMENT_MAGIC = b"RPWAL\x00\x00\x01"

#: ``[u32 payload length][u32 crc32(payload)]`` frame prefix.
_FRAME = struct.Struct("<II")

#: Upper bound on one record's payload; a length field above this is
#: treated as corruption rather than followed off a cliff.
_MAX_PAYLOAD = 8 << 20


@dataclass
class RecoveryReport:
    """What :meth:`WalStore.recover` found and did.

    Attributes:
        segments_scanned: Segment files examined.
        records_indexed: Intact records now reachable through the store.
        tails_truncated: Segments whose torn tail was cut back.
        bytes_truncated: Total bytes removed by tail truncation.
        segments_quarantined: Damaged segments moved to ``quarantine/``.
        records_salvaged: Intact records copied out of damaged segments.
        records_damaged: Frames dropped because their CRC failed.
    """

    segments_scanned: int = 0
    records_indexed: int = 0
    tails_truncated: int = 0
    bytes_truncated: int = 0
    segments_quarantined: int = 0
    records_salvaged: int = 0
    records_damaged: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Segment:
    """One live segment file and its append position."""

    path: Path
    size: int
    index: int = field(default=0)


class WalStore:
    """Write-ahead segment store of fingerprint-addressed JSON records.

    Thread-safe; every public method takes the internal lock (the
    service commits results from worker completions while the event
    loop reads).

    Args:
        directory: Store root; created (with ``quarantine/``) if absent.
        segment_bytes: Roll to a new segment once the active one passes
            this size.
        fsync: Issue ``os.fsync`` per commit.  Tests that measure
            throughput may disable it; the durability guarantee only
            holds when it is on (the default).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_bytes: int = 4 << 20,
        fsync: bool = True,
    ) -> None:
        if segment_bytes < len(SEGMENT_MAGIC) + _FRAME.size:
            raise ConfigurationError(
                f"segment_bytes too small: {segment_bytes}"
            )
        self.directory = Path(directory)
        self.quarantine_dir = self.directory / "quarantine"
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self._lock = threading.RLock()
        self._index: "Dict[str, Tuple[Path, int]]" = {}
        self._active: Optional[_Segment] = None
        self._handle = None
        self.directory.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        self.last_recovery = self.recover()

    # -- Segment naming ---------------------------------------------------

    def _segments(self) -> "list[Path]":
        return sorted(self.directory.glob("wal-*.seg"))

    def _next_segment_path(self) -> Path:
        numbers = [0]
        for path in self._segments():
            try:
                numbers.append(int(path.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return self.directory / f"wal-{max(numbers) + 1:08d}.seg"

    # -- Recovery ---------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Scan every segment, repairing tails and quarantining damage.

        Idempotent: a second recovery over an already-clean store
        changes nothing.  Called automatically on construction; exposed
        for the chaos harness and for operators.
        """
        with self._lock:
            self._close_handle()
            report = RecoveryReport()
            self._index.clear()
            for path in self._segments():
                report.segments_scanned += 1
                self._recover_segment(path, report)
            self._active = None
            return report

    def _recover_segment(self, path: Path, report: RecoveryReport) -> None:
        data = path.read_bytes()
        if not data.startswith(SEGMENT_MAGIC):
            logger.warning("%s: bad segment header; quarantining", path)
            self._quarantine(path)
            report.segments_quarantined += 1
            return
        frames, good_end, damaged = self._scan_frames(data)
        if damaged:
            # Interior corruption: salvage the intact frames into a new
            # segment, then move the damaged original aside untouched.
            salvage_path = self._next_segment_path()
            self._write_segment(salvage_path, [f[1] for f in frames])
            self._quarantine(path)
            report.segments_quarantined += 1
            report.records_salvaged += len(frames)
            report.records_damaged += damaged
            logger.warning(
                "%s: %d damaged frame(s); salvaged %d intact record(s) "
                "into %s and quarantined the original",
                path, damaged, len(frames), salvage_path.name,
            )
            self._index_segment(salvage_path, report)
            return
        if good_end < len(data):
            dropped = len(data) - good_end
            with path.open("r+b") as handle:
                handle.truncate(good_end)
            report.tails_truncated += 1
            report.bytes_truncated += dropped
            logger.warning(
                "%s: truncated a torn %d-byte tail left by a crash",
                path, dropped,
            )
        for offset, payload in frames:
            record = self._decode(payload)
            if record is not None:
                self._index[record["fingerprint"]] = (path, offset)
                report.records_indexed += 1

    def _scan_frames(
        self, data: bytes
    ) -> "Tuple[list[Tuple[int, bytes]], int, int]":
        """Walk one segment's frames.

        Returns:
            ``(frames, good_end, damaged)`` — intact ``(offset,
            payload)`` pairs, the byte offset up to which the segment
            is a clean prefix, and the count of CRC-failed frames.
            ``damaged > 0`` means interior corruption (a bad CRC with
            plausible framing), as opposed to a torn tail, which ends
            the scan without counting as damage.
        """
        frames: "list[Tuple[int, bytes]]" = []
        damaged = 0
        offset = len(SEGMENT_MAGIC)
        good_end = offset
        while offset + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            start = offset + _FRAME.size
            end = start + length
            if length > _MAX_PAYLOAD or end > len(data):
                # Framing runs off the end of the file: a torn tail
                # (or corruption of the final length field, which is
                # indistinguishable from one and equally truncatable).
                break
            payload = data[start:end]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                damaged += 1
                offset = end  # framing is plausible: try to resync
                continue
            frames.append((offset, payload))
            offset = end
            if not damaged:
                good_end = end
        return frames, good_end, damaged

    def _quarantine(self, path: Path) -> None:
        target = self.quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_dir / f"{path.name}.{suffix}"
        os.replace(path, target)

    def _write_segment(self, path: Path, payloads: "list[bytes]") -> None:
        """Write a whole segment atomically (tmp + fsync + rename)."""
        tmp = path.with_suffix(".seg.tmp")
        with tmp.open("wb") as handle:
            handle.write(SEGMENT_MAGIC)
            for payload in payloads:
                handle.write(
                    _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
                )
                handle.write(payload)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _index_segment(self, path: Path, report: RecoveryReport) -> None:
        data = path.read_bytes()
        frames, _, _ = self._scan_frames(data)
        for offset, payload in frames:
            record = self._decode(payload)
            if record is not None:
                self._index[record["fingerprint"]] = (path, offset)
                report.records_indexed += 1

    @staticmethod
    def _decode(payload: bytes) -> Optional[Dict[str, Any]]:
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(record, dict) or "fingerprint" not in record:
            return None
        return record

    # -- Commit path ------------------------------------------------------

    def _open_active(self) -> _Segment:
        if self._active is None or self._active.size >= self.segment_bytes:
            self._close_handle()
            segments = self._segments()
            if segments and segments[-1].stat().st_size < self.segment_bytes:
                path = segments[-1]
            else:
                path = self._next_segment_path()
                with path.open("wb") as handle:
                    handle.write(SEGMENT_MAGIC)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
            self._active = _Segment(path=path, size=path.stat().st_size)
        if self._handle is None:
            self._handle = self._active.path.open("ab")
        return self._active

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def put(self, record: Dict[str, Any]) -> None:
        """Durably commit one record (atomic, fsync'd, idempotent).

        Raises:
            ConfigurationError: If the record has no ``fingerprint``.
        """
        fingerprint = record.get("fingerprint")
        if not fingerprint:
            raise ConfigurationError("store records need a 'fingerprint'")
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        with self._lock:
            if fingerprint in self._index:
                return
            segment = self._open_active()
            assert self._handle is not None
            offset = segment.size
            self._handle.write(
                _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            )
            self._handle.write(payload)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            segment.size = offset + _FRAME.size + len(payload)
            self._index[fingerprint] = (segment.path, offset)

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """One committed record, re-verified against its CRC, or None."""
        with self._lock:
            located = self._index.get(fingerprint)
            if located is None:
                return None
            path, offset = located
            try:
                with path.open("rb") as handle:
                    handle.seek(offset)
                    prefix = handle.read(_FRAME.size)
                    if len(prefix) < _FRAME.size:
                        raise ValueError("short frame")
                    length, crc = _FRAME.unpack(prefix)
                    if length > _MAX_PAYLOAD:
                        raise ValueError("implausible length")
                    payload = handle.read(length)
            except (OSError, ValueError):
                del self._index[fingerprint]
                return None
            if (
                len(payload) != length
                or zlib.crc32(payload) & 0xFFFFFFFF != crc
            ):
                # The file changed under us; never serve unverified data.
                del self._index[fingerprint]
                return None
            record = self._decode(payload)
            if record is None or record.get("fingerprint") != fingerprint:
                del self._index[fingerprint]
                return None
            return record

    # -- Maintenance ------------------------------------------------------

    def compact(self) -> int:
        """Merge every live record into one fresh segment.

        The new segment is written and fsync'd before any superseded
        segment is unlinked, so a crash at any point leaves either the
        old layout or the new one — never less data.

        Returns:
            Number of records carried into the compacted segment.
        """
        with self._lock:
            old_paths = self._segments()
            if not old_paths:
                return 0
            self._close_handle()
            records = []
            for fingerprint in sorted(self._index):
                record = self.get(fingerprint)
                if record is not None:
                    records.append(
                        json.dumps(record, sort_keys=True).encode("utf-8")
                    )
            target = self._next_segment_path()
            self._write_segment(target, records)
            report = RecoveryReport()
            self._index.clear()
            self._index_segment(target, report)
            for path in old_paths:
                path.unlink()
            self._active = None
            return len(records)

    def flush(self) -> None:
        """Flush and fsync the active segment (drain-time barrier)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            self._close_handle()
            self._active = None

    # -- Introspection ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def fingerprints(self) -> "list[str]":
        with self._lock:
            return sorted(self._index)

    def records(self) -> Iterator[Dict[str, Any]]:
        """Every live record (snapshot order: sorted by fingerprint)."""
        for fingerprint in self.fingerprints():
            record = self.get(fingerprint)
            if record is not None:
                yield record

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments())

    @property
    def quarantined_count(self) -> int:
        with self._lock:
            return len(list(self.quarantine_dir.glob("wal-*")))

    def describe(self) -> Dict[str, Any]:
        """Health-endpoint summary of the store's state."""
        with self._lock:
            return {
                "records": len(self._index),
                "segments": self.segment_count,
                "quarantined": self.quarantined_count,
                "recovery": self.last_recovery.to_dict(),
            }
