"""JSONL sweep checkpoints: append-only progress, crash-safe resume.

A checkpoint file records one JSON object per line:

* a ``header`` line carrying a format version and a *fingerprint* of
  the sweep (cell keys, trace lengths, policies), so a checkpoint can
  never silently resume a different experiment;
* one ``cell`` line per finished (geometry, trace) cell, holding either
  the measured ratios or a skip reason.

Floats are serialized with ``repr``-exact JSON round-tripping, so a
sweep resumed from checkpoint reproduces the uninterrupted run
bit-identically.  Each record line carries its own CRC; a truncated
final line (the usual crash artifact) is dropped silently, while a
corrupted interior line raises :class:`~repro.errors.ChecksumError`.
"""

from __future__ import annotations

import json
import logging
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.errors import ChecksumError, ConfigurationError

__all__ = [
    "CHECKPOINT_VERSION",
    "FINGERPRINT_PARAMS",
    "CheckpointWriter",
    "LEGACY_FORMATS",
    "legacy_fingerprints",
    "line_crc",
    "load_checkpoint",
    "repair_tail",
    "sweep_fingerprint",
]

logger = logging.getLogger("repro.runner")

#: Format history:
#:
#: * **1** — original format; fingerprint params did not include the
#:   simulation engine.
#: * **2** — the engine name is folded into the fingerprint params.
#: * **3** — the miss-path chain key is folded into the fingerprint
#:   params, and unknown fingerprint params are rejected loudly.
#: * **4** — the sampling key is folded into the fingerprint params
#:   (``"none"`` for exact sweeps), so sampled and exact cells can
#:   never collide in resume or the service cache.
#:
#: Older checkpoints still resume when their fingerprint matches the
#: sweep's *legacy* fingerprint for that version (:data:`LEGACY_FORMATS`).
CHECKPOINT_VERSION = 4

#: version -> (the fingerprint params that version lacked, the params
#: that must be ``"none"`` for resuming it to be sound).  A v3 file
#: resumes only an exact sweep (an unsampled v4 sweep records exactly
#: what a v3 run recorded); v2 and v1 files additionally only a
#: chainless one.  Dropping the engine (v1) is sound because the
#: engines are equivalence-pinned.
LEGACY_FORMATS: Dict[int, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    3: (("sample",), ("sample",)),
    2: (("sample", "miss_path"), ("sample", "miss_path")),
    1: (("sample", "miss_path", "engine"), ("sample", "miss_path")),
}

#: The params a sweep fingerprint may carry.  Closed set by design: a
#: typo'd param (``victim_entires=...``) must fail immediately, not
#: silently fingerprint as a different sweep and orphan the checkpoint.
FINGERPRINT_PARAMS = frozenset(
    {
        "word_size",
        "fetch",
        "replacement",
        "warmup",
        "bus_model",
        "filter_writes",
        "engine",
        "miss_path",
        "sample",
    }
)


def sweep_fingerprint(
    cell_keys: Iterable[str],
    trace_lengths: Iterable[int],
    **params: Any,
) -> str:
    """Stable fingerprint of a sweep's identity.

    Two sweeps share a fingerprint exactly when they simulate the same
    cells over the same-length traces with the same policies, which is
    the condition under which resuming is sound.

    Raises:
        ConfigurationError: For a param outside
            :data:`FINGERPRINT_PARAMS` — unknown keys are rejected
            loudly rather than silently minting a distinct fingerprint.
    """
    unknown = sorted(set(params) - FINGERPRINT_PARAMS)
    if unknown:
        raise ConfigurationError(
            f"unknown fingerprint params {unknown}; "
            f"expected a subset of {sorted(FINGERPRINT_PARAMS)}"
        )
    payload = json.dumps(
        {
            "cells": list(cell_keys),
            "trace_lengths": list(trace_lengths),
            "params": {key: repr(value) for key, value in sorted(params.items())},
        },
        sort_keys=True,
    )
    return f"{zlib.crc32(payload.encode('ascii')) & 0xFFFFFFFF:08x}"


def legacy_fingerprints(
    cell_keys: Sequence[str],
    trace_lengths: Sequence[int],
    params: Dict[str, Any],
) -> Dict[int, str]:
    """The fingerprints the sweep ``params`` had under older formats.

    Only versions whose soundness condition holds (their listed params
    are ``"none"``) are offered; see :data:`LEGACY_FORMATS`.
    """
    return {
        version: sweep_fingerprint(
            cell_keys, trace_lengths,
            **{k: v for k, v in params.items() if k not in lacked},
        )
        for version, (lacked, must_be_none) in LEGACY_FORMATS.items()
        if all(params.get(name) == "none" for name in must_be_none)
    }


def line_crc(record: Dict[str, Any]) -> str:
    """CRC of one JSONL record (sans its own ``crc`` field).

    Shared with the service's result-cache disk tier, so both JSONL
    formats detect corruption the same way.
    """
    body = json.dumps(record, sort_keys=True)
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _line_is_intact(raw: bytes) -> bool:
    """True when one newline-terminated record verifies its CRC."""
    try:
        record = json.loads(raw.decode("utf-8"))
        crc = record.pop("crc", None)
        return crc == line_crc(record)
    except (ValueError, UnicodeDecodeError, AttributeError):
        return False


def repair_tail(path: Union[str, Path]) -> int:
    """Truncate a torn final record off a checkpoint file, warning once.

    A process killed mid-``record_cell`` leaves a final line that is
    unterminated or fails its CRC.  Loading tolerates it, but appending
    *after* it would glue the next record onto the torn bytes and turn
    a recoverable tail into fatal interior corruption — so any writer
    that resumes an existing file repairs the tail first.

    Returns:
        Bytes truncated (0 when the file is absent or already clean).
    """
    path = Path(path)
    if not path.exists():
        return 0
    data = path.read_bytes()
    if not data:
        return 0
    body, _, tail = data.rpartition(b"\n")
    if tail:  # unterminated final line: a torn write by definition
        keep = len(body) + 1 if body else 0
    else:
        # Terminated, but the last full line may still be torn (the
        # crash can land between the payload and its newline flush).
        prev, _, last = body.rpartition(b"\n")
        if not last.strip() or _line_is_intact(last):
            return 0
        keep = len(prev) + 1 if prev else 0
    dropped = len(data) - keep
    with path.open("r+b") as handle:
        handle.truncate(keep)
    logger.warning(
        "%s: dropped a torn final record (%d bytes) left by an "
        "interrupted write; resuming from the last intact cell",
        path, dropped,
    )
    return dropped


class CheckpointWriter:
    """Appends cell records to a checkpoint file, flushing per cell.

    Args:
        path: Checkpoint file; parent directories are created.
        fingerprint: The sweep fingerprint written in the header.
        fresh: Truncate any existing file instead of appending (used
            when a sweep starts over rather than resuming).  Appending
            first repairs a torn tail (:func:`repair_tail`), so a crash
            mid-record can never poison the file for later resumes.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: str,
        fresh: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.path.parent.mkdir(parents=True, exist_ok=True)
        mode = "w" if fresh or not self.path.exists() else "a"
        if mode == "a":
            repair_tail(self.path)
            if self.path.stat().st_size == 0:
                # The torn record was the header itself: start over.
                mode = "w"
        self._handle = self.path.open(mode, encoding="utf-8")
        if mode == "w":
            self._write(
                {
                    "kind": "header",
                    "version": CHECKPOINT_VERSION,
                    "fingerprint": fingerprint,
                }
            )

    def _write(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record["crc"] = line_crc(record)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def record_cell(
        self,
        key: str,
        trace: str,
        status: str,
        ratios: Optional["tuple[float, float, float]"] = None,
        attempts: int = 1,
        reason: str = "",
        stats: Optional[Dict[str, Any]] = None,
        misspath: Optional[Dict[str, int]] = None,
        engine: Optional[str] = None,
    ) -> None:
        """Record one finished cell (``status`` = ``ok`` or ``skipped``).

        Args:
            engine: Optional name of the engine that computed the cell
                (``stackdist``, ``vectorized``, ``reference``, …).
                Omitted from the record when ``None``, so writers that
                do not track engines (the service's checkpoint export)
                produce byte-identical records to older versions.
                Purely informational: the engine never participates in
                the sweep fingerprint, because any engine must produce
                identical ratios for the same cell.
            stats: Optional full counter dump
                (:meth:`repro.core.stats.CacheStats.to_dict`), stored
                verbatim.  The sweep runner records only the ratio
                triple; the service's checkpoint export keeps the whole
                stats object so a cached result survives the round trip
                losslessly.
            misspath: Optional per-structure hit summary
                (:meth:`repro.core.misspath.MissPathStats.hits_summary`)
                for sweeps with a miss-path chain — the same flat form
                the service exposes on ``/metrics``, so checkpointed
                and served results stay interchangeable.
        """
        record: Dict[str, Any] = {
            "kind": "cell",
            "key": key,
            "trace": trace,
            "status": status,
            "attempts": attempts,
        }
        if ratios is not None:
            record["miss"], record["traffic"], record["scaled"] = ratios
        if reason:
            record["reason"] = reason
        if stats is not None:
            record["stats"] = stats
        if misspath is not None:
            record["misspath"] = misspath
        if engine is not None:
            record["engine"] = engine
        self._write(record)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_checkpoint(
    path: Union[str, Path],
    fingerprint: str,
    legacy_fingerprints: Optional[Dict[int, str]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Read completed cells from a checkpoint for resumption.

    Args:
        path: Checkpoint file; a missing file yields no completed cells.
        fingerprint: Expected sweep fingerprint.
        legacy_fingerprints: Per-version map of the fingerprints this
            sweep would have had under older checkpoint formats
            (:func:`legacy_fingerprints`).  A header of such a version
            resumes when its fingerprint matches the mapped value.

    Returns:
        ``{cell key: record}`` for every intact cell line.

    Raises:
        ConfigurationError: If the header is missing or belongs to a
            different sweep (wrong fingerprint or version).
        ChecksumError: If an interior line is corrupted.  A mangled
            *final* line is tolerated as a partial write from a crash.
    """
    path = Path(path)
    if not path.exists():
        return {}
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return {}
    records = []
    bad_interior = None
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            crc = record.pop("crc", None)
            if crc != line_crc(record):
                raise ValueError("crc mismatch")
        except ValueError:
            if index == len(lines) - 1:
                # Torn final write; everything before it is good.
                logger.warning(
                    "%s: ignoring a torn final record (crash artifact); "
                    "the cell it described will be re-run", path,
                )
                break
            bad_interior = index + 1
            break
        records.append(record)
    if bad_interior is not None:
        raise ChecksumError(
            f"{path}: corrupted checkpoint record at line {bad_interior}; "
            "delete the file to restart the sweep from scratch"
        )
    if not records or records[0].get("kind") != "header":
        raise ConfigurationError(
            f"{path}: not a sweep checkpoint (missing header line)"
        )
    header = records[0]
    version = header.get("version")
    legacy = legacy_fingerprints or {}
    if version == CHECKPOINT_VERSION:
        expected = fingerprint
    elif version in legacy:
        expected = legacy[version]
    else:
        raise ConfigurationError(
            f"{path}: checkpoint version {version} is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    if header.get("fingerprint") != expected:
        raise ConfigurationError(
            f"{path}: checkpoint belongs to a different sweep "
            f"(fingerprint {header.get('fingerprint')} != {expected}); "
            "refusing to resume — pass a fresh --checkpoint path"
        )
    return {
        record["key"]: record
        for record in records[1:]
        if record.get("kind") == "cell"
    }
