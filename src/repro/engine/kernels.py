"""Array kernels for the vectorized batch engine.

The decode kernels turn a trace's structure-of-arrays columns into the
per-access quantities the simulation loop needs — block address, set
index, tag, needed-sub-block mask — in a handful of whole-trace NumPy
operations instead of per-``Access`` Python arithmetic.  They are pure
functions of the trace columns and a few geometry scalars, which is
what lets :class:`repro.engine.traceview.TraceView` cache their outputs
and reuse them across every geometry of a sweep that shares the
relevant parameters.

:class:`FetchPlanCache` is the "compiled" form of a fetch policy: a
fetch plan is a pure function of ``(missing mask, valid mask)`` for a
fixed geometry, so the policy is consulted once per distinct mask pair
and every further miss with the same masks replays the memoized costs
(computed by :func:`repro.core.accounting.plan_costs`, the same rule
the reference cache applies per miss).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.accounting import plan_costs
from repro.core.fetch import FetchPolicy
from repro.trace.record import AccessType

__all__ = [
    "effective_sizes",
    "needed_masks",
    "run_starts",
    "mru_hits",
    "FetchPlanCache",
]

_WRITE = int(AccessType.WRITE)


def effective_sizes(sizes: np.ndarray, word_size: int) -> np.ndarray:
    """Per-access byte counts with the cache's zero-means-word default."""
    esz = sizes.astype(np.int64)
    if (esz <= 0).any():
        esz = np.where(esz <= 0, np.int64(word_size), esz)
    return esz


def needed_masks(
    addrs: np.ndarray,
    esz: np.ndarray,
    block_size: int,
    sub_block_size: int,
) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Decode the sub-block demand of every access.

    Returns:
        ``(block0, needed, span)`` — the first block address touched,
        the needed-sub-block mask *within that first block*, and a
        boolean mask of accesses that spill into a following block
        (those take the engine's scalar multi-block path, where the
        mask is recomputed per block).  The masks are int64 below 63
        sub-blocks per block and Python integers (an object array) from
        63 on, where an int64 mask would wrap.
    """
    block0 = addrs // block_size
    end = addrs + esz - 1
    span = (end // block_size) != block0
    offset = addrs - block0 * block_size
    first_sub = offset // sub_block_size
    last_in_block = np.minimum(end - block0 * block_size, block_size - 1)
    last_sub = last_in_block // sub_block_size
    width = last_sub - first_sub + 1
    if block_size // sub_block_size < 63:
        needed = ((np.int64(1) << width) - 1) << first_sub
    else:
        needed = ((1 << width.astype(object)) - 1) << first_sub.astype(object)
    return block0, needed, span


def run_starts(
    block0: np.ndarray,
    kinds: np.ndarray,
    needed: np.ndarray,
    esz: np.ndarray,
    span: np.ndarray,
) -> np.ndarray:
    """Start indices of maximal runs of *identical* accesses.

    Two adjacent accesses belong to one run when they touch the same
    block with the same kind, needed mask, and size (and neither spans
    blocks).  After the first access of a run the cache state is fixed,
    so the engine bulk-accounts the repeats — the vectorized analogue
    of the reference loop's per-access work.
    """
    if len(block0) == 0:
        return np.empty(0, dtype=np.int64)
    same = (
        (block0[1:] == block0[:-1])
        & (kinds[1:] == kinds[:-1])
        & (needed[1:] == needed[:-1])
        & (esz[1:] == esz[:-1])
        & ~span[1:]
        & ~span[:-1]
    )
    breaks = np.flatnonzero(~same) + 1
    return np.concatenate((np.zeros(1, dtype=np.int64), breaks))


def mru_hits(
    starts: np.ndarray,
    sets: np.ndarray,
    tags: np.ndarray,
    kinds: np.ndarray,
    needed: np.ndarray,
    span: np.ndarray,
) -> np.ndarray:
    """Which run heads are set-local MRU read hits (a boolean per head).

    Such a head is a non-spanning read whose set's previous head
    touched the same block, with no spanning access since, and whose
    needed sub-blocks were all needed by earlier reads of that
    same-set, same-block stretch.  The block is then resident, most
    recently used and holds the sub-blocks, so under a policy with
    idempotent hits the access changes nothing but the access counters.

    One stable sort groups the heads by set (trace order within a set);
    a stretch breaks at a new set or block, at a spanning head and
    after one, and across any spanning head elsewhere (whose spill may
    evict in another set).  Coverage is a segmented OR-scan of the read
    masks, taken one sub-block bit at a time.
    """
    h = len(starts)
    if h == 0:
        return np.zeros(0, dtype=bool)
    head_set = sets[starts]
    head_span = span[starts]
    # A stable sort of 16-bit keys is a radix sort: ~10x a 64-bit one.
    key = head_set.astype(np.uint16) if head_set.max() <= 0xFFFF else head_set
    order = np.argsort(key, kind="stable")
    at = starts[order]
    s_set = head_set[order]
    s_tag = tags[at]
    s_need = needed[at]
    s_read = kinds[at] != _WRITE
    new = np.ones(h, dtype=bool)
    new[1:] = (s_set[1:] != s_set[:-1]) | (s_tag[1:] != s_tag[:-1])
    if head_span.any():
        # The epoch steps at every spanning head, so no stretch runs
        # across one; the head after it in its set starts anew, which
        # leaves the spanning head a stretch of its own.
        s_epoch = np.cumsum(head_span)[order]
        new[1:] |= (s_epoch[1:] != s_epoch[:-1]) | head_span[order][:-1]
    hit = s_read & ~new
    if not hit.any():
        return np.zeros(h, dtype=bool)
    stretch = np.maximum.accumulate(np.where(new, np.arange(h), 0))
    read_need = np.where(s_read, s_need, 0)
    bits = int(np.bitwise_or.reduce(s_need[hit]))
    for b in range(bits.bit_length()):
        if not (bits >> b) & 1:
            continue
        # The reads needing this sub-block, in stretch order: one has
        # it covered iff the previous such read lies in its stretch.
        reads = np.flatnonzero(read_need & (1 << b))
        hit[reads[0]] = False
        hit[reads[1:][reads[:-1] < stretch[reads[1:]]]] = False
    skip = np.empty(h, dtype=bool)
    skip[order] = hit
    return skip


class FetchPlanCache:
    """Memoized fetch-policy costs for one (geometry, policy) pair.

    Args:
        fetch: The fetch policy to compile.  Plans must be pure
            functions of the mask arguments (all built-in policies
            are); a stateful policy cannot be memoized and must run on
            the reference engine.
        sub_block_size / word_size / sub_blocks_per_block: Geometry
            scalars fixed for the run.
    """

    __slots__ = ("_fetch", "_sub", "_word", "_spb", "_plans")

    def __init__(
        self,
        fetch: FetchPolicy,
        sub_block_size: int,
        word_size: int,
        sub_blocks_per_block: int,
    ) -> None:
        self._fetch = fetch
        self._sub = sub_block_size
        self._word = word_size
        self._spb = sub_blocks_per_block
        self._plans: Dict[
            Tuple[int, int], Tuple[int, Tuple[int, ...], int, int]
        ] = {}

    def lookup(
        self, missing: int, valid: int
    ) -> Tuple[int, Tuple[int, ...], int, int]:
        """Costs of one miss: ``(fetch_mask, words, fetched, redundant)``.

        ``words`` is the per-transaction word-count tuple feeding the
        nibble-mode histogram; ``fetched`` / ``redundant`` are byte
        totals.
        """
        key = (missing, valid)
        entry = self._plans.get(key)
        if entry is None:
            first_needed = (missing & -missing).bit_length() - 1
            plan = self._fetch.plan(missing, first_needed, valid, self._spb)
            words, fetched, redundant = plan_costs(plan, self._sub, self._word)
            entry = (plan.fetch_mask, words, fetched, redundant)
            self._plans[key] = entry
        return entry
