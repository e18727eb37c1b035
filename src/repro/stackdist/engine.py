"""One-pass Mattson stack-distance engine for LRU sweep grids.

The paper picks LRU partly because "LRU permits more efficient
simulation": Mattson's inclusion property means one recency stack per
cache set answers *every* associativity at once.  This module pushes
that idea through the full sub-block cache model: one pass over a
trace, per (block_size, num_sets) *pass group*, produces the complete
17-counter :class:`~repro.core.stats.CacheStats` — bit-identical to the
reference simulator — for every (associativity, sub_block_size, warmup,
fetch) member cell sharing that group.  The pass is whole-trace array
code: no step walks the trace one reference at a time.

Distances
---------

An access is split into per-block *portions*.  The stack distance
``d`` of a portion (1 = most recent) is one plus the number of distinct
blocks its set saw since the previous touch of its block.  With the
portions sorted by set (stable in time) and immediate repeats of a
block dropped (each has ``d = 1``), that count is the number of
positions ``k`` in ``(prev, i)`` whose next occurrence lies after
``i``, which equals ``i - prev - #{j < i : prev[j] > prev}``.  The last
term is a prefix count over the ``prev`` array; :func:`_count_above`
answers every such query at once with a merge-sort tree (one sorted
array per level, one ``searchsorted`` per level), ``O(n log n)``.
:func:`set_distances` is that kernel; :func:`distance_histogram`
reads it too.

A pass only asks whether ``d`` exceeds each member's ways, so it hands
the kernel ``near``, its smallest member's ways: a reuse at most
``near`` positions after its block's previous touch takes that gap
``i - prev``, an upper bound on ``d`` of at most ``near``, and skips
the prefix count.  Every member still reads ``d > A`` exactly;
:func:`set_distances` stays exact (``near = 0``).

The portions, their block order and everything derived from it
depend on the block size and word size but not on the set count (bit
selection), so :class:`_Blocks` holds them once and a one-slot memo
hands them to the next pass over the same trace and block size: a
sweep's groups come sorted by ``(block_size, num_sets)``.  Only the
set order and the distances (:class:`_Walk`) are built per pass.

Per member
----------

For a set-associative LRU cache of ``A`` ways, a portion hits the tag
iff ``d <= A`` — valid whenever every access allocates, which is why
the engine only accepts read/ifetch traces (non-allocating write
misses skip the recency update and break inclusion).  Tag hits do not
depend on the fetch policy.  With the portions sorted by block (stable
in time):

* a portion with ``d > A`` *fills* the block (a block miss), and a
  *residency* runs from a fill to the block's next fill;
* under demand fetch a needed sub-block of any other portion is valid
  iff its previous touch comes at or after the block's last fill
  (needed == fetched == valid == referenced), so the missing ones, the
  sub-block misses and their transaction runs are array comparisons;
* under load-forward a resident block's valid sub-blocks are a suffix
  ``[m, S)``: a fill starts at ``m = S``, a portion whose first needed
  sub-block ``a`` lies below ``m`` misses with one transaction from
  ``a`` (through ``S``, or up to ``m`` for the optimized scheme) and
  leaves ``m = a``, so ``m`` is a segmented running minimum of ``a``;
* a residency ends in an eviction iff the block is refilled
  (``d > A``) or at least ``A`` distinct blocks follow its last access
  in the set; the eviction charges the residency's referenced
  sub-blocks (the union of those its portions needed) to
  ``evicted_sub_blocks_referenced``.  ``flush_at_end`` evicts the
  residencies that end with fewer than ``A`` blocks after them.

The fills, residencies, counted events and eviction charges depend
only on ``A`` and the warm-up end ``min_t``, so members sharing both
share one residency frame (:class:`_Frame`); only the sub-block and
fetch work is per member.

Warm-up resets at a time ``min_t`` and every event is filtered by its
time.  ``warmup=N`` gives ``min_t = N`` (the reset fires at the end of
access ``N-1``, exactly :func:`repro.core.sim.simulate`'s countdown);
``"fill"`` resets after the access that brings the cold rank ``A-1``
block into the last set to fill.  A residency whose last access falls
before ``min_t`` and whose refill (if any) falls after it was evicted
before the reset iff its block is deeper than ``A`` in the set's stack
at the boundary — one prefix count over the set-sorted order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.fetch import FETCH_NAMES
from repro.core.stats import CacheStats
from repro.errors import ConfigurationError, DeadlineExceededError
from repro.trace.record import AccessType

__all__ = ["MemberSpec", "distance_histogram", "run_group_pass", "set_distances"]

_KIND_OF = (AccessType.READ, AccessType.WRITE, AccessType.IFETCH)


@dataclass(frozen=True)
class MemberSpec:
    """One cell a pass group answers: (ways, sub-block size, warmup, fetch).

    ``ways`` is the geometry-resolved associativity (after the
    num_blocks clamp), ``sub_block_size`` divides the group's block
    size, ``warmup`` is the cell's warm-up mode (an access count or
    ``"fill"``), and ``fetch`` is the fetch policy's name (one of
    :data:`~repro.core.fetch.FETCH_NAMES`, as
    :meth:`~repro.engine.batch.CellSpec.of` spells it).
    """

    ways: int
    sub_block_size: int
    warmup: Union[int, str] = "fill"
    fetch: str = "demand"


def _validate(
    block_size: int,
    num_sets: int,
    members: Sequence[MemberSpec],
    word_size: int,
) -> None:
    if block_size < 1 or num_sets < 1 or word_size < 1:
        raise ConfigurationError(
            f"bad pass-group shape: block_size={block_size} "
            f"num_sets={num_sets} word_size={word_size}"
        )
    if not members:
        raise ConfigurationError("a pass group needs at least one member")
    for member in members:
        if member.ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {member.ways}")
        sub = member.sub_block_size
        if sub < 1 or block_size % sub:
            raise ConfigurationError(
                f"sub_block_size {sub} does not divide block_size {block_size}"
            )
        warmup = member.warmup
        if isinstance(warmup, bool) or not isinstance(warmup, (int, str)):
            raise ConfigurationError(f"bad warmup {warmup!r}")
        if isinstance(warmup, str) and warmup != "fill":
            raise ConfigurationError(f"bad warmup {warmup!r}")
        if isinstance(warmup, int) and warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        if member.fetch not in FETCH_NAMES:
            raise ConfigurationError(
                f"unknown fetch policy {member.fetch!r}; choose from "
                f"{list(FETCH_NAMES)}"
            )


def _portions(
    addrs: Any, eff: Any, block_size: int, n: int
) -> Tuple[Any, Any, Any, Any]:
    """Flatten accesses into per-block portions (t, block, lo, hi)."""
    fb = addrs // block_size
    last = (addrs + eff - 1) // block_size
    nport = last - fb + 1
    if n == 0 or int(nport.max()) == 1:
        tvec = np.arange(n, dtype=np.int64)
        pb = fb
        plo = addrs - fb * block_size
        phi = plo + eff - 1
    else:
        total = int(nport.sum())
        tvec = np.repeat(np.arange(n, dtype=np.int64), nport)
        starts = np.cumsum(nport) - nport
        off = np.arange(total, dtype=np.int64) - np.repeat(starts, nport)
        pb = np.repeat(fb, nport) + off
        base = pb * block_size
        a_rep = np.repeat(addrs, nport)
        plo = np.maximum(a_rep, base) - base
        phi = np.minimum(a_rep + np.repeat(eff, nport), base + block_size) - 1 - base
    return tvec, pb, plo, phi


def _stable_argsort(keys: Any) -> Any:
    """``np.argsort(keys, kind="stable")`` for non-negative int64 keys.

    Sorts one packed word per element (key high, index low): numpy's
    value sort does that 5-9x faster than a stable argsort of 10k-100k
    keys, and the table7 passes run about 14% longer without it.  Keys
    too wide to pack take the argsort.
    """
    total = len(keys)
    bits = max(total - 1, 1).bit_length()
    if total == 0 or int(keys.min()) < 0 or int(keys.max()) >> (62 - bits):
        return np.argsort(keys, kind="stable")
    packed = (keys << bits) | np.arange(total, dtype=np.int64)
    packed.sort()
    return packed & ((1 << bits) - 1)


def _count_above(values: Any, ends: Any, floors: Any) -> Any:
    """For each query ``q``: ``#{j < ends[q] : values[j] > floors[q]}``.

    A merge-sort tree over ``values`` (which lie in ``[-1, len)``):
    level ``L`` holds the values sorted within aligned blocks of
    ``2**L``, flattened into one globally sorted key array
    (``block * width + value``).  A prefix ``[0, end)`` is the union
    of one aligned block per set bit of ``end``, so each level answers
    every query with one ``searchsorted``.
    """
    m = len(values)
    counts = np.zeros(len(ends), dtype=np.int64)
    if not len(ends):
        return counts
    width = m + 2
    pos = np.arange(m, dtype=np.int64)
    keys = pos * width + (values + 1)
    top = int(ends.max())
    shift = 0
    while (1 << shift) <= top:
        span = 1 << shift
        hit = np.flatnonzero(ends & span)
        if len(hit):
            start = ends[hit] & ~(2 * span - 1)
            probe = (start >> shift) * width + floors[hit] + 1
            counts[hit] += start + span - np.searchsorted(keys, probe, side="right")
        if (span << 1) > top:
            break
        keys = keys + ((pos >> (shift + 1)) - (pos >> shift)) * width
        keys.sort()
        shift += 1
    return counts


def set_distances(blocks: Any, sets: Any) -> Any:
    """Exact per-set LRU stack distance of every reference.

    ``blocks[i]`` is referenced in set ``sets[i]``, in order.  Returns
    an int64 array: 1 for an immediate re-reference, 1 + the number of
    distinct blocks the set saw since the block's previous reference
    otherwise, and 0 for a cold first reference.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    sets = np.asarray(sets, dtype=np.int64)
    return _distances(blocks, _stable_argsort(sets))


def _distances(blocks: Any, order: Any, near: int = 0) -> Any:
    """:func:`set_distances`, given ``order``: a stable argsort of the sets.

    A reuse at most ``near`` set positions after its block's previous
    touch gets that gap instead of its exact distance.  The gap bounds
    the distance from above, so a caller that only asks whether a
    distance exceeds some ``ways >= near`` reads the same answer, and
    those reuses skip the prefix count.
    """
    total = len(blocks)
    dist = np.zeros(total, dtype=np.int64)
    if total == 0:
        return dist
    seq = blocks[order]
    head = np.ones(total, dtype=bool)
    head[1:] = seq[1:] != seq[:-1]
    dist[order[~head]] = 1
    kept = order[head]
    uniq = seq[head]
    by_block = _stable_argsort(uniq)
    again = uniq[by_block[1:]] == uniq[by_block[:-1]]
    prev = np.full(len(uniq), -1, dtype=np.int64)
    prev[by_block[1:][again]] = by_block[:-1][again]
    later = np.flatnonzero(prev >= 0)  # ascending, so the probes are too
    earlier = prev[later]
    gap = later - earlier
    far = np.flatnonzero(gap > near)
    gap[far] -= _count_above(prev, later[far], earlier[far])
    dist[kept[later]] = gap
    return dist


class _Blocks:
    """The set-count-free state of one trace at one block and word size.

    Portions are held in *block order* (sorted by block, stable in
    time), so each block's history is one contiguous run.  Under bit
    selection none of this depends on the set count, so every pass of
    one block size reuses it (:func:`_block_state`).
    """

    def __init__(
        self, trace: Any, block_size: int, word_size: int
    ) -> None:
        addrs = np.asarray(trace.addrs, dtype=np.int64)
        kinds = np.asarray(trace.kinds)
        sizes = np.asarray(trace.sizes)
        n = len(addrs)
        if n and bool((kinds == int(AccessType.WRITE)).any()):
            raise ConfigurationError(
                "stackdist pass groups cover read/ifetch traces only; "
                "filter writes or fall back to a per-cell engine"
            )
        self.n = n
        self.kinds = kinds
        self.sizes = sizes
        eff = np.where(sizes > 0, sizes.astype(np.int64), word_size)
        tvec, pb, plo, phi = _portions(addrs, eff, block_size, n)
        total = len(pb)
        self.total = total
        self.pb = pb  # block of each portion, in trace order
        bo = _stable_argsort(pb)
        # Trace order of each portion (by time, then address).
        self.order = bo
        self.t = tvec[bo]
        self.lo = plo[bo]
        self.hi = phi[bo]
        block = pb[bo]
        first = np.ones(total, dtype=bool)
        first[1:] = block[1:] != block[:-1]
        self.first = first
        last = np.ones(total, dtype=bool)
        last[:-1] = first[1:]
        self.last = last
        self.block_id = np.cumsum(first) - 1
        # Time of the block's next portion (past the end if none).
        tnext = np.full(total, n + 1, dtype=np.int64)
        tnext[:-1] = np.where(last[:-1], n + 1, self.t[1:])
        self.tnext = tnext
        self._granules: Dict[int, Tuple[Optional[Any], Any, Optional[Any]]] = {}

    def granules(self, sub: int) -> Tuple[Optional[Any], Any, Optional[Any]]:
        """Needed sub-blocks of size ``sub``, one row per (portion, j).

        Returns ``(owner, prev_touch, run_head)``: the owning portion
        (block order), the block-order position of the previous portion
        that needed the same sub-block of the same block (-1 if none),
        and whether the row starts its portion.  When every portion
        needs exactly one sub-block the rows are the portions, and
        ``owner`` and ``run_head`` are None.
        """
        cached = self._granules.get(sub)
        if cached is not None:
            return cached
        total = self.total
        first_j = self.lo // sub
        count = self.hi // sub - first_j + 1
        owner: Optional[Any] = None
        head: Optional[Any] = None
        # Usually every portion needs one sub-block; skipping the
        # repeat, reduceat and run bincount then saves about a fifth of
        # the table7 pass time.
        if total == 0 or int(count.max()) == 1:
            j = first_j
            ids = self.block_id
        else:
            owner = np.repeat(np.arange(total, dtype=np.int64), count)
            starts = np.cumsum(count) - count
            j = first_j[owner] + np.arange(len(owner), dtype=np.int64) - starts[owner]
            head = np.zeros(len(owner), dtype=bool)
            head[starts] = True
            ids = self.block_id[owner]
        key = ids * (1 + int(j.max(initial=0))) + j
        by_key = _stable_argsort(key)
        again = key[by_key[1:]] == key[by_key[:-1]]
        earlier = by_key[:-1][again]
        prev_touch = np.full(len(key), -1, dtype=np.int64)
        prev_touch[by_key[1:][again]] = earlier if owner is None else owner[earlier]
        cached = (owner, prev_touch, head)
        self._granules[sub] = cached
        return cached


#: The last block state built, as ``(trace, block_size, word_size,
#: state)``.  One slot: a sweep runs a trace's passes back to back, and
#: a wider memo would keep every trace's state alive.  It is read once
#: and replaced whole, so threads running passes over different traces
#: at once at worst rebuild a state, never read a mixed one.
_last_blocks: Optional[Tuple[Any, int, int, _Blocks]] = None


def _block_state(trace: Any, block_size: int, word_size: int) -> _Blocks:
    """The :class:`_Blocks` of ``trace``, reused from the last pass
    over the same trace object, block size and word size."""
    global _last_blocks
    slot = _last_blocks
    if (
        slot is not None
        and slot[0] is trace
        and slot[1] == block_size
        and slot[2] == word_size
    ):
        return slot[3]
    # Let the old state go before the new one is built.
    slot = _last_blocks = None
    state = _Blocks(trace, block_size, word_size)
    _last_blocks = (trace, block_size, word_size, state)
    return state


class _Walk:
    """One set count's view of a :class:`_Blocks`, shared by every
    member of one pass: distances and the set order (stable in time)."""

    def __init__(self, blocks: _Blocks, num_sets: int, near: int) -> None:
        self.blocks = blocks
        total = blocks.total
        order = blocks.order
        pset = blocks.pb % num_sets
        by_set = _stable_argsort(pset)
        dist = _distances(blocks.pb, by_set, near)[order]
        dist[blocks.first] = np.iinfo(np.int64).max  # cold: deeper than any ways
        self.dist = dist

        # Set order: each portion's position and its set's end.
        block_pos = np.empty(total, dtype=np.int64)
        block_pos[order] = np.arange(total, dtype=np.int64)
        so = block_pos[by_set]
        del block_pos
        self.so = so
        setpos = np.empty(total, dtype=np.int64)
        setpos[so] = np.arange(total, dtype=np.int64)
        self.setpos = setpos
        set_of = pset[order]
        self.setend = np.searchsorted(set_of[so], set_of, side="right")
        # Distinct blocks after a block's last portion in its set.
        after = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(blocks.last[so], out=after[1:])
        self.tail = after[self.setend] - after[setpos + 1]
        # Cold first touches per set, in time order: (set, time, rank).
        cold = so[blocks.first[so]]
        cold_sets = set_of[cold]
        set_start = np.searchsorted(cold_sets, cold_sets, side="left")
        self.cold_t = blocks.t[cold]
        self.cold_rank = np.arange(len(cold), dtype=np.int64) - set_start
        self._depth: Dict[int, Any] = {}

    def fill_time(self, ways: int, num_sets: int) -> int:
        """``min_t`` of a ``"fill"`` member: 0 if the cache never fills."""
        at = self.cold_rank == ways - 1
        if int(at.sum()) < num_sets:
            return 0
        return int(self.cold_t[at].max()) + 1

    def depth(self, min_t: int) -> Any:
        """Per portion: its block's depth in the set's stack at ``min_t``.

        Counts the blocks whose last portion before ``min_t`` sits at
        or after this one in the set order; meaningful for a portion
        that is its block's last before ``min_t``.
        """
        cached = self._depth.get(min_t)
        if cached is None:
            blocks = self.blocks
            open_at = (blocks.t < min_t) & (blocks.tnext >= min_t)
            upto = np.zeros(blocks.total + 1, dtype=np.int64)
            np.cumsum(open_at[self.so], out=upto[1:])
            cached = upto[self.setend] - upto[self.setpos]
            self._depth[min_t] = cached
        return cached


class _Frame:
    """The residencies of one ``(ways, min_t)``, shared by every member
    of a pass with both: fills, counted events and eviction charges."""

    def __init__(
        self, walk: _Walk, ways: int, min_t: int, flush_at_end: bool
    ) -> None:
        blocks = walk.blocks
        self.min_t = min_t
        deep = walk.dist > ways
        self.deep = deep
        fills = np.flatnonzero(deep)
        self.residencies = len(fills)
        residency = np.cumsum(deep) - 1
        self.residency = residency
        # Block-order position of each portion's residency's fill.
        self.fill_pos = fills[residency]
        counted = blocks.t >= min_t
        self.counted = counted
        self.block_misses = int(np.count_nonzero(deep & counted))

        # Residencies: fill ``fills[k]`` through the portion before the next.
        ends = np.empty(len(fills), dtype=np.int64)
        ends[:-1] = fills[1:] - 1
        ends[-1] = blocks.total - 1
        # A residency is still cached at the end unless its block is
        # refilled or at least ``ways`` blocks follow it in its set.
        resident = blocks.last[ends] & (walk.tail[ends] < ways)
        charged = ~resident
        if min_t:
            # Evicted before the reset: refilled before it, or pushed below
            # the set's top ``ways`` blocks by then.
            charged &= ~(
                (blocks.t[ends] < min_t)
                & ((blocks.tnext[ends] < min_t) | (walk.depth(min_t)[ends] > ways))
            )
        if flush_at_end:
            charged |= resident
        self.charged = charged
        self.evictions = int(np.count_nonzero(charged))


def _histogram(words: Any, rank: Any) -> Dict[int, int]:
    """``transaction_words`` of the transactions ``words``, keyed in
    first-seen order: the order of each key's lowest ``rank``.

    The per-access engines record transactions by time, then address,
    and :meth:`~repro.core.stats.CacheStats.scaled_traffic_ratio` sums
    the costs in the dict's order, so the order is part of the result.
    """
    if not len(words):
        return {}
    counts = np.bincount(words)
    keys = np.flatnonzero(counts)
    if len(keys) == 1:
        return {int(keys[0]): int(counts[keys[0]])}
    first = np.full(len(counts), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, words, rank)
    keys = keys[np.argsort(first[keys], kind="stable")]
    return {int(key): int(counts[key]) for key in keys}


def _member_stats(
    blocks: _Blocks,
    frame: _Frame,
    sub: int,
    fetch: str,
    block_size: int,
    word_size: int,
) -> CacheStats:
    """The event counters of one member (accesses are filled by the caller)."""
    stats = CacheStats()
    owner, prev_touch, head = blocks.granules(sub)
    deep = frame.deep
    counted = frame.counted
    # Needed sub-blocks first needed in their residency: under demand
    # fetch the fetched ones, under any fetch the residency's
    # referenced set.
    missing = prev_touch < (frame.fill_pos if owner is None else frame.fill_pos[owner])

    if fetch == "demand":
        if owner is None:
            portion_miss = missing
            fetched = int(np.count_nonzero(missing & counted))
            stats.bytes_fetched = fetched * sub
            words = np.full(fetched, sub // word_size)
            rank = np.zeros(fetched, dtype=np.int64)
        else:
            assert head is not None
            g_counted = counted[owner]
            portion_miss = np.logical_or.reduceat(missing, np.flatnonzero(head))
            stats.bytes_fetched = int(np.count_nonzero(missing & g_counted)) * sub
            # One transaction per run of missing rows within a portion.
            run_head = missing.copy()
            run_head[1:] &= ~(missing[:-1] & ~head[1:])
            run_id = np.cumsum(run_head) - 1
            length = np.bincount(run_id[missing], minlength=int(run_head.sum()))
            starts = np.flatnonzero(run_head)
            kept = g_counted[starts]
            words = length[kept] * sub // word_size
            # By the portion's trace order, then by row: a portion's
            # rows ascend through its sub-blocks.
            starts = starts[kept]
            rank = blocks.order[owner[starts]] * len(owner) + starts
    else:
        # Load-forward keeps a resident block's valid sub-blocks a
        # suffix [m, S): a fill starts it at m = S, and a portion whose
        # first needed sub-block lies below m misses, fetches from it
        # on and lowers m to it.  So m is a running minimum over each
        # residency; offsetting each residency's keys below every
        # earlier one's restarts one running minimum at every fill.
        span = block_size // sub
        target = blocks.lo // sub
        offset = frame.residency * (span + 1)
        valid_from = np.empty(blocks.total, dtype=np.int64)  # m before the portion
        valid_from[1:] = (np.minimum.accumulate(target - offset) + offset)[:-1]
        valid_from[deep] = span
        portion_miss = target < valid_from
        at = np.flatnonzero(portion_miss & counted)
        if fetch == "load-forward":
            # One transaction through the block's end, re-fetching the
            # valid suffix.
            run = span - target[at]
            stats.redundant_bytes_fetched = int((span - valid_from[at]).sum()) * sub
        else:
            run = valid_from[at] - target[at]
        stats.bytes_fetched = int(run.sum()) * sub
        words = run * sub // word_size
        rank = blocks.order[at]
    stats.transaction_words = _histogram(words, rank)
    stats.block_misses = frame.block_misses
    stats.sub_block_misses = int(
        np.count_nonzero(portion_miss & ~deep & counted)
    )

    min_t = frame.min_t
    missed = np.zeros(blocks.n, dtype=bool)
    missed[blocks.t[portion_miss]] = True
    missed_kinds = blocks.kinds[min_t:][missed[min_t:]]
    stats.misses = len(missed_kinds)
    by_kind = np.bincount(missed_kinds, minlength=len(_KIND_OF))
    stats.misses_by_kind = {
        kind: int(by_kind[i]) for i, kind in enumerate(_KIND_OF)
    }

    first_needed = frame.residency[missing if owner is None else owner[missing]]
    per_residency = np.bincount(first_needed, minlength=frame.residencies)
    stats.evictions = frame.evictions
    stats.evicted_sub_blocks_referenced = int(per_residency[frame.charged].sum())
    stats.evicted_sub_blocks_total = stats.evictions * (block_size // sub)
    return stats


def run_group_pass(
    trace: Any,
    block_size: int,
    num_sets: int,
    members: Sequence[MemberSpec],
    word_size: int = 2,
    flush_at_end: bool = False,
    deadline: Optional[float] = None,
) -> List[CacheStats]:
    """One trace pass answering every member cell of a pass group.

    Args:
        trace: The (prepared) trace; must contain no WRITE accesses —
            writes break LRU inclusion under the cache's
            write-through-no-allocate policy, so the planner routes
            them to the per-cell engines.
        block_size: The group's block size in bytes.
        num_sets: The group's set count (geometry-resolved).
        members: The cells to answer; each combines an associativity,
            a sub-block size dividing ``block_size``, a warm-up and a
            fetch policy.
        word_size: Data-path word size (transaction-length unit).
        flush_at_end: Evict all resident blocks after the pass, as
            :func:`repro.core.sim.simulate` does for utilization runs.
        deadline: Optional :func:`time.monotonic` instant, checked
            after the distance walk and before each member.

    Returns:
        One :class:`~repro.core.stats.CacheStats` per member, in
        order, each bit-identical to a reference-engine run of the
        same cell (LRU, the member's fetch policy, no miss-path
        chain), the order of its transaction histogram included.

    Raises:
        ConfigurationError: On an invalid shape, an unknown member
            fetch policy or a trace with writes.
        DeadlineExceededError: When ``deadline`` passes mid-pass.
    """
    _validate(block_size, num_sets, members, word_size)
    blocks = _block_state(trace, block_size, word_size)
    n = blocks.n
    walk = _Walk(blocks, num_sets, near=min(member.ways for member in members))

    # Members sharing (ways, min_t) share one residency frame.
    by_frame: Dict[Tuple[int, int], List[int]] = {}
    for index, member in enumerate(members):
        warmup = member.warmup
        if warmup == "fill":
            min_t = walk.fill_time(member.ways, num_sets)
        else:
            # A warm-up past the end of the trace never resets (the
            # simulate() countdown never reaches zero).
            min_t = int(warmup) if int(warmup) <= n else 0
        by_frame.setdefault((member.ways, min_t), []).append(index)

    results: List[CacheStats] = [CacheStats() for _ in members]
    for (ways, min_t), indices in by_frame.items():
        # The accesses after the reset; a size-0 access is a word wide.
        sizes = blocks.sizes[min_t:]
        sized = sizes > 0
        bytes_accessed = int(sizes.sum(dtype=np.int64, where=sized)) + word_size * (
            len(sizes) - int(np.count_nonzero(sized))
        )
        by_kind = np.bincount(blocks.kinds[min_t:], minlength=len(_KIND_OF))
        frame: Optional[_Frame] = None
        for index in indices:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError("deadline expired mid-pass")
            if blocks.total:
                if frame is None:
                    frame = _Frame(walk, ways, min_t, flush_at_end)
                member = members[index]
                results[index] = _member_stats(
                    blocks, frame, member.sub_block_size, member.fetch,
                    block_size, word_size,
                )
            stats = results[index]
            stats.accesses = n - min_t
            stats.bytes_accessed = bytes_accessed
            stats.accesses_by_kind = {
                kind: int(by_kind[i]) for i, kind in enumerate(_KIND_OF)
            }
    return results


def distance_histogram(
    trace: Any, block_size: int, num_sets: int = 1
) -> Dict[int, int]:
    """Per-set LRU stack-distance histogram at block granularity.

    The distance of a reference is 1 + the number of distinct blocks
    that mapped to the *same set* since the last touch of its block
    (1 = immediate reuse); cold first touches land in the ``-1``
    bucket.  With ``num_sets=1`` this is Mattson's classic
    fully-associative histogram.

    Unlike :func:`run_group_pass`, every access kind is admitted: a
    stack distance is well defined for any address stream — the
    read-only restriction only matters when *cache counters* are
    derived from the distances (write misses do not allocate).

    Returns:
        Mapping distance -> count, cold misses under ``-1``.
    """
    if block_size < 1:
        raise ConfigurationError(
            f"block_size must be >= 1, got {block_size}"
        )
    if num_sets < 1:
        raise ConfigurationError(f"num_sets must be >= 1, got {num_sets}")
    blocks = np.asarray(trace.addrs, dtype=np.int64) // block_size
    dist = set_distances(blocks, blocks % num_sets)
    values, counts = np.unique(dist, return_counts=True)
    return {
        int(value) if value else -1: int(count)
        for value, count in zip(values, counts)
    }
