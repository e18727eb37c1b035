"""The vectorized batch engine.

Same semantics as the reference object-model loop, restructured for
throughput.  Three ideas carry the speedup:

1. **Whole-trace decode.**  Set index, tag, needed-sub-block mask, and
   effective size are computed for every access in a few NumPy
   operations (:mod:`repro.engine.kernels`), cached on the trace's
   :class:`~repro.engine.traceview.TraceView`, and shared by every
   geometry that agrees on the relevant parameters.  The hot loop then
   walks plain Python ints — no ``Access`` tuples, no ``AccessType``
   enum construction, no per-access address arithmetic.

2. **Run compression.**  Adjacent identical accesses (same block, kind,
   mask, size — the common case in instruction streams) leave the cache
   in a fixed point after the first: every repeat is a pure counter
   update whose effect is known in advance.  Runs are delimited
   vectorized (:func:`~repro.engine.kernels.run_starts`); the engine
   simulates the first access of each run and bulk-accounts the rest.
   Requires a replacement policy with idempotent hit handling
   (``idempotent_hits``); otherwise every access runs scalar.

3. **Flat state + compiled fetch policies.**  Per-set tag/valid/
   referenced/dirty state lives in flat lists of ints, and fetch plans
   are memoized per ``(missing, valid)`` mask pair
   (:class:`~repro.engine.kernels.FetchPlanCache`), with costs derived
   by the same :mod:`repro.core.accounting` rules the reference cache
   applies per miss.

The engine is pinned to the reference engine by the differential
equivalence suite (``tests/engine/test_equivalence.py``): identical
:class:`~repro.core.stats.CacheStats`, counter for counter, across
randomized geometries, programs, warmups, and policies.
"""

from __future__ import annotations

import bisect
import time as _time
from typing import Any, Dict, Optional, Union

from repro.core.accounting import account_eviction
from repro.core.block import mask_of_range, popcount
from repro.core.config import CacheGeometry
from repro.core.fetch import DemandFetch, FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.core.replacement import LRUReplacement, ReplacementPolicy
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.engine.base import Engine
from repro.engine.kernels import FetchPlanCache
from repro.engine.traceview import TraceView
from repro.errors import ConfigurationError, DeadlineExceededError, EngineError
from repro.trace.record import AccessType, Trace

__all__ = ["VectorizedEngine"]

_KINDS = (AccessType.READ, AccessType.WRITE, AccessType.IFETCH)
_WRITE = int(AccessType.WRITE)


class VectorizedEngine(Engine):
    """Batch execution over a trace's structure-of-arrays columns."""

    name = "vectorized"

    def run(
        self,
        geometry: CacheGeometry,
        trace,
        *,
        replacement: Optional[ReplacementPolicy] = None,
        fetch: Optional[FetchPolicy] = None,
        write_policy: WritePolicy = WritePolicy.WRITE_THROUGH_NO_ALLOCATE,
        word_size: int = 2,
        warmup: Union[int, str] = "fill",
        flush_at_end: bool = False,
        deadline: Optional[float] = None,
        miss_path: "Union[MissPathConfig, Dict[str, Any], None]" = None,
    ) -> CacheStats:
        config = MissPathConfig.coerce(miss_path)
        if config is not None and config.enabled:
            raise EngineError(
                "the vectorized engine cannot drive a miss-path chain "
                f"({config.key()}): structure state mutates per miss, which "
                "requires the reference engine's per-access loop "
                "(the route planner sends such cells there)"
            )
        if isinstance(trace, Trace):
            view = TraceView.of(trace)
        elif isinstance(trace, TraceView):
            view = trace
        else:
            raise EngineError(
                "the vectorized engine consumes a Trace's array columns; "
                f"got {type(trace).__name__} (guarded or proxied traces "
                "must run on the reference engine)"
            )
        replacement = (
            replacement if replacement is not None else LRUReplacement()
        )
        fetch = fetch if fetch is not None else DemandFetch()
        # Input validation mirrors SubBlockCache / simulate exactly.
        if word_size < 1:
            raise ConfigurationError(f"word_size must be >= 1, got {word_size}")
        if word_size > geometry.sub_block_size:
            raise ConfigurationError(
                f"word_size ({word_size}) exceeds sub_block_size "
                f"({geometry.sub_block_size}); a single word transfer "
                "could not fill a sub-block"
            )
        fill_mode = False
        reset_at: Optional[int] = None
        if warmup == "fill":
            fill_mode = True
        elif isinstance(warmup, int):
            if warmup < 0:
                raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
            reset_at = warmup if warmup > 0 else None
        else:
            raise ConfigurationError(
                f"warmup must be an int or 'fill', got {warmup!r}"
            )
        return self._run(
            geometry, view, replacement, fetch, write_policy, word_size,
            fill_mode, reset_at, flush_at_end, deadline,
        )

    def _run(
        self,
        geometry: CacheGeometry,
        view: TraceView,
        replacement: ReplacementPolicy,
        fetch: FetchPolicy,
        write_policy: WritePolicy,
        word_size: int,
        fill_mode: bool,
        reset_at: Optional[int],
        flush_at_end: bool,
        deadline: Optional[float] = None,
    ) -> CacheStats:
        t = view.trace
        n = len(t)

        # -- Decode (cached on the view, shared across geometries) --------
        set_arr, tag_arr = view.set_and_tag(geometry)
        needed_arr, span_arr, starts_arr = view.demand(geometry, word_size)
        set_l = set_arr.tolist()
        tag_l = tag_arr.tolist()
        needed_l = needed_arr.tolist()
        span_l = span_arr.tolist()
        kind_l = t.kinds.tolist()
        size_l = view.sizes_for(word_size).tolist()
        addr_l = t.addrs.tolist() if span_arr.any() else None

        compress = getattr(replacement, "idempotent_hits", False)
        if compress:
            starts = starts_arr.tolist()
            if reset_at is not None and 0 < reset_at < n:
                # The warm-up boundary must not fall inside a bulk run.
                pos = bisect.bisect_left(starts, reset_at)
                if pos == len(starts) or starts[pos] != reset_at:
                    starts.insert(pos, reset_at)
        else:
            starts = list(range(n))
        starts.append(n)

        # -- Flat cache state ---------------------------------------------
        block_size = geometry.block_size
        sub = geometry.sub_block_size
        spb = geometry.sub_blocks_per_block
        num_blocks = geometry.num_blocks
        nsets = geometry.num_sets
        nways = geometry.ways
        allocates = write_policy.allocates
        writes_through = write_policy.writes_through
        plans = FetchPlanCache(fetch, sub, word_size, spb)
        on_hit = replacement.on_hit
        on_fill = replacement.on_fill
        victim = replacement.victim

        tags = [[-1] * nways for _ in range(nsets)]
        valid = [[0] * nways for _ in range(nsets)]
        refd = [[0] * nways for _ in range(nsets)]
        dirty = [[0] * nways for _ in range(nsets)]
        states = [replacement.new_set(nways) for _ in range(nsets)]
        filled = 0
        pending_fill = fill_mode  # a fresh cache is never full

        # -- Counters (reset at the warm-up boundary) ----------------------
        accesses = misses = block_misses = sub_misses = 0
        acc_kind = [0, 0, 0]
        miss_kind = [0, 0, 0]
        bytes_accessed = bytes_fetched = redundant = bytes_wt = 0
        evictions = ev_ref = ev_tot = writebacks = bytes_wb = 0
        txn: dict = {}

        def access_block(s, tg, nd, is_write, nbytes):
            """One block's share of a (spanning) access; True on miss.

            Mirrors ``SubBlockCache._access_block``; the non-spanning
            fast path below inlines the same transitions.
            """
            nonlocal sub_misses, block_misses, bytes_fetched, redundant
            nonlocal bytes_wt, evictions, ev_ref, ev_tot, writebacks
            nonlocal bytes_wb, filled
            stags = tags[s]
            try:
                way = stags.index(tg)
            except ValueError:
                way = -1
            if way >= 0:
                on_hit(states[s], way)
                v = valid[s][way]
                missing = nd & ~v
                refd[s][way] |= nd
                if not missing:
                    if is_write:
                        if writes_through:
                            bytes_wt += nbytes
                        else:
                            dirty[s][way] |= nd
                    return False
                if is_write and not allocates:
                    bytes_wt += nbytes
                    return True
                sub_misses += 1
                fmask, words, fb, rb = plans.lookup(missing, v)
                for w in words:
                    txn[w] = txn.get(w, 0) + 1
                bytes_fetched += fb
                redundant += rb
                valid[s][way] = v | fmask
                if is_write:
                    if writes_through:
                        bytes_wt += nbytes
                    else:
                        dirty[s][way] |= nd
                return True
            if is_write and not allocates:
                bytes_wt += nbytes
                return True
            block_misses += 1
            try:
                vw = stags.index(-1)
            except ValueError:
                vw = -1
            if vw < 0:
                vw = victim(states[s])
                evictions += 1
                ev_ref += popcount(refd[s][vw])
                ev_tot += spb
                d = dirty[s][vw]
                if d:
                    writebacks += 1
                    bytes_wb += popcount(d) * sub
            else:
                filled += 1
            stags[vw] = tg
            on_fill(states[s], vw)
            fmask, words, fb, rb = plans.lookup(nd, 0)
            for w in words:
                txn[w] = txn.get(w, 0) + 1
            bytes_fetched += fb
            redundant += rb
            valid[s][vw] = fmask
            refd[s][vw] = nd
            dirty[s][vw] = nd if is_write and not writes_through else 0
            if is_write and writes_through:
                bytes_wt += nbytes
            return True

        # -- Main loop over runs -------------------------------------------
        monotonic = _time.monotonic
        for ri in range(len(starts) - 1):
            if deadline is not None and (ri & 8191) == 0:
                # Cooperative cancellation: one clock read per 8k runs
                # keeps the check out of the hot-loop profile while an
                # expired budget still surfaces within milliseconds.
                if monotonic() >= deadline:
                    raise DeadlineExceededError(
                        "request deadline expired mid-simulation"
                    )
            i = starts[ri]
            run_end = starts[ri + 1]
            if reset_at is not None and i >= reset_at:
                accesses = misses = block_misses = sub_misses = 0
                acc_kind = [0, 0, 0]
                miss_kind = [0, 0, 0]
                bytes_accessed = bytes_fetched = redundant = bytes_wt = 0
                evictions = ev_ref = ev_tot = writebacks = bytes_wb = 0
                txn = {}
                reset_at = None

            k = kind_l[i]
            sz = size_l[i]
            accesses += 1
            acc_kind[k] += 1
            bytes_accessed += sz
            is_write = k == _WRITE

            if span_l[i]:
                # Rare multi-block access: per-block scalar walk.
                addr = addr_l[i]
                missed = False
                first_block = addr // block_size
                last_block = (addr + sz - 1) // block_size
                for ba in range(first_block, last_block + 1):
                    base = ba * block_size
                    lo = max(addr, base) - base
                    hi = min(addr + sz, base + block_size) - 1 - base
                    nd = mask_of_range(lo // sub, hi // sub)
                    if access_block(
                        ba % nsets, ba // nsets, nd, is_write, hi - lo + 1
                    ):
                        missed = True
                if missed:
                    misses += 1
                    miss_kind[k] += 1
                if pending_fill and filled >= num_blocks:
                    accesses = misses = block_misses = sub_misses = 0
                    acc_kind = [0, 0, 0]
                    miss_kind = [0, 0, 0]
                    bytes_accessed = bytes_fetched = redundant = bytes_wt = 0
                    evictions = ev_ref = ev_tot = writebacks = bytes_wb = 0
                    txn = {}
                    pending_fill = False
                continue

            s = set_l[i]
            tg = tag_l[i]
            nd = needed_l[i]
            stags = tags[s]
            rep_miss = False
            try:
                way = stags.index(tg)
            except ValueError:
                way = -1
            if way >= 0:
                on_hit(states[s], way)
                v = valid[s][way]
                missing = nd & ~v
                refd[s][way] |= nd
                if not missing:
                    if is_write:
                        if writes_through:
                            bytes_wt += sz
                        else:
                            dirty[s][way] |= nd
                elif is_write and not allocates:
                    bytes_wt += sz
                    misses += 1
                    miss_kind[k] += 1
                    rep_miss = True
                else:
                    sub_misses += 1
                    fmask, words, fb, rb = plans.lookup(missing, v)
                    for w in words:
                        txn[w] = txn.get(w, 0) + 1
                    bytes_fetched += fb
                    redundant += rb
                    valid[s][way] = v | fmask
                    if is_write:
                        if writes_through:
                            bytes_wt += sz
                        else:
                            dirty[s][way] |= nd
                    misses += 1
                    miss_kind[k] += 1
            elif is_write and not allocates:
                bytes_wt += sz
                misses += 1
                miss_kind[k] += 1
                rep_miss = True
            else:
                block_misses += 1
                try:
                    vw = stags.index(-1)
                except ValueError:
                    vw = -1
                if vw < 0:
                    vw = victim(states[s])
                    evictions += 1
                    ev_ref += popcount(refd[s][vw])
                    ev_tot += spb
                    d = dirty[s][vw]
                    if d:
                        writebacks += 1
                        bytes_wb += popcount(d) * sub
                else:
                    filled += 1
                stags[vw] = tg
                on_fill(states[s], vw)
                fmask, words, fb, rb = plans.lookup(nd, 0)
                for w in words:
                    txn[w] = txn.get(w, 0) + 1
                bytes_fetched += fb
                redundant += rb
                valid[s][vw] = fmask
                refd[s][vw] = nd
                dirty[s][vw] = nd if is_write and not writes_through else 0
                if is_write and writes_through:
                    bytes_wt += sz
                misses += 1
                miss_kind[k] += 1

            if pending_fill and filled >= num_blocks:
                accesses = misses = block_misses = sub_misses = 0
                acc_kind = [0, 0, 0]
                miss_kind = [0, 0, 0]
                bytes_accessed = bytes_fetched = redundant = bytes_wt = 0
                evictions = ev_ref = ev_tot = writebacks = bytes_wb = 0
                txn = {}
                pending_fill = False

            # Bulk-account the repeats: after the first access the cache
            # is at a fixed point for this run, so each repeat adds the
            # same counters the reference loop would.
            m = run_end - i - 1
            if m:
                accesses += m
                acc_kind[k] += m
                bytes_accessed += sz * m
                if rep_miss:
                    misses += m
                    miss_kind[k] += m
                if is_write and writes_through:
                    bytes_wt += sz * m

        if reset_at is not None and reset_at <= n:
            accesses = misses = block_misses = sub_misses = 0
            acc_kind = [0, 0, 0]
            miss_kind = [0, 0, 0]
            bytes_accessed = bytes_fetched = redundant = bytes_wt = 0
            evictions = ev_ref = ev_tot = writebacks = bytes_wb = 0
            txn = {}

        # -- Fold locals into a CacheStats ---------------------------------
        stats = CacheStats()
        stats.accesses = accesses
        stats.misses = misses
        stats.block_misses = block_misses
        stats.sub_block_misses = sub_misses
        stats.accesses_by_kind = {
            kind: acc_kind[int(kind)] for kind in _KINDS
        }
        stats.misses_by_kind = {
            kind: miss_kind[int(kind)] for kind in _KINDS
        }
        stats.bytes_accessed = bytes_accessed
        stats.bytes_fetched = bytes_fetched
        stats.redundant_bytes_fetched = redundant
        stats.transaction_words = txn
        stats.evictions = evictions
        stats.evicted_sub_blocks_referenced = ev_ref
        stats.evicted_sub_blocks_total = ev_tot
        stats.writebacks = writebacks
        stats.bytes_written_back = bytes_wb
        stats.bytes_written_through = bytes_wt

        if flush_at_end:
            for s in range(nsets):
                for w in range(nways):
                    if tags[s][w] != -1:
                        account_eviction(stats, refd[s][w], dirty[s][w], spb, sub)
        return stats
