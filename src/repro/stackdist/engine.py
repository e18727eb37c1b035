"""One-pass Mattson stack-distance engine for LRU sweep grids.

The paper picks LRU partly because "LRU permits more efficient
simulation": Mattson's inclusion property means one recency stack per
cache set answers *every* associativity at once.  This module pushes
that idea through the full sub-block cache model: a single pass over a
trace, per (block_size, num_sets) *pass group*, produces the complete
17-counter :class:`~repro.core.stats.CacheStats` — bit-identical to the
reference simulator — for every (associativity, sub_block_size, warmup)
member cell sharing that group.

How the closed form works
-------------------------

For a set-associative LRU cache, an access to block ``b`` with per-set
stack distance ``d`` (1 = most recent) hits the tag under associativity
``A`` iff ``d <= A`` — valid whenever every access allocates, which is
why the engine only accepts read/ifetch traces under demand fetch
(non-allocating write misses skip the recency update and break
inclusion).

Sub-block validity is derived from two extra facts kept per block:

* ``T[j]`` — the last access epoch that *needed* sub-block ``j``
  (demand fetch makes needed == fetched == valid, so after any access
  needing ``j`` the sub-block is valid under every associativity);
* a per-block *history* of (epoch, distance) pairs, kept as a monotone
  stack (epochs increasing, distances strictly decreasing), so
  ``Dmax(j) = max{d' of accesses to b after T[j]}`` is one bisect.

Sub-block ``j`` is valid under ``A`` iff it was ever needed and the
block was never evicted since (``Dmax(j) <= A``).  A portion therefore
block-misses where ``A < d``, sub-block-misses where
``d <= A < max(d, max Dmax(j) over needed j)``, and hits above.  The
same machinery yields the victim's referenced-sub-block population at
eviction time (the victim under ``A`` is the post-update stack entry at
index ``A``), so eviction-utilization counters — and hence *traffic
ratio*, not just miss ratio — come out exact.

Keeping the pass O(trace), not O(cells x trace)
-----------------------------------------------

The scalar loop classifies each portion before touching any per-cell
state.  History entries only exist for distances above the smallest
associativity, so a portion whose needed sub-blocks were all touched
since the block's last deep access ("all fresh") needs no bisects; and
a portion whose only stale sub-blocks were *never* touched misses
identically under every associativity.  That uniform case — the
overwhelmingly common miss on real traces — is accumulated into
counters shared by every member with that sub-block size, so the hot
path's cost does not grow with the member count.  Warm-up resets are
reconciled by snapshotting the shared counters at each member's reset
boundary and subtracting the snapshot at materialization.

Warm-up itself is handled natively: ``warmup=N`` resets a member's
accumulators after access ``N-1`` (exactly
:func:`repro.core.sim.simulate`'s countdown), and ``warmup="fill"``
tracks per-associativity frame-fill progress (sum over sets of
``min(distinct_blocks_seen, A)``) and resets at the end of the access
that completes the fill.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.stats import CacheStats
from repro.errors import ConfigurationError
from repro.trace.record import AccessType

__all__ = ["MemberSpec", "distance_histogram", "run_group_pass"]

_KIND_OF = (AccessType.READ, AccessType.WRITE, AccessType.IFETCH)
_INF = float("inf")

#: Snapshot of the shared accumulators at a member's reset boundary:
#: (sub misses, fetched bytes, transaction words, misses, by-kind).
_Snap = Tuple[int, int, Dict[int, int], int, Tuple[int, ...]]
_ZERO_SNAP: _Snap = (0, 0, {}, 0, (0, 0, 0))


@dataclass(frozen=True)
class MemberSpec:
    """One cell a pass group answers: (ways, sub-block size, warmup).

    ``ways`` is the geometry-resolved associativity (after the
    num_blocks clamp), ``sub_block_size`` divides the group's block
    size, and ``warmup`` is the cell's warm-up mode (an access count or
    ``"fill"``).
    """

    ways: int
    sub_block_size: int
    warmup: Union[int, str] = "fill"


class _Member:
    """Accumulators for one member cell during a pass."""

    __slots__ = (
        "spec", "ways", "sub_index", "spb", "min_t", "start_r", "snap",
        "misses", "block_misses", "sub_misses", "by_kind",
        "bytes_fetched", "tw", "evictions", "ev_ref", "ev_total",
    )

    def __init__(self, spec: MemberSpec, sub_index: int, spb: int, n: int) -> None:
        self.spec = spec
        self.ways = spec.ways
        self.sub_index = sub_index
        self.spb = spb
        # Int warm-up: events at access t count iff t >= min_t (the
        # reset fires at the END of access warmup-1).  A warmup past
        # the end of the trace never resets (the simulate() countdown
        # never reaches zero), so the stats cover the whole run.
        warmup = spec.warmup
        self.start_r: Optional[int]
        if isinstance(warmup, int) and 1 <= warmup <= n:
            self.min_t = warmup
            self.start_r = warmup - 1
        else:
            self.min_t = 0
            self.start_r = None
        self.snap: _Snap = _ZERO_SNAP
        self.zero(None)

    def zero(self, start_r: Optional[int]) -> None:
        """Reset accumulators at a warm-start boundary."""
        if start_r is not None:
            self.start_r = start_r
        self.misses = 0
        self.block_misses = 0
        self.sub_misses = 0
        self.by_kind = {kind: 0 for kind in _KIND_OF}
        self.bytes_fetched = 0
        self.tw: Dict[int, int] = {}
        self.evictions = 0
        self.ev_ref = 0
        self.ev_total = 0


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


def _portions(
    addrs: Any, eff: Any, block_size: int, num_sets: int, n: int
) -> Tuple[Any, Any, Any, Any, Any]:
    """Flatten accesses into per-block portions (t, block, set, lo, hi)."""
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
    return tvec, pb, pb % num_sets, plo, phi


def _collapsible(pset: Any, pb: Any, plo: Any, phi: Any) -> Any:
    """True where a portion repeats its set's previous (block, lo, hi).

    Such a portion has stack distance 1 and every needed sub-block
    freshly touched, so it is a full hit under *every* associativity
    and can be skipped by the scalar loop (its access/byte counts are
    recovered from prefix sums).  Runs of straight-line ifetches make
    this common in real traces.
    """
    total = len(pset)
    if total < 2:
        return np.zeros(total, dtype=bool)
    order = np.argsort(pset, kind="stable")
    same_sorted = np.zeros(total, dtype=bool)
    same_sorted[1:] = (
        (pset[order][1:] == pset[order][:-1])
        & (pb[order][1:] == pb[order][:-1])
        & (plo[order][1:] == plo[order][:-1])
        & (phi[order][1:] == phi[order][:-1])
    )
    same = np.empty(total, dtype=bool)
    same[order] = same_sorted
    return same


def run_group_pass(
    trace: Any,
    block_size: int,
    num_sets: int,
    members: Sequence[MemberSpec],
    word_size: int = 2,
    flush_at_end: bool = False,
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
            a sub-block size dividing ``block_size``, and a warm-up.
        word_size: Data-path word size (transaction-length unit).
        flush_at_end: Evict all resident blocks after the pass, as
            :func:`repro.core.sim.simulate` does for utilization runs.

    Returns:
        One :class:`~repro.core.stats.CacheStats` per member, in
        order, each bit-identical to a reference-engine run of the
        same cell (LRU, demand fetch, no miss-path chain).

    Raises:
        ConfigurationError: On an invalid shape or a trace with writes.
    """
    _validate(block_size, num_sets, members, word_size)
    addrs = np.asarray(trace.addrs, dtype=np.int64)
    kinds = np.asarray(trace.kinds)
    sizes = np.asarray(trace.sizes, dtype=np.int64)
    n = len(addrs)
    if n and bool((kinds == int(AccessType.WRITE)).any()):
        raise ConfigurationError(
            "stackdist pass groups cover read/ifetch traces only; "
            "filter writes or fall back to a per-cell engine"
        )

    subs = sorted({member.sub_block_size for member in members})
    sub_index = {sub: i for i, sub in enumerate(subs)}
    spb = [block_size // sub for sub in subs]
    ways = sorted({member.ways for member in members})
    a_min, a_max = ways[0], ways[-1]
    dist_inf = a_max + 1
    nsubs = len(subs)

    mems = [
        _Member(spec, sub_index[spec.sub_block_size],
                block_size // spec.sub_block_size, n)
        for spec in members
    ]
    # Accounting tables: per (A, sub) member lists for the generic
    # verdict loop, per-sub lists for verdicts identical across A, and
    # the ascending-A cells the block-miss loop walks.
    pair_members: Dict[Tuple[int, int], List[_Member]] = {}
    for member in mems:
        pair_members.setdefault((member.ways, member.sub_index), []).append(member)
    members_of_si: List[List[_Member]] = [[] for _ in subs]
    for member in mems:
        members_of_si[member.sub_index].append(member)
    acell: List[Tuple[int, List[Tuple[int, int, List[_Member]]]]] = []
    for assoc in ways:
        cells: List[Tuple[int, int, List[_Member]]] = []
        for si in range(nsubs):
            group = pair_members.get((assoc, si))
            if group:
                cells.append((si, subs[si], group))
        acell.append((assoc, cells))
    fill_members: Dict[int, List[_Member]] = {}
    for member in mems:
        if member.spec.warmup == "fill":
            fill_members.setdefault(member.ways, []).append(member)

    # Shared accumulators for verdicts that are identical for every
    # member sharing a sub-block size (the hot path).  Warm-up is
    # reconciled by snapshot: a member's share of a shared counter is
    # its final value minus the value at the member's last reset.
    shared_sub = [0] * nsubs
    shared_bytes = [0] * nsubs
    shared_tw: List[Dict[int, int]] = [{} for _ in subs]
    shared_miss = [0] * nsubs
    shared_kind = [[0, 0, 0] for _ in subs]
    words_of = [sub // word_size for sub in subs]

    def take_snap(member: _Member) -> None:
        si = member.sub_index
        member.snap = (
            shared_sub[si], shared_bytes[si], dict(shared_tw[si]),
            shared_miss[si], tuple(shared_kind[si]),
        )

    # Members with an int warm-up snapshot when the pass first reaches
    # their first counted access; fill members re-snapshot at fill.
    pending_snaps = sorted(
        ((member.min_t, member) for member in mems if member.min_t > 0),
        key=lambda pair: pair[0],
    )

    # -- Vectorized precomputation ------------------------------------
    eff = np.where(sizes > 0, sizes, word_size)
    cum_bytes = np.cumsum(eff) if n else eff
    cum_kind = {
        kind: np.cumsum(kinds == int(kind)) if n else kinds
        for kind in _KIND_OF
    }
    tvec, pb, pset, plo, phi = _portions(addrs, eff, block_size, num_sets, n)
    keep = ~_collapsible(pset, pb, plo, phi)
    p_t = tvec[keep].tolist()
    p_b = pb[keep].tolist()
    p_s = pset[keep].tolist()
    p_lo = plo[keep].tolist()
    p_hi = phi[keep].tolist()
    kind_list = kinds.tolist()

    # -- Scalar pass state --------------------------------------------
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    distinct = [0] * num_sets
    # blocks[b] = [hist_t, hist_d, [T-list per sub]]; T[j] = last epoch
    # needing sub-block j (-1 = never), history as described above.
    blocks: Dict[int, List[Any]] = {}
    fill_progress = {assoc: 0 for assoc in ways}
    fill_done: Dict[int, Optional[int]] = {assoc: None for assoc in ways}
    fill_target = {assoc: num_sets * assoc for assoc in ways}
    pending_fills: List[int] = []
    # Access-level miss flags: explicit (A, sub) pairs plus whole-sub
    # markers (flag_all) for verdicts that miss under every A.
    flag_pairs: Set[Tuple[int, int]] = set()
    flag_all: Set[int] = set()
    prev_t = -1

    def flush(upto_t: int) -> None:
        """End-of-access bookkeeping: access-level misses, fill resets."""
        if flag_pairs or flag_all:
            kind_i = kind_list[upto_t]
            for si in flag_all:
                shared_miss[si] += 1
                shared_kind[si][kind_i] += 1
            if flag_pairs:
                kind = _KIND_OF[kind_i]
                for pair in flag_pairs:
                    if pair[1] in flag_all:
                        continue  # already counted via the shared miss
                    for member in pair_members[pair]:
                        if upto_t >= member.min_t:
                            member.misses += 1
                            member.by_kind[kind] += 1
                flag_pairs.clear()
            flag_all.clear()
        if pending_fills:
            for assoc in pending_fills:
                fill_done[assoc] = upto_t
                for member in fill_members.get(assoc, ()):
                    member.zero(upto_t)
                    take_snap(member)
            pending_fills.clear()

    def victim_valid(vbst: Any, assoc: int, si: int) -> int:
        """Count the victim's valid sub-blocks (== referenced) under A."""
        vh_d = vbst[1]
        lo, hi = 0, len(vh_d)
        while lo < hi:
            mid = (lo + hi) // 2
            if vh_d[mid] > assoc:
                lo = mid + 1
            else:
                hi = mid
        thr = vbst[0][lo - 1] if lo else 0
        count = 0
        for t_j in vbst[2][si]:
            if t_j >= thr:
                count += 1
        return count

    def block_miss_all(
        t: int, d: int, db: int, stack: List[int], lo: int, hi: int
    ) -> None:
        """Account a block miss (A < d) for every affected associativity."""
        for assoc, cells in acell:
            if assoc >= d:
                break
            evicts = db >= assoc
            vbst = blocks[stack[assoc]] if evicts else None
            for si, sub, group in cells:
                nbytes = (hi // sub - lo // sub + 1) * sub
                nwords = nbytes // word_size
                count = victim_valid(vbst, assoc, si) if evicts else 0
                for member in group:
                    if t >= member.min_t:
                        member.block_misses += 1
                        member.bytes_fetched += nbytes
                        member.tw[nwords] = member.tw.get(nwords, 0) + 1
                        if evicts:
                            member.evictions += 1
                            member.ev_ref += count
                            member.ev_total += member.spb
                flag_pairs.add((assoc, si))

    blocks_get = blocks.get
    subs_local = subs
    flag_all_add = flag_all.add
    range_n = range(nsubs)
    for t, b, s, lo, hi in zip(p_t, p_b, p_s, p_lo, p_hi):
        if t != prev_t:
            if prev_t >= 0 and (flag_pairs or flag_all or pending_fills):
                flush(prev_t)
            while pending_snaps and t >= pending_snaps[0][0]:
                take_snap(pending_snaps.pop(0)[1])
            prev_t = t
        stack = stacks[s]
        bst = blocks_get(b)

        if bst is None:
            # Cold block: misses under every associativity; fill/fetch
            # bookkeeping plus possible evictions from full sets.
            db = distinct[s]
            if db < a_max:
                grown = db + 1
                distinct[s] = grown
                for assoc in ways:
                    if assoc >= grown:
                        fill_progress[assoc] += 1
                        if (
                            fill_progress[assoc] == fill_target[assoc]
                            and fill_done[assoc] is None
                        ):
                            pending_fills.append(assoc)
            stack.insert(0, b)
            t_lists = [[-1] * count for count in spb]
            blocks[b] = [[t], [dist_inf], t_lists]
            block_miss_all(t, dist_inf, db, stack, lo, hi)
            for si in range_n:
                sub = subs_local[si]
                t_list = t_lists[si]
                for j in range(lo // sub, hi // sub + 1):
                    t_list[j] = t
            if len(stack) > a_max:
                stack.pop()
            continue

        if stack[0] == b:
            d = 1
        elif b in stack:
            i = stack.index(b)
            d = i + 1
            del stack[i]
            stack.insert(0, b)
        else:
            d = dist_inf
            stack.insert(0, b)
            # NOTE: trimmed back to a_max after verdicts — the victim
            # lookup needs stack[A] alive up to A = a_max.

        # Freshness scan: a needed sub-block is fresh if touched at or
        # after the block's last deep access (history tail), in which
        # case its Dmax can't exceed a_min and it is valid everywhere.
        # Fresh granules take their T update eagerly — equivalent for
        # every later comparison, since any epoch between two history
        # pushes yields the same verdicts — so the common full-hit
        # portion finishes inside this single scan.
        tail = bst[0][-1]
        t_lists = bst[2]
        fresh = True
        finite_stale = False
        stale_sis: Optional[List[Tuple[int, Sequence[int]]]] = None
        for si in range_n:
            sub = subs_local[si]
            first = lo // sub
            last_sub = hi // sub
            t_list = t_lists[si]
            if first == last_sub:
                t_j = t_list[first]
                if t_j >= tail:
                    t_list[first] = t
                else:
                    fresh = False
                    if t_j >= 0:
                        finite_stale = True
                        break
                    if stale_sis is None:
                        stale_sis = []
                    stale_sis.append((si, (first,)))
            else:
                untouched: Optional[List[int]] = None
                for j in range(first, last_sub + 1):
                    t_j = t_list[j]
                    if t_j >= tail:
                        t_list[j] = t
                    else:
                        fresh = False
                        if t_j >= 0:
                            finite_stale = True
                            break
                        if untouched is None:
                            untouched = [j]
                        else:
                            untouched.append(j)
                if finite_stale:
                    break
                if untouched is not None:
                    if stale_sis is None:
                        stale_sis = []
                    stale_sis.append((si, untouched))

        if fresh and d <= a_min:
            continue  # full hit everywhere; T already moved in the scan

        if d > a_min:
            hist_t, hist_d = bst[0], bst[1]
            while hist_d and hist_d[-1] <= d:
                hist_d.pop()
                hist_t.pop()
            hist_t.append(t)
            hist_d.append(d)

        if not finite_stale:
            # Uniform verdicts: stale sub-blocks (if any) were never
            # touched, so they miss under *every* associativity.
            if d <= a_min:
                # Hot path: identical deltas for every member of the
                # sub size — accumulate once into shared counters.
                assert stale_sis is not None  # not fresh, so some stale
                for si, stale in stale_sis:
                    flag_all_add(si)
                    shared_sub[si] += 1
                    if len(stale) == 1:
                        shared_bytes[si] += subs_local[si]
                        twd = shared_tw[si]
                        key = words_of[si]
                        twd[key] = twd.get(key, 0) + 1
                    else:
                        sub = subs_local[si]
                        twd = shared_tw[si]
                        run = 1
                        prev_j = stale[0]
                        for j in stale[1:]:
                            if j == prev_j + 1:
                                run += 1
                            else:
                                shared_bytes[si] += run * sub
                                key = run * sub // word_size
                                twd[key] = twd.get(key, 0) + 1
                                run = 1
                            prev_j = j
                        shared_bytes[si] += run * sub
                        key = run * sub // word_size
                        twd[key] = twd.get(key, 0) + 1
            else:
                block_miss_all(t, d, a_max, stack, lo, hi)
                if stale_sis is not None:
                    # Sub-miss where the tag still hits (ways >= d);
                    # block-missing members already fetched the range.
                    for si, stale in stale_sis:
                        flag_all_add(si)
                        sub = subs_local[si]
                        runs: List[int] = []
                        run = 1
                        prev_j = stale[0]
                        for j in stale[1:]:
                            if j == prev_j + 1:
                                run += 1
                            else:
                                runs.append(run)
                                run = 1
                            prev_j = j
                        runs.append(run)
                        for member in members_of_si[si]:
                            if t >= member.min_t and member.ways >= d:
                                member.sub_misses += 1
                                for run in runs:
                                    nwords = run * sub // word_size
                                    member.bytes_fetched += run * sub
                                    member.tw[nwords] = (
                                        member.tw.get(nwords, 0) + 1
                                    )
        else:
            # General path: some needed sub-block was touched before
            # the block's last deep access — bisect the history for
            # each needed position's Dmax and walk the A axis.
            hist_t, hist_d = bst[0], bst[1]
            hist_len = len(hist_t)
            dmaxes: List[List[float]] = []
            thetas: List[float] = []
            theta_max: float = d
            for si in range_n:
                sub = subs_local[si]
                first = lo // sub
                last_sub = hi // sub
                t_list = t_lists[si]
                dmax: List[float] = []
                theta: float = d
                for j in range(first, last_sub + 1):
                    t_j = t_list[j]
                    if t_j < 0:
                        dm = _INF
                    else:
                        pos = bisect_right(hist_t, t_j)
                        dm = hist_d[pos] if pos < hist_len else 0
                    dmax.append(dm)
                    if dm > theta:
                        theta = dm
                dmaxes.append(dmax)
                thetas.append(theta)
                if theta > theta_max:
                    theta_max = theta
            for assoc, cells in acell:
                if assoc >= theta_max:
                    break
                if assoc < d:
                    vbst = blocks[stack[assoc]]  # re-referenced => full set
                    for si, sub, group in cells:
                        first = lo // sub
                        nbytes = (hi // sub - first + 1) * sub
                        nwords = nbytes // word_size
                        count = victim_valid(vbst, assoc, si)
                        for member in group:
                            if t >= member.min_t:
                                member.block_misses += 1
                                member.bytes_fetched += nbytes
                                member.tw[nwords] = member.tw.get(nwords, 0) + 1
                                member.evictions += 1
                                member.ev_ref += count
                                member.ev_total += member.spb
                        flag_pairs.add((assoc, si))
                else:
                    for si, sub, group in cells:
                        if thetas[si] <= assoc:
                            continue
                        flag_pairs.add((assoc, si))
                        dmax = dmaxes[si]
                        runs = []
                        run = 0
                        for dm in dmax:
                            if dm > assoc:
                                run += 1
                            elif run:
                                runs.append(run)
                                run = 0
                        if run:
                            runs.append(run)
                        for member in group:
                            if t >= member.min_t:
                                member.sub_misses += 1
                                for run in runs:
                                    nwords = run * sub // word_size
                                    member.bytes_fetched += run * sub
                                    member.tw[nwords] = (
                                        member.tw.get(nwords, 0) + 1
                                    )

        # Late T updates: the scan eager-set fresh granules, so only
        # stale ones remain — except on the general path, whose scan
        # broke off early and must re-set the whole needed range.
        if finite_stale:
            for si in range_n:
                sub = subs_local[si]
                t_list = t_lists[si]
                first = lo // sub
                last_sub = hi // sub
                if first == last_sub:
                    t_list[first] = t
                else:
                    for j in range(first, last_sub + 1):
                        t_list[j] = t
        elif stale_sis is not None:
            for si, stale in stale_sis:
                t_list = t_lists[si]
                for j in stale:
                    t_list[j] = t
        if len(stack) > a_max:
            stack.pop()

    if prev_t >= 0:
        flush(prev_t)
    while pending_snaps:
        take_snap(pending_snaps.pop(0)[1])

    if flush_at_end:
        for member in mems:
            assoc = member.ways
            si = member.sub_index
            for s in range(num_sets):
                for victim in stacks[s][: min(distinct[s], assoc)]:
                    member.evictions += 1
                    member.ev_total += member.spb
                    member.ev_ref += victim_valid(blocks[victim], assoc, si)

    # -- Materialize per-member CacheStats ----------------------------
    results: List[CacheStats] = []
    for member in mems:
        stats = CacheStats()
        start = member.start_r
        if n:
            first_counted = 0 if start is None else start + 1
            stats.accesses = n - first_counted
            total_bytes = int(cum_bytes[-1])
            stats.bytes_accessed = (
                total_bytes if start is None else total_bytes - int(cum_bytes[start])
            )
            for kind in _KIND_OF:
                total_kind = int(cum_kind[kind][-1])
                stats.accesses_by_kind[kind] = (
                    total_kind
                    if start is None
                    else total_kind - int(cum_kind[kind][start])
                )
        si = member.sub_index
        snap_sub, snap_bytes, snap_tw, snap_miss, snap_kind = member.snap
        stats.misses = member.misses + shared_miss[si] - snap_miss
        stats.block_misses = member.block_misses
        stats.sub_block_misses = member.sub_misses + shared_sub[si] - snap_sub
        by_kind = dict(member.by_kind)
        for kind_i, kind in enumerate(_KIND_OF):
            delta = shared_kind[si][kind_i] - snap_kind[kind_i]
            if delta:
                by_kind[kind] += delta
        stats.misses_by_kind = by_kind
        stats.bytes_fetched = member.bytes_fetched + shared_bytes[si] - snap_bytes
        tw = dict(member.tw)
        for key, value in shared_tw[si].items():
            delta = value - snap_tw.get(key, 0)
            if delta:
                tw[key] = tw.get(key, 0) + delta
        stats.transaction_words = tw
        stats.evictions = member.evictions
        stats.evicted_sub_blocks_referenced = member.ev_ref
        stats.evicted_sub_blocks_total = member.ev_total
        results.append(stats)
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
    blocks = (np.asarray(trace.addrs) // block_size).tolist()
    histogram: Dict[int, int] = {}
    stacks: Dict[int, List[int]] = {}
    for block in blocks:
        stack = stacks.setdefault(block % num_sets, [])
        try:
            position = stack.index(block)
        except ValueError:
            histogram[-1] = histogram.get(-1, 0) + 1
            stack.insert(0, block)
            continue
        distance = position + 1
        histogram[distance] = histogram.get(distance, 0) + 1
        del stack[position]
        stack.insert(0, block)
    return histogram
