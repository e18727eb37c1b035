"""Hierarchical must/may analysis through the miss-path chain.

The one abstract cache analysis behind ``repro classify``.
:mod:`repro.staticcheck.abscache` supplies the L1 domain that proves,
per reference site, how the *L1* behaves (reported as ``l1_class``;
with a bare chain these are the single-level proofs).  This module
lifts the same Ferdinand-style fixpoint through the miss-path chain,
so a site proven ``always-miss`` in L1 can still be proven to cost
nothing on the memory bus:

* :class:`~repro.core.misspath.VictimCache` — a fully-associative
  must/may age domain over evicted blocks, modeling the L1↔VC swap:
  entries are inserted by (possibly) evicted same-set blocks and
  consumed by probe hits;
* :class:`~repro.core.misspath.MissCache` — a tag-set must/may
  over-approximation (the structure is tag-only, so masks are moot);
* :class:`~repro.core.misspath.StreamBufferSet` — a sequential-window
  domain: per recency rank, an interval of block addresses the buffer
  provably holds, plus a may-side union of intervals it can hold;
* :class:`~repro.core.misspath.BackingL2` — a derived-geometry
  must/may pair at the L2's own block/sub-block shape.

Composing the domains in chain order yields one *hierarchical*
classification per site (:class:`ChainSiteClass`): ``L1-hit``,
``chain-hit@<structure>``, ``memory-bound``, ``first-miss``, or
``unclassified``.

Soundness is pinned end to end by :func:`verify_classification`: the
program runs on the machine, the trace replays cold through a concrete
chained :class:`~repro.core.cache.SubBlockCache`, every access is
attributed to its site, and both of the site's proofs are checked: the
L1 one against the observed hit or miss, the chain one against the
observed servicing structure.  See
``docs/staticcheck.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.block import mask_of_range
from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy, make_fetch
from repro.core.misspath import MissPathConfig
from repro.errors import ConfigurationError
from repro.staticcheck.abscache import (
    SiteClass,
    StateExtension,
    _AbsState,
    _Analyzer,
    _analyze,
    _resolve_fetch,
    _site_sort_key,
)
from repro.staticcheck.checks import check_program
from repro.staticcheck.diagnostics import raise_on_errors
from repro.trace.record import AccessType
from repro.workloads.assembler import AssembledProgram
from repro.workloads.isa import Op
from repro.workloads.machine import Machine

__all__ = [
    "ChainSiteClass",
    "ChainSiteResult",
    "ChainClassificationReport",
    "ChainVerificationResult",
    "classify_chain_program",
    "verify_classification",
]

#: Interval count past which the stream-buffer may-side collapses to
#: TOP instead of tracking ever more windows.
_SB_MAY_CAP = 32


class ChainSiteClass(enum.Enum):
    """Hierarchical classification of one reference site."""

    L1_HIT = "L1-hit"
    CHAIN_HIT_VICTIM = "chain-hit@victim"
    CHAIN_HIT_MISS = "chain-hit@miss"
    CHAIN_HIT_STREAM = "chain-hit@stream"
    CHAIN_HIT_L2 = "chain-hit@l2"
    MEMORY_BOUND = "memory-bound"
    FIRST_MISS = "first-miss"
    UNCLASSIFIED = "unclassified"

    def __str__(self) -> str:  # pragma: no cover - presentation sugar
        return self.value


#: Structure name -> the chain-hit class naming it.
_CHAIN_HIT_OF = {
    "victim": ChainSiteClass.CHAIN_HIT_VICTIM,
    "miss": ChainSiteClass.CHAIN_HIT_MISS,
    "stream": ChainSiteClass.CHAIN_HIT_STREAM,
    "l2": ChainSiteClass.CHAIN_HIT_L2,
}

#: Chain class of a proven L1 miss -> the level proven to service it.
_SERVER_OF = {
    ChainSiteClass.MEMORY_BOUND: "memory",
    **{cls: name for name, cls in _CHAIN_HIT_OF.items()},
}


@dataclass(frozen=True)
class ChainSiteResult:
    """Hierarchical classification of one reference site.

    Attributes:
        site: Stable site key ``"<instruction index>:<role>"``.
        instr_addr: Byte address of the owning instruction.
        kind: ``"ifetch"``, ``"read"``, or ``"write"``.
        l1: The L1 :class:`SiteClass` proof (``l1_class``).
        classification: The hierarchical :class:`ChainSiteClass`.
        target: Referenced byte address when statically known.
        reason: Short human-readable justification for the chain proof.
    """

    site: str
    instr_addr: int
    kind: str
    l1: SiteClass
    classification: ChainSiteClass
    target: Optional[int] = None
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "site": self.site,
            "instr_addr": self.instr_addr,
            "kind": self.kind,
            "l1_class": self.l1.value,
            "class": self.classification.value,
        }
        if self.target is not None:
            payload["target"] = self.target
        if self.reason:
            payload["reason"] = self.reason
        return payload


@dataclass(frozen=True)
class ChainClassificationReport:
    """Every site of one program classified through one chain."""

    name: str
    word_size: int
    stack_words: int
    fetch: str
    net_size: int
    block_size: int
    sub_block_size: int
    associativity: int
    miss_path: MissPathConfig
    sites: Tuple[ChainSiteResult, ...] = ()

    @property
    def counts(self) -> Dict[str, int]:
        """Site count per hierarchical classification value."""
        out = {cls.value: 0 for cls in ChainSiteClass}
        for site in self.sites:
            out[site.classification.value] += 1
        return out

    @property
    def classified_fraction(self) -> float:
        """Fraction of sites with some hierarchical proof."""
        if not self.sites:
            return 1.0
        proven = sum(
            1
            for site in self.sites
            if site.classification is not ChainSiteClass.UNCLASSIFIED
        )
        return proven / len(self.sites)

    def geometry(self) -> CacheGeometry:
        """The L1 geometry the report was computed for."""
        return CacheGeometry(
            net_size=self.net_size,
            block_size=self.block_size,
            sub_block_size=self.sub_block_size,
            associativity=self.associativity,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; key order and site order are deterministic."""
        return {
            "schema_version": 2,
            "name": self.name,
            "word_size": self.word_size,
            "stack_words": self.stack_words,
            "fetch": self.fetch,
            "geometry": {
                "net_size": self.net_size,
                "block_size": self.block_size,
                "sub_block_size": self.sub_block_size,
                "associativity": self.associativity,
            },
            "miss_path": {
                "key": self.miss_path.key(),
                "config": self.miss_path.to_dict(),
            },
            "counts": self.counts,
            "total_sites": len(self.sites),
            "classified_fraction": self.classified_fraction,
            "sites": [site.to_dict() for site in self.sites],
        }

    def proof_rows(self) -> List[Dict[str, Any]]:
        """One row per chain structure for the CLI proof table."""
        rows: List[Dict[str, Any]] = []
        for name in self.miss_path.chain_names:
            hit_cls = _CHAIN_HIT_OF[name]
            rows.append(
                {
                    "structure": name,
                    "proven_hits": sum(
                        1
                        for site in self.sites
                        if site.classification is hit_cls
                    ),
                }
            )
        return rows


@dataclass(frozen=True)
class ChainVerificationResult:
    """Outcome of differentially checking chain proofs.

    Attributes:
        ok: True when nothing was contradicted.
        accesses: Trace accesses replayed (all attributed).
        checked: Accesses that landed on a site with an L1 or a chain
            proof.
        unclassified_accesses: Accesses on sites with neither proof.
        violations: ``(site, occurrence, expected, observed)`` tuples.
    """

    ok: bool
    accesses: int
    checked: int
    unclassified_accesses: int
    violations: Tuple[Tuple[str, int, str, str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "accesses": self.accesses,
            "checked": self.checked,
            "unclassified_accesses": self.unclassified_accesses,
            "violations": [list(item) for item in self.violations],
        }


# -- Chain abstract domains -------------------------------------------------


def _merge_intervals(
    intervals: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Sort and coalesce touching/overlapping ``(lo, hi)`` intervals."""
    if not intervals:
        return []
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + 1:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class _ChainExt(StateExtension):
    """Per-program-point abstract state of every chain structure.

    Domains (all optional structures keep empty domains when absent):

    * ``vc_must``: ``{block: (age upper bound, guaranteed mask)}`` —
      entries guaranteed resident in the victim cache with at least
      the guaranteed sub-blocks valid.  ``vc_may``/``vc_top``: the
      blocks (and masks) that *can* be resident; TOP = anything.
    * ``mc_must``: ``{block: age upper bound}`` guaranteed miss-cache
      tags; ``mc_may``/``mc_top`` the possible tag set.
    * ``windows``: recency-ranked stream-buffer claims — entry ``i``
      says the rank-``i`` buffer's pending queue contains at least the
      block interval; ``None`` = no claim.  ``sb_may``/``sb_top``: the
      union of intervals any buffer can hold.
    * ``l2_must``: ``{L2 block: (age upper bound, guaranteed mask)}``
      at the L2's own geometry; ``l2_may`` the possible contents
      (``None`` = TOP; no ages — the set only grows, which is sound).
    """

    __slots__ = (
        "vc_must", "vc_may", "vc_top",
        "mc_must", "mc_may", "mc_top",
        "windows", "sb_may", "sb_top",
        "l2_must", "l2_may",
    )

    def __init__(self) -> None:
        self.vc_must: Dict[int, Tuple[int, int]] = {}
        self.vc_may: Dict[int, int] = {}
        self.vc_top = False
        self.mc_must: Dict[int, int] = {}
        self.mc_may: Set[int] = set()
        self.mc_top = False
        self.windows: List[Optional[Tuple[int, int]]] = []
        self.sb_may: List[Tuple[int, int]] = []
        self.sb_top = False
        self.l2_must: Dict[int, Tuple[int, int]] = {}
        self.l2_may: Optional[Dict[int, int]] = {}

    def copy(self) -> "_ChainExt":
        out = _ChainExt()
        out.vc_must = dict(self.vc_must)
        out.vc_may = dict(self.vc_may)
        out.vc_top = self.vc_top
        out.mc_must = dict(self.mc_must)
        out.mc_may = set(self.mc_may)
        out.mc_top = self.mc_top
        out.windows = list(self.windows)
        out.sb_may = list(self.sb_may)
        out.sb_top = self.sb_top
        out.l2_must = dict(self.l2_must)
        out.l2_may = None if self.l2_may is None else dict(self.l2_may)
        return out

    def snapshot(self) -> Tuple[Any, ...]:
        return (
            tuple(sorted(self.vc_must.items())),
            tuple(sorted(self.vc_may.items())),
            self.vc_top,
            tuple(sorted(self.mc_must.items())),
            tuple(sorted(self.mc_may)),
            self.mc_top,
            tuple(self.windows),
            tuple(self.sb_may),
            self.sb_top,
            tuple(sorted(self.l2_must.items())),
            None
            if self.l2_may is None
            else tuple(sorted(self.l2_may.items())),
        )

    def join_into(self, source: "StateExtension") -> None:
        assert isinstance(source, _ChainExt)
        # Victim cache: intersect must (weakest age, common mask);
        # union may; TOP absorbs and empties the may container.
        new_vc_must: Dict[int, Tuple[int, int]] = {}
        for block, (age, valid) in self.vc_must.items():
            other = source.vc_must.get(block)
            if other is not None:
                new_vc_must[block] = (max(age, other[0]), valid & other[1])
        self.vc_must = new_vc_must
        if self.vc_top or source.vc_top:
            self.vc_top = True
            self.vc_may = {}
        else:
            for block, valid in source.vc_may.items():
                self.vc_may[block] = self.vc_may.get(block, 0) | valid
        # Miss cache.
        new_mc_must: Dict[int, int] = {}
        for block, age in self.mc_must.items():
            other_age = source.mc_must.get(block)
            if other_age is not None:
                new_mc_must[block] = max(age, other_age)
        self.mc_must = new_mc_must
        if self.mc_top or source.mc_top:
            self.mc_top = True
            self.mc_may = set()
        else:
            self.mc_may |= source.mc_may
        # Stream buffers: positional intersection of claims (a rank
        # with disagreeing claims keeps only the common sub-interval).
        joined: List[Optional[Tuple[int, int]]] = []
        for mine, theirs in zip(self.windows, source.windows):
            if mine is None or theirs is None:
                joined.append(None)
            else:
                lo = max(mine[0], theirs[0])
                hi = min(mine[1], theirs[1])
                joined.append((lo, hi) if lo <= hi else None)
        self.windows = joined
        if self.sb_top or source.sb_top:
            self.sb_top = True
            self.sb_may = []
        else:
            self.sb_may = _merge_intervals(self.sb_may + source.sb_may)
            if len(self.sb_may) > _SB_MAY_CAP:
                self.sb_top = True
                self.sb_may = []
        # Backing L2.
        new_l2_must: Dict[int, Tuple[int, int]] = {}
        for block, (age, valid) in self.l2_must.items():
            other2 = source.l2_must.get(block)
            if other2 is not None:
                new_l2_must[block] = (max(age, other2[0]), valid & other2[1])
        self.l2_must = new_l2_must
        if self.l2_may is None or source.l2_may is None:
            self.l2_may = None
        else:
            for block, valid in source.l2_may.items():
                self.l2_may[block] = self.l2_may.get(block, 0) | valid


# -- Event and walk facts ---------------------------------------------------


class _Event:
    """One *possible* chain consultation by an L1 read/ifetch piece.

    All fields describe the demand miss the L1 would present to the
    chain, bounded over every concrete execution reaching the site:

    Attributes:
        block: The L1 block address of the piece.
        definite: The event fires on *every* execution (the piece is a
            proven L1 miss); otherwise it merely may fire.
        block_miss_possible: The miss can be a block-level miss (an L1
            eviction, hence a victim-cache insert, can happen).
        block_miss_definite: The block is proven absent from L1.
        mask_lo: Sub-block mask definitely contained in the mask the
            chain is probed with, whenever the event fires.
        mask_hi: Superset of any mask the chain can be probed with.
    """

    __slots__ = (
        "block",
        "definite",
        "block_miss_possible",
        "block_miss_definite",
        "mask_lo",
        "mask_hi",
    )

    def __init__(
        self,
        block: int,
        definite: bool,
        block_miss_possible: bool,
        block_miss_definite: bool,
        mask_lo: int,
        mask_hi: int,
    ) -> None:
        self.block = block
        self.definite = definite
        self.block_miss_possible = block_miss_possible
        self.block_miss_definite = block_miss_definite
        self.mask_lo = mask_lo
        self.mask_hi = mask_hi


class _StructFact:
    """What the walk proves about one structure, *given the event fires*."""

    __slots__ = ("probe_pos", "probe_def", "hit_def", "miss_def")

    def __init__(
        self,
        probe_pos: bool,
        probe_def: bool,
        hit_def: bool,
        miss_def: bool,
    ) -> None:
        self.probe_pos = probe_pos
        self.probe_def = probe_def
        self.hit_def = hit_def
        self.miss_def = miss_def


# -- The chain-aware analyzer -----------------------------------------------


class _ChainAnalyzer(_Analyzer):
    """Extends the L1 transfer functions with the chain domains."""

    def __init__(
        self,
        program: AssembledProgram,
        geometry: CacheGeometry,
        fetch: FetchPolicy,
        stack_words: int,
        miss_path: MissPathConfig,
    ) -> None:
        super().__init__(program, geometry, fetch, stack_words)
        self.chain_names: Tuple[str, ...] = miss_path.chain_names
        self.has_vc = miss_path.victim_entries > 0
        self.vc_entries = miss_path.victim_entries
        self.has_mc = miss_path.miss_entries > 0
        self.mc_entries = miss_path.miss_entries
        self.has_sb = miss_path.stream_buffers > 0
        self.sb_buffers = miss_path.stream_buffers
        self.sb_depth = miss_path.stream_depth
        self.has_l2 = miss_path.l2_net_size > 0
        if self.has_l2:
            l2_geometry = miss_path.l2_geometry(geometry)
            self.l2_ways = l2_geometry.ways
            self.l2_sets = l2_geometry.num_sets
            self.l2_block = l2_geometry.block_size
            self.l2_sub = l2_geometry.sub_block_size
            # An unknown-address read touches at most two L1 blocks,
            # each spanning at most K L2 blocks; consecutive L2 blocks
            # rotate through sets, so one set sees at most ceil(K/sets)
            # per L1 block.
            spread = max(1, geometry.block_size // self.l2_block)
            self.l2_unknown_incr = 2 * max(
                1, -(-spread // self.l2_sets)
            )

    def make_entry_state(self) -> _AbsState:
        state = super().make_entry_state()
        state.ext = _ChainExt()  # cold chain: every structure empty
        return state

    # -- Event extraction ---------------------------------------------

    def _event_facts(
        self, state: _AbsState, block: int, needed: int, first_sub: int
    ) -> Optional[_Event]:
        """The chain event for one read/ifetch piece at the pre-state,
        or None for a guaranteed L1 hit (the chain is never consulted).
        """
        must_entry = state.must.get(block)
        if must_entry is not None and not (needed & ~must_entry[1]):
            return None
        may = state.may
        proven_absent = may is not None and block not in may
        if may is None:
            old_may_valid = self.full_mask
        else:
            entry = may.get(block)
            old_may_valid = entry[1] if entry is not None else 0
        guaranteed_missing = needed & ~old_may_valid
        definite = proven_absent or bool(guaranteed_missing)
        if proven_absent:
            mask_lo = self.fetch.plan(needed, first_sub, 0, self.nsub).fetch_mask
        else:
            mask_lo = guaranteed_missing
        _must_gain, mask_hi = self._gain_masks(
            needed, first_sub, old_may_valid, proven_absent
        )
        return _Event(
            block=block,
            definite=definite,
            block_miss_possible=must_entry is None,
            block_miss_definite=proven_absent,
            mask_lo=mask_lo,
            mask_hi=mask_hi,
        )

    # -- Victim-cache fill (the L1 eviction happens before the probe) --

    def _apply_vc_fill(
        self, state: _AbsState, ext: _ChainExt, ev: _Event
    ) -> None:
        """Model the possible L1 eviction feeding the victim cache.

        Uses the L1 *pre-state* (``state``) to enumerate eviction
        candidates, and mutates ``ext`` in place.  Sound for
        non-definite events: the weakening branch over-approximates
        the no-op outcome as well.
        """
        if not self.has_vc or not ev.block_miss_possible:
            return
        may = state.may
        if may is None:
            candidates: Optional[List[Tuple[int, int]]] = None
        else:
            set_index = ev.block % self.num_sets
            candidates = [
                (block, entry[1])
                for block, entry in may.items()
                if block != ev.block and block % self.num_sets == set_index
            ]
            if not candidates:
                return  # nothing can be evicted: the set is empty
        if (
            candidates is not None
            and self.ways == 1
            and ev.block_miss_definite
            and len(candidates) == 1
            and candidates[0][0] in state.must
            and state.must[candidates[0][0]][1] != 0
        ):
            # The victim is exactly this one resident block, and its
            # guaranteed-valid mask is nonzero, so the insert happens.
            victim, possible_valid = candidates[0]
            guaranteed_valid = state.must[victim][1]
            old = ext.vc_must.get(victim)
            for other in list(ext.vc_must):
                if other == victim:
                    continue
                age, valid = ext.vc_must[other]
                if age + 1 >= self.vc_entries:
                    del ext.vc_must[other]
                else:
                    ext.vc_must[other] = (age + 1, valid)
            merged = guaranteed_valid | (old[1] if old is not None else 0)
            ext.vc_must[victim] = (0, merged)
            if not ext.vc_top:
                ext.vc_may[victim] = (
                    ext.vc_may.get(victim, 0) | possible_valid
                )
            return
        # A (possibly different, possibly absent) victim may be
        # inserted: weaken must, grow may.
        for other in list(ext.vc_must):
            age, valid = ext.vc_must[other]
            if age + 1 >= self.vc_entries:
                del ext.vc_must[other]
            else:
                ext.vc_must[other] = (age + 1, valid)
        if candidates is None:
            ext.vc_top = True
            ext.vc_may = {}
        elif not ext.vc_top:
            for block, possible_valid in candidates:
                ext.vc_may[block] = ext.vc_may.get(block, 0) | possible_valid

    # -- L2 geometry helpers -------------------------------------------

    def _l2_span_pieces(
        self, l1_block: int, mask: int
    ) -> List[Tuple[int, int]]:
        """``(L2 block, needed L2 sub-mask)`` pieces of the one L2 read
        the chain issues for an L1 miss with ``mask`` (the read spans
        the first through last set sub-block, like the concrete probe).
        """
        if not mask:
            return []
        first = (mask & -mask).bit_length() - 1
        last = mask.bit_length() - 1
        sub = self.geometry.sub_block_size
        addr = l1_block * self.geometry.block_size + first * sub
        size = (last - first + 1) * sub
        out: List[Tuple[int, int]] = []
        first_block = addr // self.l2_block
        last_block = (addr + size - 1) // self.l2_block
        for block in range(first_block, last_block + 1):
            base = block * self.l2_block
            lo = max(addr, base) - base
            hi = min(addr + size, base + self.l2_block) - 1 - base
            out.append(
                (block, mask_of_range(lo // self.l2_sub, hi // self.l2_sub))
            )
        return out

    def _l2_age_must(self, ext: _ChainExt, block: int, boundary: int) -> None:
        set_index = block % self.l2_sets
        for other in list(ext.l2_must):
            if other == block or other % self.l2_sets != set_index:
                continue
            age, valid = ext.l2_must[other]
            if age < boundary:
                if age + 1 >= self.l2_ways:
                    del ext.l2_must[other]
                else:
                    ext.l2_must[other] = (age + 1, valid)

    # -- The chain walk ------------------------------------------------

    def _chain_walk_facts(
        self, ext: _ChainExt, ev: _Event
    ) -> Tuple[Dict[str, _StructFact], bool, bool]:
        """Prove per-structure probe/hit/miss facts for one event.

        All facts are *conditional on the event firing*.  Returns
        ``(facts, backing_def, memory_def)`` where
        ``backing_def`` means the walk provably reaches the backing
        level (the L2 if present, else memory) — the condition under
        which tag-side fills happen.
        """
        facts: Dict[str, _StructFact] = {}
        reach_def = True
        reach_pos = True
        for name in self.chain_names:
            probe_def = reach_def
            probe_pos = reach_pos
            hit_local = False
            miss_local = False
            if name == "victim":
                entry = ext.vc_must.get(ev.block)
                hit_local = entry is not None and not (ev.mask_hi & ~entry[1])
                if not ext.vc_top:
                    possible = ext.vc_may.get(ev.block)
                    miss_local = possible is None or bool(
                        ev.mask_lo & ~possible
                    )
            elif name == "miss":
                hit_local = ev.block in ext.mc_must
                miss_local = not ext.mc_top and ev.block not in ext.mc_may
            elif name == "stream":
                hit_local = any(
                    window is not None
                    and window[0] <= ev.block <= window[1]
                    for window in ext.windows
                )
                possibly = ext.sb_top or any(
                    lo <= ev.block <= hi for lo, hi in ext.sb_may
                )
                miss_local = not possibly
            else:  # l2
                hi_pieces = self._l2_span_pieces(ev.block, ev.mask_hi)
                hit_local = bool(hi_pieces) and all(
                    block in ext.l2_must
                    and not (needed & ~ext.l2_must[block][1])
                    for block, needed in hi_pieces
                )
                if ext.l2_may is not None and ev.mask_lo:
                    miss_local = any(
                        needed & ~ext.l2_may.get(block, 0)
                        for block, needed in self._l2_span_pieces(
                            ev.block, ev.mask_lo
                        )
                    )
            facts[name] = _StructFact(
                probe_pos=probe_pos,
                probe_def=probe_def,
                hit_def=probe_def and hit_local,
                miss_def=miss_local,
            )
            reach_def = reach_def and miss_local
            reach_pos = reach_pos and not hit_local
        memory_def = reach_def
        if self.has_l2:
            backing_def = facts["l2"].probe_def
        else:
            backing_def = memory_def
        return facts, backing_def, memory_def

    # -- Transfer: one chain event ------------------------------------

    def _apply_chain_event(
        self, state: _AbsState, ext: _ChainExt, ev: _Event
    ) -> None:
        """Mutate ``ext`` for one (possible) chain consultation.

        Precision-bearing ("definite") updates are gated on
        ``ev.definite`` — when the event only *may* fire, every update
        must also over-approximate the no-op outcome.
        """
        self._apply_vc_fill(state, ext, ev)
        facts, backing_def, _memory_def = self._chain_walk_facts(ext, ev)
        if self.has_vc:
            fact = facts["victim"]
            if fact.probe_pos:
                # A probe hit consumes the entry (the swap back).
                ext.vc_must.pop(ev.block, None)
                if ev.definite and fact.probe_def and fact.hit_def:
                    ext.vc_may.pop(ev.block, None)
        if self.has_mc:
            fact = facts["miss"]
            refreshed = ev.definite and fact.probe_def and (
                fact.hit_def or backing_def
            )
            if refreshed or fact.probe_pos:
                for other in list(ext.mc_must):
                    if other == ev.block:
                        continue
                    age = ext.mc_must[other] + 1
                    if age >= self.mc_entries:
                        del ext.mc_must[other]
                    else:
                        ext.mc_must[other] = age
                if refreshed:
                    ext.mc_must[ev.block] = 0
                if not ext.mc_top:
                    ext.mc_may.add(ev.block)
        if self.has_sb:
            fact = facts["stream"]
            window = (ev.block + 1, ev.block + self.sb_depth)
            if ev.definite and fact.hit_def:
                # The matched buffer refills to exactly this window and
                # becomes most recent; which physical buffer matched is
                # ambiguous, so other claims are dropped.
                ext.windows = [window]
            elif (
                ev.definite
                and fact.probe_def
                and fact.miss_def
                and backing_def
            ):
                # The LRU buffer reallocates to the window.
                ext.windows = (
                    [window] + ext.windows[: self.sb_buffers - 1]
                )
            elif fact.probe_pos:
                ext.windows = []
            if fact.probe_pos or fact.probe_def:
                if not ext.sb_top:
                    ext.sb_may = _merge_intervals(ext.sb_may + [window])
                    if len(ext.sb_may) > _SB_MAY_CAP:
                        ext.sb_top = True
                        ext.sb_may = []
        if self.has_l2:
            fact = facts["l2"]
            if fact.probe_pos:
                read_def = ev.definite and fact.probe_def
                lo_pieces = (
                    {
                        block: needed
                        for block, needed in self._l2_span_pieces(
                            ev.block, ev.mask_lo
                        )
                    }
                    if read_def and ev.mask_lo
                    else {}
                )
                for block, needed in self._l2_span_pieces(
                    ev.block, ev.mask_hi
                ):
                    if block in lo_pieces and block in ext.l2_must:
                        boundary = ext.l2_must[block][0]
                    else:
                        boundary = self.l2_ways
                    self._l2_age_must(ext, block, boundary)
                    if ext.l2_may is not None:
                        ext.l2_may[block] = (
                            ext.l2_may.get(block, 0) | needed
                        )
                for block, needed in lo_pieces.items():
                    old_entry = ext.l2_must.get(block)
                    old_valid = old_entry[1] if old_entry is not None else 0
                    ext.l2_must[block] = (0, old_valid | needed)

    # -- Overridden L1 transfer hooks ----------------------------------

    def _apply_piece(
        self,
        state: _AbsState,
        block: int,
        needed: int,
        first_sub: int,
        kind: AccessType,
    ) -> None:
        if kind is not AccessType.WRITE:
            # Writes are no-allocate: they never fetch, evict, or
            # consult the chain.
            ev = self._event_facts(state, block, needed, first_sub)
            if ev is not None:
                ext = state.ext
                assert isinstance(ext, _ChainExt)
                self._apply_chain_event(state, ext, ev)
        super()._apply_piece(state, block, needed, first_sub, kind)

    def apply_unknown(self, state: _AbsState, kind: AccessType) -> None:
        super().apply_unknown(state, kind)
        if kind is AccessType.WRITE:
            return
        ext = state.ext
        assert isinstance(ext, _ChainExt)
        if self.has_vc:
            # Any entry may be probe-consumed; any block may be evicted
            # into the buffer with any mask.
            ext.vc_must = {}
            ext.vc_top = True
            ext.vc_may = {}
        if self.has_mc:
            for block in list(ext.mc_must):
                age = ext.mc_must[block] + 2
                if age >= self.mc_entries:
                    del ext.mc_must[block]
                else:
                    ext.mc_must[block] = age
            ext.mc_top = True
            ext.mc_may = set()
        if self.has_sb:
            ext.windows = []
            ext.sb_top = True
            ext.sb_may = []
        if self.has_l2:
            ext.l2_may = None
            incr = self.l2_unknown_incr
            for block in list(ext.l2_must):
                age, valid = ext.l2_must[block]
                if age + incr >= self.l2_ways:
                    del ext.l2_must[block]
                else:
                    ext.l2_must[block] = (age + incr, valid)

    # -- Site classification -------------------------------------------

    def _site_chain_class(
        self,
        state: _AbsState,
        addr: Optional[int],
        kind: AccessType,
        l1_cls: SiteClass,
    ) -> Tuple[ChainSiteClass, str]:
        """Hierarchically classify one site at its pre-reference state."""
        if l1_cls is SiteClass.ALWAYS_HIT:
            return (
                ChainSiteClass.L1_HIT,
                "proven L1 hit; the chain is never consulted",
            )
        if kind is AccessType.WRITE:
            return (
                ChainSiteClass.UNCLASSIFIED,
                "write misses bypass the chain (no-allocate)",
            )
        if addr is None:
            return (
                ChainSiteClass.UNCLASSIFIED,
                "address not statically known",
            )
        pieces = self.pieces(addr, self.word)
        if len(pieces) > 1:
            return (
                ChainSiteClass.UNCLASSIFIED,
                "the access spans multiple L1 blocks",
            )
        block, needed, first_sub = pieces[0]
        ev = self._event_facts(state, block, needed, first_sub)
        if ev is None:  # belt and braces: classify_ref said the same
            return (
                ChainSiteClass.L1_HIT,
                "proven L1 hit; the chain is never consulted",
            )
        if l1_cls is SiteClass.FIRST_MISS:
            return (
                ChainSiteClass.FIRST_MISS,
                "at most the first execution consults the chain",
            )
        if not ev.definite:
            return (
                ChainSiteClass.UNCLASSIFIED,
                "the L1 outcome is unproven",
            )
        ext = state.ext
        assert isinstance(ext, _ChainExt)
        scratch = ext.copy()
        self._apply_vc_fill(state, scratch, ev)
        facts, _backing_def, memory_def = self._chain_walk_facts(scratch, ev)
        hit_def_names = tuple(n for n in self.chain_names if facts[n].hit_def)
        if hit_def_names:
            first = hit_def_names[0]
            return (
                _CHAIN_HIT_OF[first],
                f"proven L1 miss serviced by the {first} structure "
                "on every execution",
            )
        if memory_def:
            return (
                ChainSiteClass.MEMORY_BOUND,
                "proven L1 miss that no chain structure can service",
            )
        return (
            ChainSiteClass.UNCLASSIFIED,
            "proven L1 miss with an unproven chain outcome",
        )

    def describe_site(
        self,
        state: _AbsState,
        addr: Optional[int],
        kind: AccessType,
        kind_label: str,
    ) -> Tuple[Any, ...]:
        base = super().describe_site(state, addr, kind, kind_label)
        return base + self._site_chain_class(state, addr, kind, base[0])


# -- Public API -------------------------------------------------------------


def classify_chain_program(
    program: AssembledProgram,
    geometry: CacheGeometry,
    *,
    miss_path: Union[MissPathConfig, Dict[str, Any], None] = None,
    fetch: Union[str, FetchPolicy] = "demand",
    stack_words: int = 4096,
    name: str = "",
    check: bool = True,
) -> ChainClassificationReport:
    """Hierarchically classify every site of ``program`` through a chain.

    The empty/absent chain is allowed: the analysis then proves the
    bare-L1 facts (every definite miss is ``memory-bound``).

    Args:
        program: The assembled program (its word size is used).
        geometry: Concrete L1 cache shape.
        miss_path: Chain shape — a :class:`MissPathConfig`, a mapping,
            or None for a bare L1.
        fetch: L1 fetch policy name or instance.
        stack_words: Stack capacity, as passed to the machine.
        name: Program name for the report and diagnostics.
        check: Refuse programs with error-severity static findings.

    Raises:
        StaticCheckError: When ``check`` and the program has errors.
        ConfigurationError: For word sizes no L1 (or backing L2)
            accepts, or an invalid chain shape.
    """
    config = MissPathConfig.coerce(miss_path) or MissPathConfig()
    word = program.word_size
    if word > geometry.sub_block_size:
        raise ConfigurationError(
            f"word_size ({word}) exceeds sub_block_size "
            f"({geometry.sub_block_size}); no cache accepts this geometry"
        )
    if config.l2_net_size:
        l2_geometry = config.l2_geometry(geometry)
        if word > l2_geometry.sub_block_size:
            raise ConfigurationError(
                f"word_size ({word}) exceeds the backing L2's "
                f"sub_block_size ({l2_geometry.sub_block_size})"
            )
    if check:
        raise_on_errors(
            [d for d in check_program(program, name=name) if d.is_error],
            context=f"classify {name or 'program'}",
        )
    policy = _resolve_fetch(fetch)
    analyzer = _ChainAnalyzer(program, geometry, policy, stack_words, config)
    _in_states, record = _analyze(analyzer)

    sites: List[ChainSiteResult] = []
    for index, inst in enumerate(program.instructions):
        expected = [f"{index}:ifetch"]
        if inst.words == 2:
            expected.append(f"{index}:imm")
        if inst.op in (
            Op.LD, Op.LDB, Op.ST, Op.STB, Op.PUSH, Op.POP, Op.CALL, Op.RET
        ):
            expected.append(f"{index}:data")
        for site in expected:
            data = record.get(site)
            if data is not None:
                l1_cls, _reason, target, kind_label = data[:4]
                chain_cls, chain_reason = data[4:6]
                sites.append(
                    ChainSiteResult(
                        site=site,
                        instr_addr=inst.addr,
                        kind=kind_label,
                        l1=l1_cls,
                        classification=chain_cls,
                        target=target,
                        reason=chain_reason,
                    )
                )
            else:
                role = site.split(":", 1)[1]
                kind_label = (
                    "ifetch"
                    if role in ("ifetch", "imm")
                    else (
                        "read"
                        if inst.op in (Op.LD, Op.LDB, Op.POP, Op.RET)
                        else "write"
                    )
                )
                sites.append(
                    ChainSiteResult(
                        site=site,
                        instr_addr=inst.addr,
                        kind=kind_label,
                        l1=SiteClass.UNCLASSIFIED,
                        classification=ChainSiteClass.UNCLASSIFIED,
                        target=None,
                        reason="unreachable from the entry point",
                    )
                )
    sites.sort(key=lambda result: _site_sort_key(result.site))
    return ChainClassificationReport(
        name=name,
        word_size=word,
        stack_words=stack_words,
        fetch=policy.name,
        net_size=geometry.net_size,
        block_size=geometry.block_size,
        sub_block_size=geometry.sub_block_size,
        associativity=geometry.associativity,
        miss_path=config,
        sites=tuple(sites),
    )


def verify_classification(
    program: AssembledProgram,
    report: ChainClassificationReport,
    *,
    max_steps: int = 5_000_000,
    max_refs: Optional[int] = 200_000,
) -> ChainVerificationResult:
    """Differentially check a report's L1 and chain proofs by replay.

    Runs the program, replays its trace cold through a concrete
    chained cache, attributes every access to its site, and records a
    violation whenever either of the site's proofs is contradicted:

    * an ``always-hit`` (``L1-hit``) access misses;
    * an ``always-miss`` access hits;
    * a ``first-miss`` access misses after its first occurrence;
    * a ``chain-hit@S`` access hits L1, presents no demand miss, or is
      serviced by anything other than ``S`` (checked against the
      chain's ``last_serviced``);
    * a ``memory-bound`` access is serviced before memory.
    """
    config = report.miss_path
    chained = config.enabled
    machine = Machine(program, stack_words=report.stack_words)
    result = machine.run(max_steps=max_steps, max_refs=max_refs)
    trace = result.trace
    cache = SubBlockCache(
        report.geometry(),
        fetch=make_fetch(report.fetch),
        word_size=report.word_size,
        miss_path=config if chained else None,
    )

    def demand_count() -> int:
        if chained:
            return int(cache.stats.misspath.demand_misses)
        return int(cache.stats.block_misses + cache.stats.sub_block_misses)

    proofs = {
        site.site: (site.l1, site.classification) for site in report.sites
    }
    addr_to_index = program.addr_to_index
    occurrences: Dict[str, int] = {}
    violations: List[Tuple[str, int, str, str]] = []
    checked = unclassified = 0
    current = -1
    for access in trace:
        if access.kind is AccessType.IFETCH:
            index = addr_to_index.get(int(access.addr))
            if index is not None:
                current = index
                site = f"{index}:ifetch"
            else:
                site = f"{current}:imm"
        else:
            site = f"{current}:data"
        proof = proofs.get(site)
        # chain-hit@<structure> or memory-bound: a proven L1 miss with
        # a proven servicing level, checked by its demand-miss count.
        expected_server = None if proof is None else _SERVER_OF.get(proof[1])
        before = demand_count() if expected_server is not None else 0
        hit = cache.access(int(access.addr), access.kind, int(access.size))
        occurrence = occurrences.get(site, 0)
        occurrences[site] = occurrence + 1
        if proof is None:
            observed = "hit" if hit else "miss"
            violations.append(
                (site, occurrence, "a classified site", observed)
            )
            continue
        l1_cls, cls = proof
        if (
            cls is ChainSiteClass.UNCLASSIFIED
            and l1_cls is SiteClass.UNCLASSIFIED
        ):
            unclassified += 1
            continue
        checked += 1
        # The L1 proof.  ``L1-hit`` and the chain's ``first-miss`` make
        # the same claims as ``always-hit`` and ``first-miss``; a
        # serviced chain class also claims an L1 miss.
        if l1_cls is SiteClass.ALWAYS_HIT or cls is ChainSiteClass.L1_HIT:
            if not hit:
                violations.append((site, occurrence, "hit", "miss"))
        elif (
            l1_cls is SiteClass.FIRST_MISS
            or cls is ChainSiteClass.FIRST_MISS
        ):
            if occurrence > 0 and not hit:
                violations.append(
                    (site, occurrence, "hit after first occurrence", "miss")
                )
        elif hit:
            # Left: an ``always-miss`` L1 proof or a serviced chain class.
            expected = (
                "miss"
                if expected_server is None
                else f"miss serviced by {expected_server}"
            )
            violations.append((site, occurrence, expected, "hit"))
        elif expected_server is not None:
            # The chain proof: one demand miss, serviced by the proven
            # level (checked against the chain's ``last_serviced``).
            delta = demand_count() - before
            if delta != 1:
                violations.append(
                    (site, occurrence, "exactly one demand miss",
                     f"{delta} demand misses")
                )
            elif chained:
                server = cache.miss_path.last_serviced
                if server != expected_server:
                    violations.append(
                        (site, occurrence,
                         f"serviced by {expected_server}",
                         f"serviced by {server}")
                    )
    return ChainVerificationResult(
        ok=not violations,
        accesses=len(trace),
        checked=checked,
        unclassified_accesses=unclassified,
        violations=tuple(violations),
    )

