"""Pluggable miss-path structures between the L1 cache and memory.

The paper models a single on-chip cache in front of memory, but its
headline metrics — miss ratio and bus traffic — are exactly what
miss-side structures were invented to improve.  This module makes the
L1 miss path a pluggable *chain* of such structures, in the style of
Jouppi's classic evaluation:

* :class:`VictimCache` — a small fully-associative buffer holding
  blocks evicted from L1; a hit swaps the block back without a memory
  fetch.
* :class:`MissCache` — a tag-only recently-missed-block buffer probed
  after the victim cache.
* :class:`StreamBufferSet` — ``N`` sequential-prefetch FIFOs of depth
  ``D``; a miss that matches a buffered prefetch is serviced from the
  buffer, and a non-sequential miss reallocates (flushes) the
  least-recently-used buffer.
* :class:`BackingL2` — a second :class:`~repro.core.cache.SubBlockCache`
  instance acting as a unified second level, proving the core is
  composable.

**The chain never alters L1 behavior.**  A structure hit is still an L1
miss: the 17 :class:`~repro.core.stats.CacheStats` counters are
byte-identical with or without a chain, and the chain only decides
where the fill data comes from — which misses reach memory and how many
bytes they move.  That invariance is what keeps the engine-equivalence
contract intact (an empty chain is indistinguishable from no chain) and
makes miss-path configurations directly comparable: the same L1 miss
and eviction stream feeds every chain.

Accounting lives in :class:`MissPathStats` (per-structure
probes/hits/fills/evictions plus memory-side counters), validated by
the conservation laws in :func:`repro.core.conservation.
check_misspath_conservation`.  See ``docs/misspath.md`` for the chain
order, the stats glossary, and the modeling choices (tag-only miss
cache optimism, uncharged stream-buffer prefetch traffic).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.config import CacheGeometry
from repro.core.replacement import LRUReplacement
from repro.errors import ConfigurationError
from repro.trace.record import AccessType

__all__ = [
    "MISS_PATH_KEYS",
    "MISS_PATH_MIN",
    "MissPathConfig",
    "MissPathStats",
    "StructureStats",
    "MissPathStructure",
    "VictimCache",
    "MissCache",
    "StreamBufferSet",
    "BackingL2",
    "MissPathChain",
    "build_miss_path",
    "miss_path_problems",
]

#: Smallest legal value of each chain field; every field is a non-bool
#: int.  Its keys are the exact set a configuration mapping may carry:
#: anything else is rejected loudly — a typo'd ``victim_entires`` must
#: fail parsing, not silently fingerprint as a distinct sweep cell.
MISS_PATH_MIN = {
    "victim_entries": 0,
    "miss_entries": 0,
    "stream_buffers": 0,
    "stream_depth": 1,
    "l2_net_size": 0,
    "l2_block_size": 0,
    "l2_sub_block_size": 0,
    "l2_associativity": 1,
}
MISS_PATH_KEYS = frozenset(MISS_PATH_MIN)


def miss_path_problems(values: Mapping[str, Any]) -> Dict[str, str]:
    """Why each illegal value of a chain-field mapping is illegal, by
    field (empty when every value is legal)."""
    return {
        name: f"{name} must be an integer >= {MISS_PATH_MIN[name]}, got {value!r}"
        for name, value in values.items()
        if isinstance(value, bool) or not isinstance(value, int)
        or value < MISS_PATH_MIN[name]
    }


@dataclass(frozen=True)
class MissPathConfig:
    """Declarative shape of the miss-path chain (hashable, frozen).

    All structures default to absent, so ``MissPathConfig()`` is the
    *empty* chain — behaviorally identical to passing no miss path at
    all.  Fields:

    Args:
        victim_entries: Victim-cache capacity in blocks (0 = absent).
        miss_entries: Miss-cache capacity in tags (0 = absent).
        stream_buffers: Number of stream-buffer FIFOs (0 = absent).
        stream_depth: Prefetch depth of each stream buffer.
        l2_net_size: Backing L2 data capacity in bytes (0 = absent).
        l2_block_size: L2 block size; 0 inherits the L1 block size.
        l2_sub_block_size: L2 sub-block size; 0 inherits the L2 block
            size (a conventional second level).
        l2_associativity: L2 set associativity.

    Raises:
        ConfigurationError: For a field that is not an integer of at
            least its :data:`MISS_PATH_MIN`.
    """

    victim_entries: int = 0
    miss_entries: int = 0
    stream_buffers: int = 0
    stream_depth: int = 4
    l2_net_size: int = 0
    l2_block_size: int = 0
    l2_sub_block_size: int = 0
    l2_associativity: int = 4

    def __post_init__(self) -> None:
        problems = miss_path_problems(vars(self))
        if problems:
            raise ConfigurationError("; ".join(problems.values()))

    # -- Shape queries ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one structure is configured."""
        return bool(
            self.victim_entries
            or self.miss_entries
            or self.stream_buffers
            or self.l2_net_size
        )

    @property
    def chain_names(self) -> Tuple[str, ...]:
        """Structure names in probe order (victim → miss → stream → l2)."""
        names: List[str] = []
        if self.victim_entries:
            names.append("victim")
        if self.miss_entries:
            names.append("miss")
        if self.stream_buffers:
            names.append("stream")
        if self.l2_net_size:
            names.append("l2")
        return tuple(names)

    def l2_geometry(self, l1_geometry: CacheGeometry) -> CacheGeometry:
        """The backing L2's validated geometry (requires an L2).

        Raises:
            ConfigurationError: When no L2 is configured or the
                resolved shape is invalid.
        """
        if not self.l2_net_size:
            raise ConfigurationError("no backing L2 configured")
        block = self.l2_block_size or l1_geometry.block_size
        sub = self.l2_sub_block_size or block
        return CacheGeometry(
            self.l2_net_size, block, sub, associativity=self.l2_associativity
        )

    # -- Serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, int]:
        """Lossless mapping form (the inverse of :meth:`from_dict`)."""
        return {
            "victim_entries": self.victim_entries,
            "miss_entries": self.miss_entries,
            "stream_buffers": self.stream_buffers,
            "stream_depth": self.stream_depth,
            "l2_net_size": self.l2_net_size,
            "l2_block_size": self.l2_block_size,
            "l2_sub_block_size": self.l2_sub_block_size,
            "l2_associativity": self.l2_associativity,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MissPathConfig":
        """Parse a configuration mapping, rejecting unknown keys loudly.

        Raises:
            ConfigurationError: On a non-mapping payload, unrecognized
                keys (``misspath-unknown-key`` in configlint terms), or
                invalid values.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"miss_path must be a mapping, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - MISS_PATH_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown miss-path keys {unknown}; "
                f"expected a subset of {sorted(MISS_PATH_KEYS)}"
            )
        return cls(**payload)

    @classmethod
    def coerce(
        cls, value: "Union[MissPathConfig, Dict[str, Any], None]"
    ) -> "Optional[MissPathConfig]":
        """Normalize user input: None, a mapping, or a config object."""
        if value is None or isinstance(value, MissPathConfig):
            return value
        return cls.from_dict(value)

    def key(self) -> str:
        """Canonical short form used in fingerprints and labels.

        ``"none"`` for the empty chain; otherwise a stable composition
        like ``"vc4+mc2+sb4x8+l2:4096/64/16@4"``.
        """
        if not self.enabled:
            return "none"
        parts: List[str] = []
        if self.victim_entries:
            parts.append(f"vc{self.victim_entries}")
        if self.miss_entries:
            parts.append(f"mc{self.miss_entries}")
        if self.stream_buffers:
            parts.append(f"sb{self.stream_buffers}x{self.stream_depth}")
        if self.l2_net_size:
            parts.append(
                f"l2:{self.l2_net_size}/{self.l2_block_size}"
                f"/{self.l2_sub_block_size}@{self.l2_associativity}"
            )
        return "+".join(parts)


class StructureStats:
    """Probe/hit/fill/eviction counters for one miss-path structure."""

    __slots__ = ("probes", "hits", "fills", "evictions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.probes = 0
        self.hits = 0
        self.fills = 0
        self.evictions = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "probes": self.probes,
            "hits": self.hits,
            "fills": self.fills,
            "evictions": self.evictions,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StructureStats":
        expected = set(cls.__slots__)
        if set(payload) != expected:
            raise ValueError(
                f"not a StructureStats dump: got {sorted(payload)}, "
                f"expected {sorted(expected)}"
            )
        stats = cls()
        stats.probes = payload["probes"]
        stats.hits = payload["hits"]
        stats.fills = payload["fills"]
        stats.evictions = payload["evictions"]
        return stats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructureStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"<StructureStats probes={self.probes} hits={self.hits} "
            f"fills={self.fills} evictions={self.evictions}>"
        )


class MissPathStats:
    """Counters accumulated by a miss-path chain during a run.

    Lives as the optional ``misspath`` attribute of
    :class:`~repro.core.stats.CacheStats`, so the warm-start reset and
    the lossless to_dict/from_dict serialization cover it for free.

    Attributes:
        chain: Structure names in probe order.
        structures: Per-structure :class:`StructureStats`, keyed by
            chain name.
        demand_misses: L1 misses presented to the chain (equals L1
            ``block_misses + sub_block_misses``).
        memory_fetches: Demand misses no structure serviced — they
            reached main memory.
        memory_bytes_fetched: Bytes those fetches moved from memory.
            With a backing L2 this is the L2's own fetch traffic.
        l2_stats: The backing L2's full :class:`CacheStats` (shared
            with the live L2 cache object), or None without an L2.
    """

    __slots__ = (
        "chain",
        "structures",
        "demand_misses",
        "memory_fetches",
        "memory_bytes_fetched",
        "l2_stats",
    )

    def __init__(self, chain: Tuple[str, ...]) -> None:
        self.chain = tuple(chain)
        self.structures = {name: StructureStats() for name in self.chain}
        self.l2_stats = None
        self.reset()

    def reset(self) -> None:
        """Zero every counter in place (structure identity preserved)."""
        self.demand_misses = 0
        self.memory_fetches = 0
        self.memory_bytes_fetched = 0
        for stats in self.structures.values():
            stats.reset()
        if self.l2_stats is not None:
            self.l2_stats.reset()

    # -- Derived metrics ---------------------------------------------------

    @property
    def structure_hits(self) -> int:
        """Demand misses serviced by any structure (did not reach memory)."""
        return sum(s.hits for s in self.structures.values())

    @property
    def l2_misses(self) -> int:
        """Backing-L2 misses (0 without an L2 in the chain)."""
        l2 = self.structures.get("l2")
        return l2.probes - l2.hits if l2 is not None else 0

    def hits_summary(self) -> Dict[str, int]:
        """Flat per-structure hit counters plus the memory-side count.

        The interchange form shared by sweep JSONL cell records and the
        service's ``/metrics`` counters.
        """
        summary = {name: self.structures[name].hits for name in self.chain}
        summary["memory_fetches"] = self.memory_fetches
        return summary

    # -- Serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe dump (inverse of :meth:`from_dict`)."""
        return {
            "chain": list(self.chain),
            "demand_misses": self.demand_misses,
            "memory_fetches": self.memory_fetches,
            "memory_bytes_fetched": self.memory_bytes_fetched,
            "structures": {
                name: self.structures[name].to_dict() for name in self.chain
            },
            "l2_stats": (
                self.l2_stats.to_dict() if self.l2_stats is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MissPathStats":
        """Rebuild from a :meth:`to_dict` dump (strict, like CacheStats).

        Raises:
            ValueError: On missing/unknown keys or malformed structure
                entries.
        """
        from repro.core.stats import CacheStats

        expected = set(cls.__slots__)
        if set(payload) != expected:
            missing = sorted(expected - set(payload))
            unknown = sorted(set(payload) - expected)
            raise ValueError(
                f"not a MissPathStats dump: missing {missing}, unknown {unknown}"
            )
        chain = tuple(payload["chain"])
        if set(payload["structures"]) != set(chain):
            raise ValueError(
                f"structures {sorted(payload['structures'])} do not match "
                f"chain {sorted(chain)}"
            )
        stats = cls(chain)
        stats.demand_misses = payload["demand_misses"]
        stats.memory_fetches = payload["memory_fetches"]
        stats.memory_bytes_fetched = payload["memory_bytes_fetched"]
        stats.structures = {
            name: StructureStats.from_dict(entry)
            for name, entry in payload["structures"].items()
        }
        if payload["l2_stats"] is not None:
            stats.l2_stats = CacheStats.from_dict(payload["l2_stats"])
        return stats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissPathStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"<MissPathStats chain={'+'.join(self.chain) or 'empty'} "
            f"demand={self.demand_misses} serviced={self.structure_hits} "
            f"memory={self.memory_fetches}>"
        )


class MissPathStructure:
    """The MissPath protocol: one structure on the L1 miss path.

    Each structure sees three events, always at block granularity with
    the relevant sub-block mask:

    * :meth:`probe` — an L1 demand miss asks whether the structure can
      supply the missing sub-blocks; True means the miss is serviced
      here and the chain walk stops.
    * :meth:`fill` — the miss was serviced by the backing level (L2 or
      memory); structures that were probed and missed may capture the
      block on its way up.
    * :meth:`evict` — L1 displaced a block; structures that hold
      evictions capture it.

    Counter updates for *probes* and *hits* are the chain's job;
    structures account their own *fills* and *evictions*.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = StructureStats()

    def probe(self, block_addr: int, mask: int) -> bool:
        raise NotImplementedError

    def fill(self, block_addr: int, mask: int) -> None:
        """Default: the structure does not capture serviced misses."""

    def evict(self, block_addr: int, mask: int) -> None:
        """Default: the structure does not capture L1 evictions."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.stats!r}>"


class VictimCache(MissPathStructure):
    """Fully-associative LRU buffer of blocks evicted from L1.

    Entries carry the evicted block's valid-sub-block mask; a probe
    hits only when every *needed* missing sub-block is held (partial
    sub-block residency transfers from L1).  A hit removes the entry —
    the block swaps back into L1, Jouppi's victim-cache semantics.
    """

    name = "victim"

    def __init__(self, entries: int) -> None:
        super().__init__()
        self.entries = entries
        self._store: "OrderedDict[int, int]" = OrderedDict()

    def probe(self, block_addr: int, mask: int) -> bool:
        valid = self._store.get(block_addr)
        if valid is None or mask & ~valid:
            return False
        del self._store[block_addr]
        return True

    def evict(self, block_addr: int, mask: int) -> None:
        if not mask:
            return
        self.stats.fills += 1
        if block_addr in self._store:
            self._store[block_addr] |= mask
            self._store.move_to_end(block_addr)
        else:
            self._store[block_addr] = mask
            if len(self._store) > self.entries:
                self._store.popitem(last=False)
                self.stats.evictions += 1

    def contents(self) -> Dict[int, int]:
        """Resident state ``{block address: valid mask}`` (for tests)."""
        return dict(self._store)


class MissCache(MissPathStructure):
    """Tag-only LRU buffer of recently missed block addresses.

    Holds no data, so a tag match optimistically supplies every missing
    sub-block — equivalent to assuming the structure retained the full
    block, the natural reading of a tag-only model.  Filled on every
    miss the chain passed to the backing level.
    """

    name = "miss"

    def __init__(self, entries: int) -> None:
        super().__init__()
        self.entries = entries
        self._store: "OrderedDict[int, None]" = OrderedDict()

    def probe(self, block_addr: int, mask: int) -> bool:
        if block_addr not in self._store:
            return False
        self._store.move_to_end(block_addr)
        return True

    def fill(self, block_addr: int, mask: int) -> None:
        self.stats.fills += 1
        if block_addr in self._store:
            self._store.move_to_end(block_addr)
            return
        self._store[block_addr] = None
        if len(self._store) > self.entries:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    def contents(self) -> List[int]:
        """Resident block addresses, LRU first (for tests)."""
        return list(self._store)


class StreamBufferSet(MissPathStructure):
    """``N`` sequential-prefetch FIFOs of depth ``D``.

    A miss that matches a buffered address is serviced from that
    buffer: the matched entry and everything ahead of it are consumed,
    and the buffer tops back up with the following block addresses.  A
    miss that matches no buffer reallocates the least-recently-used
    buffer with the ``D`` successors of the missed block — the
    flush-on-nonsequential behavior.

    Prefetch fills are tag-only in this functional model: buffered
    blocks are *not* charged to memory traffic.  Only misses the whole
    chain fails to service move memory bytes, so stream-buffer traffic
    savings are an optimistic bound (the classic trends still hold —
    see ``docs/misspath.md``).
    """

    name = "stream"

    def __init__(self, buffers: int, depth: int) -> None:
        super().__init__()
        self.buffers = buffers
        self.depth = depth
        self._pending: List[Deque[int]] = [deque() for _ in range(buffers)]
        self._next: List[int] = [0] * buffers
        self._last_use: List[int] = [0] * buffers
        self._clock = 0

    def probe(self, block_addr: int, mask: int) -> bool:
        for index, pending in enumerate(self._pending):
            if block_addr not in pending:
                continue
            self._clock += 1
            self._last_use[index] = self._clock
            while True:
                head = pending.popleft()
                if head == block_addr:
                    break
            while len(pending) < self.depth:
                pending.append(self._next[index])
                self._next[index] += 1
                self.stats.fills += 1
            return True
        return False

    def fill(self, block_addr: int, mask: int) -> None:
        self._clock += 1
        index = min(range(self.buffers), key=lambda i: self._last_use[i])
        if self._pending[index]:
            self.stats.evictions += 1
        self._pending[index] = deque(
            block_addr + offset for offset in range(1, self.depth + 1)
        )
        self._next[index] = block_addr + self.depth + 1
        self._last_use[index] = self._clock
        self.stats.fills += self.depth

    def contents(self) -> List[List[int]]:
        """Buffered block addresses per FIFO, head first (for tests)."""
        return [list(pending) for pending in self._pending]


class BackingL2(MissPathStructure):
    """A unified second-level cache: another :class:`SubBlockCache`.

    Every miss the upstream structures fail to service becomes one L2
    read over the byte span the L1 fetch plan moves.  An L2 hit is a
    structure hit; an L2 miss fetches from memory, and the fetched
    bytes (the L2's own ``bytes_fetched`` delta) are what the chain
    charges as memory traffic.
    """

    name = "l2"

    def __init__(
        self,
        config: MissPathConfig,
        l1_geometry: CacheGeometry,
        word_size: int,
    ) -> None:
        # Imported here: cache.py imports this module for the chain.
        from repro.core.cache import SubBlockCache

        super().__init__()
        geometry = config.l2_geometry(l1_geometry)
        if word_size > geometry.sub_block_size:
            raise ConfigurationError(
                f"word_size ({word_size}) exceeds the backing L2's "
                f"sub_block_size ({geometry.sub_block_size})"
            )
        self._l1_block_size = l1_geometry.block_size
        self._l1_sub_size = l1_geometry.sub_block_size
        self.cache = SubBlockCache(
            geometry, replacement=LRUReplacement(), word_size=word_size
        )
        self.last_fetch_bytes = 0

    def probe(self, block_addr: int, mask: int) -> bool:
        first = (mask & -mask).bit_length() - 1
        last = mask.bit_length() - 1
        addr = block_addr * self._l1_block_size + first * self._l1_sub_size
        size = (last - first + 1) * self._l1_sub_size
        before = self.cache.stats.bytes_fetched
        hit = self.cache.access(addr, AccessType.READ, size)
        self.last_fetch_bytes = self.cache.stats.bytes_fetched - before
        return hit


class MissPathChain:
    """The ordered miss-path chain an L1 cache consults on every miss.

    Structures are probed in fixed order — victim cache, miss cache,
    stream buffers, backing L2 — and the walk stops at the first hit.
    A miss that reaches the bottom is charged to memory, and the
    tag-side structures it passed capture it on the way back up
    (:meth:`MissPathStructure.fill`).
    """

    def __init__(
        self,
        config: MissPathConfig,
        l1_geometry: CacheGeometry,
        word_size: int = 2,
    ) -> None:
        config = MissPathConfig.coerce(config)
        if config is None or not config.enabled:
            raise ConfigurationError(
                "MissPathChain requires at least one configured structure; "
                "pass miss_path=None for a bare L1"
            )
        self.config = config
        self.l1_geometry = l1_geometry
        self.structures: List[MissPathStructure] = []
        self.l2: Optional[BackingL2] = None
        if config.victim_entries:
            self.structures.append(VictimCache(config.victim_entries))
        if config.miss_entries:
            self.structures.append(MissCache(config.miss_entries))
        if config.stream_buffers:
            self.structures.append(
                StreamBufferSet(config.stream_buffers, config.stream_depth)
            )
        if config.l2_net_size:
            self.l2 = BackingL2(config, l1_geometry, word_size)
            self.structures.append(self.l2)
        self.stats = MissPathStats(config.chain_names)
        for structure in self.structures:
            structure.stats = self.stats.structures[structure.name]
        if self.l2 is not None:
            self.stats.l2_stats = self.l2.cache.stats
        #: Who serviced the most recent demand miss: a structure name,
        #: ``"memory"``, or None before the first miss.  Consumed by the
        #: abschain differential verifier to check chain-hit proofs.
        self.last_serviced: Optional[str] = None

    def service_miss(self, block_addr: int, mask: int, nbytes: int) -> None:
        """Resolve one L1 demand miss through the chain.

        Args:
            block_addr: The missing L1 block's block-granule address.
            mask: Sub-block mask the L1 fetch plan moves into the block.
            nbytes: Bytes that plan charges to the L1's fetch traffic —
                what memory moves when no structure services the miss
                and no L2 is configured.
        """
        stats = self.stats
        stats.demand_misses += 1
        serviced: Optional[MissPathStructure] = None
        probed: List[MissPathStructure] = []
        for structure in self.structures:
            structure.stats.probes += 1
            probed.append(structure)
            if structure.probe(block_addr, mask):
                structure.stats.hits += 1
                serviced = structure
                break
        self.last_serviced = serviced.name if serviced is not None else "memory"
        if serviced is None:
            stats.memory_fetches += 1
            if self.l2 is not None:
                stats.memory_bytes_fetched += self.l2.last_fetch_bytes
            else:
                stats.memory_bytes_fetched += nbytes
        if serviced is None or serviced is self.l2:
            # The block came up from the backing level: announce it to
            # the tag-side structures that were probed and missed.
            for structure in probed:
                if structure is not serviced:
                    structure.fill(block_addr, mask)

    def on_l1_eviction(self, block_addr: int, valid_mask: int) -> None:
        """Offer an L1-displaced block to the chain (victim capture)."""
        for structure in self.structures:
            structure.evict(block_addr, valid_mask)


def build_miss_path(
    miss_path: "Union[MissPathConfig, Dict[str, Any], None]",
    l1_geometry: CacheGeometry,
    word_size: int = 2,
) -> Optional[MissPathChain]:
    """The chain for a configuration, or None for an absent/empty one."""
    config = MissPathConfig.coerce(miss_path)
    if config is None or not config.enabled:
        return None
    return MissPathChain(config, l1_geometry, word_size)
