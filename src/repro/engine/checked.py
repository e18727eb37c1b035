"""The checked engine: reference semantics plus per-access sanitizers.

:class:`CheckedEngine` executes exactly like
:class:`~repro.engine.reference.ReferenceEngine` — same object-model
cache, same per-access loop, identical statistics — but after every
access it asserts the cache-model invariants and the statistics
conservation laws, raising :class:`~repro.errors.SanitizerError` the
moment any is violated:

* **LRU/FIFO stack property** — each set's replacement state is a
  permutation of exactly the filled ways (``sanitizer-lru-stack``).
* **Tag uniqueness** — no two blocks of a set share a tag, and no tag
  is negative (``sanitizer-tag-dup``).
* **Valid-bit containment** — every resident block has a non-empty
  valid mask inside the geometry's sub-block range, referenced bits in
  range, and dirty bits only on valid sub-blocks
  (``sanitizer-valid-mask``).
* **Frame accounting** — the filled-frame counter brackets the number
  of resident blocks (``sanitizer-fill-count``).
* **Counter conservation** — every law of
  :func:`~repro.core.conservation.check_stats_conservation`, plus the
  miss-path laws of
  :func:`~repro.core.conservation.check_misspath_conservation` when a
  chain is configured (``sanitizer-conservation``).

Because both engines are bound by the equivalence contract, running a
sweep under ``--engine checked`` changes nothing but speed: identical stats,
with a tripwire under every access.  ``tests/engine/test_equivalence.py``
holds it to the reference loop on every combo of its grid, and
``benchmarks/test_speed_contracts.py`` bounds its overhead at 400x
the reference loop.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.core.cache import SubBlockCache
from repro.core.config import CacheGeometry
from repro.core.conservation import (
    check_misspath_conservation,
    check_stats_conservation,
)
from repro.core.fetch import FetchPolicy
from repro.core.misspath import MissPathConfig
from repro.core.replacement import ReplacementPolicy
from repro.core.sim import simulate
from repro.core.stats import CacheStats
from repro.core.write import WritePolicy
from repro.engine.base import Engine, deadline_guard
from repro.engine.traceview import TraceView
from repro.errors import SanitizerError
from repro.trace.record import AccessType

__all__ = ["CheckedCache", "CheckedEngine", "check_cache_invariants"]

#: Replacement policies whose per-set state is an ordered way list.
_STACK_POLICIES = frozenset({"lru", "fifo"})


def _fail(rule: str, detail: str) -> None:
    from repro.staticcheck.diagnostics import Diagnostic, Severity

    raise SanitizerError(
        f"[{rule}] {detail}",
        rule=rule,
        diagnostics=[
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=detail,
                source="sanitizer",
            )
        ],
    )


def check_cache_invariants(cache: SubBlockCache) -> None:
    """Assert the structural cache-model invariants.

    Raises:
        SanitizerError: Naming the first violated invariant.
    """
    geometry = cache.geometry
    full_mask = (1 << geometry.sub_blocks_per_block) - 1
    ordered_state = cache.replacement.name in _STACK_POLICIES
    resident = 0
    for set_index, ways in enumerate(cache._sets):
        tags = set()
        filled_ways = set()
        for way, blk in enumerate(ways):
            if blk is None:
                continue
            resident += 1
            filled_ways.add(way)
            if blk.tag < 0:
                _fail(
                    "sanitizer-tag-dup",
                    f"set {set_index} way {way}: negative tag {blk.tag}",
                )
            if blk.tag in tags:
                _fail(
                    "sanitizer-tag-dup",
                    f"set {set_index}: tag {blk.tag:#x} stored in two ways",
                )
            tags.add(blk.tag)
            if blk.valid == 0 or blk.valid & ~full_mask:
                _fail(
                    "sanitizer-valid-mask",
                    f"set {set_index} way {way}: valid mask {blk.valid:#b} "
                    f"outside (0, {full_mask:#b}] for a resident block",
                )
            if blk.referenced & ~full_mask:
                _fail(
                    "sanitizer-valid-mask",
                    f"set {set_index} way {way}: referenced mask "
                    f"{blk.referenced:#b} has bits beyond sub-block "
                    f"{geometry.sub_blocks_per_block - 1}",
                )
            if blk.dirty & ~blk.valid:
                _fail(
                    "sanitizer-valid-mask",
                    f"set {set_index} way {way}: dirty mask {blk.dirty:#b} "
                    f"marks invalid sub-blocks (valid {blk.valid:#b})",
                )
        if ordered_state:
            state = cache._policy_state[set_index]
            if len(state) != len(set(state)):
                _fail(
                    "sanitizer-lru-stack",
                    f"set {set_index}: replacement stack {state} repeats a way",
                )
            if set(state) != filled_ways:
                _fail(
                    "sanitizer-lru-stack",
                    f"set {set_index}: replacement stack {sorted(state)} does "
                    f"not cover exactly the filled ways {sorted(filled_ways)}",
                )
    if not resident <= cache._filled_blocks <= geometry.num_blocks:
        _fail(
            "sanitizer-fill-count",
            f"filled-frame counter {cache._filled_blocks} outside "
            f"[{resident} resident, {geometry.num_blocks} frames]",
        )


class CheckedCache(SubBlockCache):
    """A :class:`SubBlockCache` that self-checks after every access.

    The structural invariants and the statistics conservation laws are
    asserted after each :meth:`access`, :meth:`prefetch`, and
    :meth:`flush`, so a corrupted state is caught on the access that
    corrupted it, not in the final numbers.
    """

    def _check(self) -> None:
        check_cache_invariants(self)
        violations = check_stats_conservation(
            self.stats, geometry=self.geometry, word_size=self.word_size
        )
        if self.miss_path is not None:
            violations.extend(
                check_misspath_conservation(
                    self.miss_path.stats, l1_stats=self.stats
                )
            )
        if violations:
            _fail("sanitizer-conservation", "; ".join(violations))

    def access(self, addr: int, kind: AccessType = AccessType.READ, size: int = 0) -> bool:
        hit = super().access(addr, kind, size)
        self._check()
        return hit

    def prefetch(self, addr: int) -> bool:
        fetched = super().prefetch(addr)
        self._check()
        return fetched

    def flush(self) -> None:
        super().flush()
        self._check()


class CheckedEngine(Engine):
    """Reference-engine execution with per-access sanitizer assertions.

    Never selected by ``auto``: request it with ``--engine checked``
    (sweep commands, ``chaos`` and ``serve``) or
    ``make_engine("checked")``.
    Accepts any iterable of accesses, exactly like the reference
    engine, so fault-injected cells can run under it.
    """

    name = "checked"

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
        if isinstance(trace, TraceView):
            trace = trace.trace
        cache = CheckedCache(
            geometry,
            replacement=replacement,
            fetch=fetch,
            write_policy=write_policy,
            word_size=word_size,
            miss_path=miss_path,
        )
        if deadline is not None:
            trace = deadline_guard(trace, deadline)
        return simulate(cache, trace, warmup=warmup, flush_at_end=flush_at_end)
