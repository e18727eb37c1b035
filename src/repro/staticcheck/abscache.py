"""Must/may abstract-interpretation L1 domain over the CFG.

The L1 half of :func:`repro.staticcheck.abschain.classify_chain_program`
(``repro classify``): it classifies every instruction-fetch and
data-reference *site* of an assembled toy-machine program, for one
concrete L1 geometry, as:

* ``always-hit`` — the reference hits on every execution;
* ``always-miss`` — the reference misses on every execution;
* ``first-miss`` — at most the first execution of the site misses
  (the block is *persistent*: never evicted between two executions);
* ``unclassified`` — the analysis cannot prove any of the above.

A chain report carries this proof per site as ``l1`` (printed as
``l1_class``); with a bare chain these are the single-level proofs.

The analysis is the classic must/may age-bound abstract interpretation
(Ferdinand-style), extended with the sub-block valid-bit abstraction
this repository's caches need:

* the **must** state maps block addresses to *upper* age bounds plus a
  mask of sub-blocks guaranteed valid — intersected at CFG joins; a
  block in must with all needed sub-blocks in the guaranteed-valid mask
  proves ``always-hit``;
* the **may** state maps block addresses to *lower* age bounds plus a
  mask of sub-blocks possibly valid — unioned at joins; a block absent
  from may (or one whose needed sub-block is outside the possibly-valid
  mask) proves ``always-miss``.  A reference through a statically
  unknown address poisons may to ``TOP`` (anything may be cached);
* a **persistence** state tracks, per block, a sticky
  "evicted-since-loaded" marker; a site whose blocks are never evicted
  after loading on any path is ``first-miss`` (reads and fetches only —
  a non-allocating write miss loads nothing, so it can repeat).

Addresses come from a global constant propagation over the eight
registers (entry state: zeros plus the machine's ``sp``), run on a
context-insensitive interprocedural supergraph: ``call`` edges enter
the callee, ``ret`` edges return to every call-site fall-through, and
``sp`` is restored across calls when the program is provably
stack-balanced.  Fetch policies are modeled exactly: demand fetch gains
the needed sub-blocks; load-forward gains the forward range from a
guaranteed-missing sub-block (must) and may gain the full forward range
(may), so sector geometries and both load-forward variants are sound.

Replacement is modeled as LRU (the repository's and the paper's
default).  Soundness is pinned end to end by
:func:`repro.staticcheck.abschain.verify_classification`, which replays
the program's trace through the concrete cache and fails loudly if any
``always-hit`` misses, any ``always-miss`` hits, or any ``first-miss``
misses after its first occurrence.  See ``docs/staticcheck.md``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.block import mask_of_range
from repro.core.config import CacheGeometry
from repro.core.fetch import FetchPolicy, LoadForwardFetch, make_fetch
from repro.errors import StaticCheckError
from repro.staticcheck.cfg import ControlFlowGraph, build_cfg
from repro.staticcheck.checks import check_program
from repro.trace.record import AccessType
from repro.workloads.assembler import AssembledProgram
from repro.workloads.isa import Instruction, Op

__all__ = ["SiteClass"]

#: Safety valve for the fixpoint loop; the lattices are finite, so this
#: should never fire on a real program.  Generous because the may state
#: can track one entry per touched block, each with its own descending
#: age chain.
_MAX_VISITS_PER_BLOCK = 100_000

#: Value cap for the constant propagation: anything this large cannot
#: be a meaningful byte address, and tracking it risks huge-int blowup.
_VALUE_CAP = 1 << 62

_REG_WRITERS = frozenset(
    {
        Op.LI, Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND,
        Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.ADDI, Op.LD, Op.LDB, Op.POP,
    }
)


class SiteClass(enum.Enum):
    """Static classification of one reference site."""

    ALWAYS_HIT = "always-hit"
    ALWAYS_MISS = "always-miss"
    FIRST_MISS = "first-miss"
    UNCLASSIFIED = "unclassified"

    def __str__(self) -> str:  # pragma: no cover - presentation sugar
        return self.value


# -- Abstract state --------------------------------------------------------


class _AbsState:
    """One program point's abstract state.

    Attributes:
        regs: Constant-propagation values, ``None`` = unknown.
        must: ``{block address: (age upper bound, guaranteed-valid mask)}``
            — blocks guaranteed resident (age < ways).
        may: ``{block address: (age lower bound, possibly-valid mask)}``
            — the only blocks that can be resident; ``None`` = TOP
            (anything may be resident).
        pers: ``{block address: sticky age}`` — ``ways`` marks "possibly
            evicted after having been loaded", and is sticky.
        ext: Optional extension state for analyses that piggyback extra
            abstract domains on the same fixpoint (see
            :class:`StateExtension` and ``abschain``).
    """

    __slots__ = ("regs", "must", "may", "pers", "ext")

    def __init__(
        self,
        regs: Tuple[Optional[int], ...],
        must: Dict[int, Tuple[int, int]],
        may: Optional[Dict[int, Tuple[int, int]]],
        pers: Dict[int, int],
        ext: Optional["StateExtension"] = None,
    ) -> None:
        self.regs = list(regs)
        self.must = must
        self.may = may
        self.pers = pers
        self.ext = ext

    def copy(self) -> "_AbsState":
        return _AbsState(
            tuple(self.regs),
            dict(self.must),
            None if self.may is None else dict(self.may),
            dict(self.pers),
            None if self.ext is None else self.ext.copy(),
        )

    def snapshot(self) -> Tuple[Any, ...]:
        return (
            tuple(self.regs),
            tuple(sorted(self.must.items())),
            None if self.may is None else tuple(sorted(self.may.items())),
            tuple(sorted(self.pers.items())),
            None if self.ext is None else self.ext.snapshot(),
        )


class StateExtension:
    """Extra per-program-point abstract state carried by :class:`_AbsState`.

    Subclasses must keep the three operations consistent: ``snapshot``
    is used for fixpoint change detection, so ``join_into`` must only
    move the state up the subclass's lattice.
    """

    def copy(self) -> "StateExtension":
        raise NotImplementedError

    def snapshot(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def join_into(self, source: "StateExtension") -> None:
        """Join ``source`` into ``self`` in place."""
        raise NotImplementedError


def _join_into(target: _AbsState, source: _AbsState) -> bool:
    """Join ``source`` into ``target`` in place; True when it changed."""
    before = target.snapshot()
    for index in range(8):
        if target.regs[index] != source.regs[index]:
            target.regs[index] = None
    # must: intersect keys, weaken bounds (max age, AND valid).
    new_must: Dict[int, Tuple[int, int]] = {}
    for block, (age, valid) in target.must.items():
        other = source.must.get(block)
        if other is not None:
            new_must[block] = (max(age, other[0]), valid & other[1])
    target.must = new_must
    # may: union keys, strengthen bounds (min age, OR valid); TOP absorbs.
    if source.may is None:
        target.may = None
    elif target.may is not None:
        for block, (age, valid) in source.may.items():
            mine = target.may.get(block)
            if mine is None:
                target.may[block] = (age, valid)
            else:
                target.may[block] = (min(age, mine[0]), valid | mine[1])
    # pers: union keys, max sticky age.
    for block, age in source.pers.items():
        mine = target.pers.get(block)
        if mine is None or age > mine:
            target.pers[block] = age
    if target.ext is not None and source.ext is not None:
        target.ext.join_into(source.ext)
    return target.snapshot() != before


# -- Cache transfer functions ----------------------------------------------


class _Analyzer:
    """Shared geometry/policy context for the transfer functions."""

    def __init__(
        self,
        program: AssembledProgram,
        geometry: CacheGeometry,
        fetch: FetchPolicy,
        stack_words: int,
    ) -> None:
        self.program = program
        self.geometry = geometry
        self.fetch = fetch
        self.word = program.word_size
        self.ways = geometry.ways
        self.num_sets = geometry.num_sets
        self.nsub = geometry.sub_blocks_per_block
        self.full_mask = (1 << self.nsub) - 1
        # One word-sized access spans at most two consecutive blocks
        # (word <= sub-block <= block); consecutive blocks share a set
        # only in a single-set cache.
        self.unknown_incr = 2 if self.num_sets == 1 else 1
        self.is_load_forward = isinstance(fetch, LoadForwardFetch)
        self.is_demand = fetch.name == "demand"
        guard = 64 * self.word
        self.stack_top = (
            program.data_limit + guard + stack_words * self.word
        )
        self.cfg: ControlFlowGraph = build_cfg(program)
        self.balanced = self._stack_balanced()

    def _stack_balanced(self) -> bool:
        """True when ``sp`` can be restored across calls.

        Requires a program with no stack-imbalance findings and no
        instruction writing ``r7`` directly (stack moves only through
        push/pop/call/ret).
        """
        for inst in self.program.instructions:
            if inst.op in _REG_WRITERS and inst.a == 7:
                return False
        return not any(
            diagnostic.rule == "stack-imbalance"
            for diagnostic in check_program(self.program)
        )

    def make_entry_state(self) -> _AbsState:
        """Cold entry state: machine register file, empty cache."""
        return _AbsState(
            tuple([0] * 7 + [self.stack_top]), {}, {}, {}
        )

    # -- Piece decomposition ------------------------------------------

    def pieces(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        """``(block address, needed mask, first sub-block)`` per block,
        in the order :class:`SubBlockCache` processes them."""
        geometry = self.geometry
        block_size = geometry.block_size
        sub = geometry.sub_block_size
        out: List[Tuple[int, int, int]] = []
        first_block = addr // block_size
        last_block = (addr + size - 1) // block_size
        for block_addr in range(first_block, last_block + 1):
            base = block_addr * block_size
            lo = max(addr, base) - base
            hi = min(addr + size, base + block_size) - 1 - base
            first_sub = lo // sub
            out.append(
                (block_addr, mask_of_range(first_sub, hi // sub), first_sub)
            )
        return out

    # -- Aging rules ---------------------------------------------------

    def _age_must(self, state: _AbsState, block: int, boundary: int) -> None:
        """Age the must state for an access to ``block``.

        Blocks of the same set with an upper bound below ``boundary``
        (the accessed block's own bound, or ``ways`` when it is not
        guaranteed resident) move one step toward eviction; bounds at or
        above the boundary cannot be overtaken and keep their age.
        """
        set_index = block % self.num_sets
        ways = self.ways
        for other in list(state.must):
            if other == block or other % self.num_sets != set_index:
                continue
            age, valid = state.must[other]
            if age < boundary:
                if age + 1 >= ways:
                    del state.must[other]
                else:
                    state.must[other] = (age + 1, valid)

    def _age_may(self, state: _AbsState, block: int, boundary: int) -> None:
        """Age the may state for an access to ``block``.

        Blocks whose lower bound does not exceed the accessed block's
        old bound may have been younger, so their minimum age rises;
        reaching ``ways`` proves eviction and drops them from may.
        """
        if state.may is None:
            return
        set_index = block % self.num_sets
        ways = self.ways
        for other in list(state.may):
            if other == block or other % self.num_sets != set_index:
                continue
            age, valid = state.may[other]
            if age <= boundary:
                if age + 1 >= ways:
                    del state.may[other]
                else:
                    state.may[other] = (age + 1, valid)

    def _pers_touch(
        self, state: _AbsState, block: int, loads: bool
    ) -> None:
        """Persistence update for an access to ``block``.

        Same-set blocks age (sticky at ``ways``); the accessed block
        returns to age 0 unless its eviction marker is already set.
        ``loads`` is False for non-allocating writes, which never bring
        an absent block in.
        """
        set_index = block % self.num_sets
        ways = self.ways
        for other, age in state.pers.items():
            if other != block and other % self.num_sets == set_index:
                state.pers[other] = min(ways, age + 1)
        current = state.pers.get(block)
        if current == ways:
            return  # sticky: it was evicted after a load on some path
        if current is not None or loads:
            state.pers[block] = 0

    # -- Reference transfer --------------------------------------------

    def apply_known(
        self, state: _AbsState, addr: int, size: int, kind: AccessType
    ) -> None:
        for block, needed, first_sub in self.pieces(addr, size):
            self._apply_piece(state, block, needed, first_sub, kind)

    def _apply_piece(
        self,
        state: _AbsState,
        block: int,
        needed: int,
        first_sub: int,
        kind: AccessType,
    ) -> None:
        must = state.must
        may = state.may
        if kind is AccessType.WRITE:
            # Write-through-no-allocate: promotes when resident, never
            # allocates or validates.
            if may is not None and block not in may:
                return  # guaranteed absent: the cache is untouched
            if block in must:
                age, valid = must[block]
                self._age_must(state, block, age)
                must[block] = (0, valid)
                if may is not None:
                    lb, possibly = may[block]
                    self._age_may(state, block, lb)
                    may[block] = (0, possibly)
                self._pers_touch(state, block, loads=False)
            else:
                # Possibly resident: the promotion may or may not
                # happen.  must ages conservatively; in may, every
                # other bound survives the join with the no-op outcome
                # unchanged, and the block itself may now be youngest.
                self._age_must(state, block, self.ways)
                if may is not None and block in may:
                    may[block] = (0, may[block][1])
                self._pers_touch(state, block, loads=False)
            return

        # Read / instruction fetch: the block ends resident and
        # most-recently used, whatever the prior state.
        must_boundary = must[block][0] if block in must else self.ways
        may_boundary = (
            may[block][0] if may is not None and block in may else self.ways
        )
        self._age_must(state, block, must_boundary)
        self._age_may(state, block, may_boundary)

        old_must_valid = must[block][1] if block in must else 0
        if may is None:
            old_may_valid = self.full_mask
        elif block in may:
            old_may_valid = may[block][1]
        else:
            old_may_valid = 0
        proven_absent = may is not None and block not in may

        must_gain, may_gain = self._gain_masks(
            needed, first_sub, old_may_valid, proven_absent
        )
        must[block] = (0, old_must_valid | must_gain)
        if may is not None:
            may[block] = (0, old_may_valid | may_gain)
        self._pers_touch(state, block, loads=True)

    def _gain_masks(
        self,
        needed: int,
        first_sub: int,
        old_may_valid: int,
        proven_absent: bool,
    ) -> Tuple[int, int]:
        """``(guaranteed, possible)`` valid-mask gains for one read piece."""
        if proven_absent:
            # The concrete valid mask is exactly empty: the fetch plan
            # is known precisely, for any policy.
            plan = self.fetch.plan(needed, first_sub, 0, self.nsub)
            return plan.fetch_mask, plan.fetch_mask
        if self.is_demand:
            return needed, needed
        if self.is_load_forward:
            # Guaranteed gain: if some needed sub-block is invalid in
            # every state, a fetch happens and starts at or before it.
            guaranteed_missing = needed & ~old_may_valid
            if guaranteed_missing:
                start = (
                    guaranteed_missing & -guaranteed_missing
                ).bit_length() - 1
                must_gain = needed | mask_of_range(start, self.nsub - 1)
            else:
                must_gain = needed
            # Possible gain: a fetch can start as early as the first
            # needed sub-block and runs to the end of the block.
            return must_gain, mask_of_range(first_sub, self.nsub - 1)
        # Unknown policy: it must at least validate the needed
        # sub-blocks and may validate anything.
        return needed, self.full_mask

    def apply_unknown(self, state: _AbsState, kind: AccessType) -> None:
        """Transfer for a reference through a statically unknown address."""
        incr = self.unknown_incr
        ways = self.ways
        for block in list(state.must):
            age, valid = state.must[block]
            if age + incr >= ways:
                del state.must[block]
            else:
                state.must[block] = (age + incr, valid)
        for block, age in state.pers.items():
            state.pers[block] = min(ways, age + incr)
        if kind is AccessType.WRITE:
            # No allocation, but any resident block may now be youngest.
            if state.may is not None:
                for block, (_age, valid) in state.may.items():
                    state.may[block] = (0, valid)
        else:
            state.may = None  # any block may have been brought in

    # -- Classification ------------------------------------------------

    def classify_ref(
        self, state: _AbsState, addr: int, size: int, kind: AccessType
    ) -> Tuple[SiteClass, str]:
        """Classify one reference against the state *before* it runs.

        ``first-miss`` is checked here only as a candidate; the caller
        applies the read/ifetch restriction.
        """
        pieces = self.pieces(addr, size)
        all_hit = True
        for block, needed, _ in pieces:
            entry = state.must.get(block)
            if entry is None or needed & ~entry[1]:
                all_hit = False
                break
        if all_hit:
            return (
                SiteClass.ALWAYS_HIT,
                "block resident with needed sub-blocks valid on every path",
            )
        if state.may is not None:
            for block, needed, _ in pieces:
                entry = state.may.get(block)
                if entry is None:
                    return (
                        SiteClass.ALWAYS_MISS,
                        f"block {block:#x} is absent on every path",
                    )
                if needed & ~entry[1]:
                    return (
                        SiteClass.ALWAYS_MISS,
                        "a needed sub-block is invalid on every path",
                    )
        if kind is not AccessType.WRITE and all(
            state.pers.get(block, 0) < self.ways for block, _, _ in pieces
        ):
            return (
                SiteClass.FIRST_MISS,
                "never evicted after loading on any path",
            )
        return (SiteClass.UNCLASSIFIED, "must/may bounds too weak")

    def describe_site(
        self,
        state: _AbsState,
        addr: Optional[int],
        kind: AccessType,
        kind_label: str,
    ) -> Tuple[Any, ...]:
        """Record tuple for one site at its pre-reference state.

        The first four elements are always ``(classification, reason,
        target, kind label)``; subclasses may append further elements.
        """
        if addr is None:
            return (
                SiteClass.UNCLASSIFIED,
                "address not statically known",
                None,
                kind_label,
            )
        cls, reason = self.classify_ref(state, addr, self.word, kind)
        return (cls, reason, addr, kind_label)


# -- Instruction walking ---------------------------------------------------


def _arith(op: int, left: Optional[int], right: Optional[int]) -> Optional[int]:
    """Constant fold one ALU operation; None = unknown."""
    if left is None or right is None:
        return None
    if op == Op.ADD:
        value = left + right
    elif op == Op.SUB:
        value = left - right
    elif op == Op.MUL:
        value = left * right
    elif op == Op.DIV:
        if right == 0:
            return None
        value = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            value = -value
    elif op == Op.MOD:
        if right == 0:
            return None
        value = left % right
    elif op == Op.AND:
        value = left & right
    elif op == Op.OR:
        value = left | right
    elif op == Op.XOR:
        value = left ^ right
    elif op == Op.SHL:
        if not 0 <= right <= 64:
            return None
        value = left << right
    elif op == Op.SHR:
        if not 0 <= right <= 64:
            return None
        value = left >> right
    else:  # pragma: no cover - callers dispatch only ALU ops
        return None
    return value if abs(value) <= _VALUE_CAP else None


_ALU_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
     Op.SHL, Op.SHR}
)


def _walk_instruction(
    analyzer: _Analyzer,
    state: _AbsState,
    index: int,
    inst: Instruction,
    record: Optional[Dict[str, Tuple[Any, ...]]],
) -> None:
    """Apply one instruction: its fetches, its data reference, its
    register effects.  When ``record`` is given, classify each
    reference against the pre-state (the classification pass)."""
    word = analyzer.word
    regs = state.regs

    def reference(
        site: str, kind: AccessType, addr: Optional[int], kind_label: str
    ) -> None:
        if record is not None and site not in record:
            record[site] = analyzer.describe_site(
                state, addr, kind, kind_label
            )
        if addr is None or addr < 0:
            analyzer.apply_unknown(state, kind)
        else:
            analyzer.apply_known(state, addr, word, kind)

    reference(f"{index}:ifetch", AccessType.IFETCH, inst.addr, "ifetch")
    if inst.words == 2:
        reference(f"{index}:imm", AccessType.IFETCH, inst.addr + word, "ifetch")

    op = inst.op
    data_site = f"{index}:data"
    if op in (Op.LD, Op.LDB):
        base = regs[inst.b]
        addr = None if base is None else base + inst.imm
        reference(data_site, AccessType.READ, addr, "read")
        regs[inst.a] = None
    elif op in (Op.ST, Op.STB):
        base = regs[inst.b]
        addr = None if base is None else base + inst.imm
        reference(data_site, AccessType.WRITE, addr, "write")
    elif op in (Op.PUSH, Op.CALL):
        sp = regs[7]
        addr = None if sp is None else sp - word
        reference(data_site, AccessType.WRITE, addr, "write")
        regs[7] = addr
    elif op in (Op.POP, Op.RET):
        sp = regs[7]
        reference(data_site, AccessType.READ, sp, "read")
        regs[7] = None if sp is None else sp + word
        if op == Op.POP:
            regs[inst.a] = None  # overwrites r7 when popping into sp
    elif op == Op.LI:
        regs[inst.a] = inst.imm
    elif op == Op.ADDI:
        value = regs[inst.a]
        regs[inst.a] = None if value is None else value + inst.imm
        if regs[inst.a] is not None and abs(regs[inst.a]) > _VALUE_CAP:
            regs[inst.a] = None
    elif op == Op.MOV:
        regs[inst.a] = regs[inst.b]
    elif op in _ALU_OPS:
        regs[inst.a] = _arith(op, regs[inst.a], regs[inst.b])
    # Branches, jmp, nop, halt: no register or reference effects beyond
    # the instruction fetch handled above.


def _walk_block(
    analyzer: _Analyzer,
    state: _AbsState,
    block_index: int,
    record: Optional[Dict[str, Tuple[Any, ...]]],
) -> _AbsState:
    cfg = analyzer.cfg
    block = cfg.blocks[block_index]
    for index in range(block.start, block.end):
        _walk_instruction(
            analyzer, state, index, cfg.program.instructions[index], record
        )
    return state


# -- Interprocedural supergraph fixpoint -----------------------------------


def _call_sites(cfg: ControlFlowGraph) -> List[Tuple[int, Optional[int]]]:
    """``(call block, fall-through block or None)`` per ``call``."""
    sites: List[Tuple[int, Optional[int]]] = []
    program = cfg.program
    for block in cfg.blocks:
        last = program.instructions[block.end - 1]
        if last.op == Op.CALL:
            fall = (
                cfg.block_of[block.end]
                if block.end < len(program.instructions)
                else None
            )
            sites.append((block.index, fall))
    return sites


def _analyze(analyzer: _Analyzer) -> Tuple[
    Dict[int, _AbsState],
    Dict[str, Tuple[Any, ...]],
]:
    """Run the combined fixpoint; returns block in-states and the
    per-site classification recorded on a final stable pass."""
    cfg = analyzer.cfg
    program = cfg.program
    if not cfg.blocks:
        return {}, {}
    word = analyzer.word

    call_sites = _call_sites(cfg)
    ret_blocks = [
        block.index
        for block in cfg.blocks
        if program.instructions[block.end - 1].op == Op.RET
    ]
    call_out_r7: Dict[int, Optional[int]] = {}

    entry = analyzer.make_entry_state()
    in_states: Dict[int, _AbsState] = {0: entry}
    worklist = deque([0])
    queued = {0}
    visits: Dict[int, int] = {}

    def successors(
        block_index: int, out: _AbsState
    ) -> List[Tuple[int, bool, Optional[int]]]:
        """``(successor, patch sp, patched value)`` edges."""
        block = cfg.blocks[block_index]
        last = program.instructions[block.end - 1]
        if last.op == Op.CALL:
            target = program.addr_to_index.get(last.imm)
            if target is None:
                return []
            return [(cfg.block_of[target], False, None)]
        if last.op == Op.RET:
            edges: List[Tuple[int, bool, Optional[int]]] = []
            for call_block, fall in call_sites:
                if fall is None or call_block not in call_out_r7:
                    continue  # gate until the call site has been walked
                caller_sp = call_out_r7[call_block]
                if analyzer.balanced and caller_sp is not None:
                    edges.append((fall, True, caller_sp + word))
                else:
                    edges.append((fall, True, None))
            return edges
        if last.op == Op.HALT:
            return []
        return [(successor, False, None) for successor in block.successors]

    while worklist:
        block_index = worklist.popleft()
        queued.discard(block_index)
        visits[block_index] = visits.get(block_index, 0) + 1
        if visits[block_index] > _MAX_VISITS_PER_BLOCK:
            raise StaticCheckError(
                "abscache fixpoint did not converge "
                f"(block {block_index} visited {visits[block_index]} times)"
            )
        out = _walk_block(
            analyzer, in_states[block_index].copy(), block_index, None
        )
        last = program.instructions[cfg.blocks[block_index].end - 1]
        if last.op == Op.CALL and (
            block_index not in call_out_r7
            or call_out_r7[block_index] != out.regs[7]
        ):
            call_out_r7[block_index] = out.regs[7]
            # Return edges depend on this call site's out-state: rewalk
            # every ret block so the new edge (or patched sp) is taken.
            for ret_block in ret_blocks:
                if ret_block in in_states and ret_block not in queued:
                    worklist.append(ret_block)
                    queued.add(ret_block)
        for successor, patch, value in successors(block_index, out):
            candidate = out.copy()
            if patch:
                candidate.regs[7] = value
            existing = in_states.get(successor)
            if existing is None:
                in_states[successor] = candidate
                changed = True
            else:
                changed = _join_into(existing, candidate)
            if changed and successor not in queued:
                worklist.append(successor)
                queued.add(successor)

    # Final pass: classify every reference against the stable states.
    record: Dict[str, Tuple[Any, ...]] = {}
    for block_index in sorted(in_states):
        _walk_block(
            analyzer, in_states[block_index].copy(), block_index, record
        )
    return in_states, record


# -- Helpers shared with abschain -----------------------------------------


def _site_sort_key(site: str) -> Tuple[int, int]:
    index, role = site.split(":", 1)
    return (int(index), {"ifetch": 0, "imm": 1, "data": 2}[role])


def _resolve_fetch(fetch: Union[str, FetchPolicy]) -> FetchPolicy:
    return make_fetch(fetch) if isinstance(fetch, str) else fetch
