"""Static locality prediction: footprints and loop working sets.

The paper's argument rests on traces carrying the temporal and spatial
locality of real programs (Section 3.1); this module predicts that
locality *from program structure alone* so it can be cross-checked
against what simulation actually measures:

* **code footprint** — bytes of the code segment; an instruction cache
  at least this large sees only compulsory misses from the program's
  own code.
* **data footprint** — bytes of static data (``[data_base,
  data_limit)``); together with code this bounds the total working set
  of programs without unbounded heap (the toy ISA has none).
* **innermost-loop working sets** — code bytes of each innermost
  natural loop; while execution sits in such a loop, this is the hot
  instruction working set, which is why miss-ratio-vs-size curves knee
  near it (cf. the interval-selection literature: a simulation window
  is representative when it covers the loop working sets).

:func:`compare_with_sweep` checks a miss-ratio curve (one
:class:`~repro.analysis.sweep.SweepPoint` per net size) against the
prediction: the observed knee — the smallest net size whose miss ratio
is within tolerance of the curve's floor — should sit within a small
factor of the structural estimate (the hot loop's code plus the static
data, or the whole footprint for a loop-free program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.cfg import ControlFlowGraph, Loop, build_cfg
from repro.workloads.assembler import AssembledProgram
from repro.workloads.isa import Op

__all__ = [
    "LoopSummary",
    "FootprintReport",
    "LocalityComparison",
    "footprint",
    "knee_net",
    "compare_with_sweep",
]

_MEM_OPS = frozenset({Op.LD, Op.ST, Op.LDB, Op.STB, Op.PUSH, Op.POP, Op.CALL, Op.RET})


@dataclass(frozen=True)
class LoopSummary:
    """Static profile of one natural loop.

    Attributes:
        header_addr: Byte address of the loop header's first instruction.
        code_bytes: Encoded size of the loop body (all blocks).
        mem_ops: Memory-touching instructions in the body (loads,
            stores, stack traffic) — a proxy for per-iteration data
            traffic.
        blocks: Number of basic blocks in the body.
        innermost: True when the body contains no smaller loop.
    """

    header_addr: int
    code_bytes: int
    mem_ops: int
    blocks: int
    innermost: bool


@dataclass(frozen=True)
class FootprintReport:
    """Predicted locality profile of one program.

    Attributes:
        name: Program name.
        word_size: Word size the program was assembled for.
        code_bytes / data_bytes: Segment footprints.
        loops: Every natural loop, innermost first.
        hot_loop_bytes: Code bytes of the largest innermost loop — the
            dominant steady-state instruction working set (0 when the
            program is loop-free).
        total_bytes: code + data; the full static working set.
    """

    name: str
    word_size: int
    code_bytes: int
    data_bytes: int
    loops: Tuple[LoopSummary, ...] = ()
    hot_loop_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.code_bytes + self.data_bytes

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "word_size": self.word_size,
            "code_bytes": self.code_bytes,
            "data_bytes": self.data_bytes,
            "total_bytes": self.total_bytes,
            "hot_loop_bytes": self.hot_loop_bytes,
            "loops": [
                {
                    "header_addr": loop.header_addr,
                    "code_bytes": loop.code_bytes,
                    "mem_ops": loop.mem_ops,
                    "blocks": loop.blocks,
                    "innermost": loop.innermost,
                }
                for loop in self.loops
            ],
        }


@dataclass(frozen=True)
class LocalityComparison:
    """Outcome of checking a prediction against a simulated curve.

    Attributes:
        predicted_bytes: The static working-set estimate compared.
        observed_knee_net: Net size where the measured curve flattens
            (None when the curve never flattens below tolerance —
            every simulated cache was smaller than the working set).
        consistent: True when prediction and measurement agree within
            ``slack`` (or when both say "bigger than every cache").
        monotone: True when miss ratio never *rises* with cache size
            beyond ``tolerance`` — a sanity check on the curve itself.
        detail: Per-net miss ratios, for reports.
    """

    predicted_bytes: int
    observed_knee_net: Optional[int]
    consistent: bool
    monotone: bool
    detail: Dict[int, float] = field(default_factory=dict, compare=False)


def _loop_summaries(cfg: ControlFlowGraph, loops: Sequence[Loop]) -> List[LoopSummary]:
    program = cfg.program
    bodies = [set(loop.body) for loop in loops]
    summaries: List[LoopSummary] = []
    for index, loop in enumerate(loops):
        body = bodies[index]
        innermost = not any(
            other_index != index and other < body
            for other_index, other in enumerate(bodies)
        )
        code = 0
        mem = 0
        for block_index in body:
            block = cfg.blocks[block_index]
            for inst in block.instructions(program):
                code += inst.words * program.word_size
                if inst.op in _MEM_OPS:
                    mem += 1
        header_inst = program.instructions[cfg.blocks[loop.header].start]
        summaries.append(
            LoopSummary(
                header_addr=header_inst.addr,
                code_bytes=code,
                mem_ops=mem,
                blocks=len(body),
                innermost=innermost,
            )
        )
    summaries.sort(key=lambda summary: (not summary.innermost, summary.code_bytes))
    return summaries


def footprint(program: AssembledProgram, name: str = "") -> FootprintReport:
    """Predict the locality profile of an assembled program."""
    cfg = build_cfg(program)
    summaries = _loop_summaries(cfg, cfg.natural_loops())
    inner = [summary.code_bytes for summary in summaries if summary.innermost]
    return FootprintReport(
        name=name,
        word_size=program.word_size,
        code_bytes=program.code_bytes,
        data_bytes=program.data_limit - program.data_base,
        loops=tuple(summaries),
        hot_loop_bytes=max(inner) if inner else 0,
    )


def knee_net(
    points: Sequence, tolerance: float = 1.10
) -> Optional[int]:
    """Smallest net size whose miss ratio is within ``tolerance`` of the floor.

    Args:
        points: :class:`~repro.analysis.sweep.SweepPoint`-like objects
            (anything with ``geometry.net_size`` and ``miss_ratio``),
            any order; one point per net size.
        tolerance: Relative band above the curve minimum that still
            counts as "flat" (1.10 = within 10%).
    """
    curve = sorted(points, key=lambda point: point.geometry.net_size)
    if not curve:
        return None
    floor = min(point.miss_ratio for point in curve)
    for point in curve:
        if point.miss_ratio <= floor * tolerance:
            return point.geometry.net_size
    return None  # pragma: no cover - the minimum itself always qualifies


def compare_with_sweep(
    report: FootprintReport,
    points: Sequence,
    tolerance: float = 1.10,
    slack: float = 8.0,
) -> LocalityComparison:
    """Check a predicted footprint against a simulated miss-ratio curve.

    The comparison is deliberately loose — a ``slack``-factor band —
    because the static estimate ignores the stack and replacement
    effects; what it must catch is *gross* disagreement (a "tight loop"
    program whose curve never flattens, a "huge footprint" program that
    is flat from the smallest cache), which is exactly the signal that
    a trace is not exercising the locality its program promises.
    """
    # Steady state sits in the hot loop: its code plus (a subset of) the
    # data segment it streams over.  Loop-free programs touch everything
    # once, so the whole static footprint is the estimate.
    if report.hot_loop_bytes:
        predicted = max(report.hot_loop_bytes + report.data_bytes, 1)
    else:
        predicted = max(report.total_bytes, 1)
    curve = sorted(points, key=lambda point: point.geometry.net_size)
    detail = {
        point.geometry.net_size: point.miss_ratio for point in curve
    }
    knee = knee_net(curve, tolerance=tolerance)
    monotone = all(
        later.miss_ratio <= earlier.miss_ratio * tolerance
        for earlier, later in zip(curve, curve[1:])
    )
    if knee is None or not curve:
        # The curve never flattened: consistent only if the prediction
        # also exceeds the largest simulated cache.
        largest = curve[-1].geometry.net_size if curve else 0
        consistent = predicted > largest
    elif not report.hot_loop_bytes and knee == curve[0].geometry.net_size:
        # A loop-free program has no steady state: every reference is
        # compulsory, so the curve is flat from the smallest cache and
        # the knee position carries no information about the footprint.
        # An empty working-set list therefore never contradicts a flat
        # curve, whatever the total footprint says.
        consistent = True
    else:
        consistent = predicted / slack <= knee and knee <= predicted * slack
    return LocalityComparison(
        predicted_bytes=predicted,
        observed_knee_net=knee,
        consistent=consistent,
        monotone=monotone,
        detail=detail,
    )
