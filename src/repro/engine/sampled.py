"""Sampled simulation: representative intervals with error bounds.

The execution half of the sampling subsystem (planning lives in
:mod:`repro.staticcheck.phases`).  Given a :class:`PhasePlan`,
:func:`run_sampled` simulates only each cluster's representative
interval — primed by a bounded warmup window for cold-start
correction — and reconstructs *all 17* :class:`CacheStats` counters as
weighted estimates with a per-counter confidence interval.

**Estimator.**  For cluster ``c`` with representative interval ``r``
(length ``L_r``) and total member accesses ``N_c``, every counter ``x``
measured over ``r`` contributes ``x * N_c / L_r`` to the estimate
(exactly ``x`` when ``N_c == L_r``, so a degenerate plan — one interval
spanning the whole trace — reproduces the reference engine
bit-identically).  Estimates target the *cold* full-trace run
(``warmup=0``): sampling and warm-start measurement do not compose,
because the sampled engine never sees which accesses a full-trace
warmup would have discarded.

**Cold-start correction.**  Each representative is primed by simulating
up to one extra interval of history (``warmup_intervals``) before
measurement starts; the engine's warmup mechanism discards the priming
window's statistics.  The residual cold-start risk — *sub-blocks*
touched in the measured window but absent from the priming window,
each of which may hit or miss differently under full history — is
counted from the address stream and folded into the bound.  When the priming window
reaches back to the trace start the interval's history is *complete*
and its cold term is zero.

**Confidence interval.**  The half-width of counter ``x`` sums, over
clusters, (a) the disagreement between the representative and the
cluster's *witness* (its farthest member): ``|x_r/L_r - x_w/L_w| *
N_c``, and (b) the cold-suspect count scaled by the counter's worst
case per flipped access (``block_size`` bytes for fetch bytes, one for
misses, ...).  These are structural, not statistical, bounds: they are
calibrated by how homogeneous the clusters actually are, and
:func:`verify_sampling` checks them against full-trace ground truth
across the bundled programs.  docs/sampling.md discusses when they are
*invalid* (singleton clusters, ``random`` replacement).

:class:`SampledStats` serializes every counter estimate under the same
keys as :meth:`CacheStats.to_dict` plus a ``"sampled"`` section with an
``"exact": false`` marker — so a sampled payload can never be confused
with an exact one (``CacheStats.from_dict`` rejects the extra key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import CacheGeometry
from repro.core.fetch import make_fetch
from repro.core.replacement import make_replacement
from repro.core.stats import CacheStats
from repro.engine.base import make_engine
from repro.engine.batch import CellSpec
from repro.engine.route import plan
from repro.errors import ConfigurationError
from repro.staticcheck.phases import PhasePlan, SamplingConfig, analyze_trace

__all__ = [
    "SCALAR_COUNTERS",
    "DICT_COUNTERS",
    "SampledStats",
    "run_sampled",
    "sample_trace",
    "verify_sampling",
]

#: The 14 scalar CacheStats counters, in to_dict() key form.
SCALAR_COUNTERS: Tuple[str, ...] = (
    "accesses",
    "misses",
    "block_misses",
    "sub_block_misses",
    "bytes_accessed",
    "bytes_fetched",
    "redundant_bytes_fetched",
    "evictions",
    "evicted_sub_blocks_referenced",
    "evicted_sub_blocks_total",
    "writebacks",
    "bytes_written_back",
    "bytes_written_through",
    "prefetches",
)

#: The 3 dict-valued CacheStats counters (17 total with the scalars).
DICT_COUNTERS: Tuple[str, ...] = (
    "accesses_by_kind",
    "misses_by_kind",
    "transaction_words",
)


@dataclass(frozen=True)
class SampledStats:
    """Weighted full-trace estimates of all 17 counters, with bounds.

    Attributes:
        estimates: Counter name -> estimate; the three dict counters
            map string keys (kind names / word counts as decimal
            strings, matching :meth:`CacheStats.to_dict`) to estimates.
        half_widths: Counter name -> confidence half-width (for dict
            counters, the bound applies to the counter's total).
        config: The sampling parameters that produced this result.
        plan: Compact plan metadata (interval count, k, fractions).
        simulated_accesses: Accesses actually simulated, warmup
            included — the numerator of the honest speedup claim.
        total_accesses: Length of the trace being estimated.
        engine: Engine the interval simulations ran on.
    """

    estimates: Mapping[str, Any]
    half_widths: Mapping[str, float]
    config: SamplingConfig
    plan: Mapping[str, Any]
    simulated_accesses: int
    total_accesses: int
    engine: str = "vectorized"

    @property
    def accesses(self) -> float:
        return float(self.estimates["accesses"])

    @property
    def misses(self) -> float:
        return float(self.estimates["misses"])

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def ci(self, counter: str) -> Tuple[float, float]:
        """``[lo, hi]`` bound for one counter (totals never negative)."""
        value = self.estimates[counter]
        total = (
            sum(float(v) for v in value.values())
            if isinstance(value, Mapping)
            else float(value)
        )
        half = float(self.half_widths[counter])
        return max(0.0, total - half), total + half

    @property
    def miss_ratio_ci(self) -> Tuple[float, float]:
        if not self.accesses:
            return 0.0, 0.0
        lo, hi = self.ci("misses")
        return lo / self.accesses, min(1.0, hi / self.accesses)

    def traffic_ratio(self, include_writes: bool = False) -> float:
        accessed = float(self.estimates["bytes_accessed"])
        if not accessed:
            return 0.0
        traffic = float(self.estimates["bytes_fetched"])
        if include_writes:
            traffic += float(self.estimates["bytes_written_back"])
            traffic += float(self.estimates["bytes_written_through"])
        return traffic / accessed

    def scaled_traffic_ratio(self, model: Any, word_size: int) -> float:
        """Mirror of :meth:`CacheStats.scaled_traffic_ratio`."""
        words_accessed = float(self.estimates["bytes_accessed"]) / word_size
        if not words_accessed:
            return 0.0
        scaled = sum(
            model.cost(int(words)) * count
            for words, count in self.estimates["transaction_words"].items()
        )
        return scaled / (words_accessed * model.cost(1))

    @property
    def speedup_factor(self) -> float:
        if not self.simulated_accesses:
            return 0.0
        return self.total_accesses / self.simulated_accesses

    def to_dict(self) -> Dict[str, Any]:
        """All 17 counter estimates + the ``sampled`` marker section.

        The counter keys match :meth:`CacheStats.to_dict`, but the
        extra ``"sampled"`` key (with ``"exact": False``) makes the
        payload *reject* under strict :meth:`CacheStats.from_dict` —
        sampled results can never masquerade as exact ones.
        """
        payload: Dict[str, Any] = {}
        for name in SCALAR_COUNTERS:
            payload[name] = self.estimates[name]
        for name in DICT_COUNTERS:
            payload[name] = dict(self.estimates[name])
        payload["sampled"] = {
            "exact": False,
            "sample": self.config.to_dict(),
            "plan": dict(self.plan),
            "engine": self.engine,
            "simulated_accesses": self.simulated_accesses,
            "total_accesses": self.total_accesses,
            "speedup_factor": self.speedup_factor,
            "miss_ratio": self.miss_ratio,
            "miss_ratio_ci": list(self.miss_ratio_ci),
            "ci": {
                name: list(self.ci(name))
                for name in SCALAR_COUNTERS + DICT_COUNTERS
            },
        }
        return payload

    def summary(self) -> Dict[str, Any]:
        """The compact form checkpoint cell records carry."""
        lo, hi = self.miss_ratio_ci
        return {
            "exact": False,
            "sample": self.config.key(),
            "intervals": int(self.plan.get("intervals", 0)),
            "k": int(self.plan.get("k", 0)),
            "simulated_accesses": self.simulated_accesses,
            "total_accesses": self.total_accesses,
            "miss_ratio": self.miss_ratio,
            "miss_ratio_ci": [lo, hi],
        }


def _run_interval(
    geometry: CacheGeometry,
    window: Any,
    warmup: int,
    replacement: str,
    fetch: str,
    word_size: int,
    engine_name: str,
    deadline: Optional[float],
) -> Tuple[CacheStats, str]:
    """Simulate one priming+measurement window, returning (stats, engine).

    Fresh policy objects per run (``random`` replacement must not share
    RNG state across intervals); the route planner sends a window the
    fast engine cannot take to the reference loop — the equivalence
    contract makes the substitution invisible.
    """
    path = plan(CellSpec(None, engine=engine_name), window).path
    stats = make_engine(path).run(
        geometry,
        window,
        replacement=make_replacement(replacement),
        fetch=make_fetch(fetch) if fetch != "demand" else None,
        word_size=word_size,
        warmup=warmup,
        deadline=deadline,
    )
    return stats, path


def _cold_suspects(
    trace: Any,
    start: int,
    end: int,
    window_start: int,
    sub_block_size: int,
    word_size: int,
) -> int:
    """Sub-blocks first seen in the measured window, not in its priming.

    Each such sub-block may hit or miss differently under full history
    than under the truncated priming window, so it is one unit of
    cold-start risk.  The granularity must be the *sub-block*, not the
    block: a block resident from the priming window still sub-block
    misses on granules last validated before the window (demand fetch
    loads only what is needed), and that cold term dominates on
    workloads with long reuse distances.  A window primed from the very
    start of the trace has complete history — zero risk by
    construction.
    """
    if window_start <= 0:
        return 0
    addrs = np.asarray(trace.addrs[window_start:end], dtype=np.int64)
    sizes = np.asarray(trace.sizes[window_start:end], dtype=np.int64)
    eff = np.where(sizes > 0, sizes, word_size)
    first = addrs // sub_block_size
    last = (addrs + eff - 1) // sub_block_size
    split = start - window_start
    warm = np.unique(np.concatenate((first[:split], last[:split])))
    measured = np.unique(np.concatenate((first[split:], last[split:])))
    return int(np.setdiff1d(measured, warm, assume_unique=True).size)


def _cold_weights(
    geometry: CacheGeometry, word_size: int
) -> Dict[str, float]:
    """Worst-case effect of one flipped (cold-suspect) access per counter.

    Counters that depend only on the access stream itself (accesses,
    bytes accessed, write-through bytes, per-kind access counts) cannot
    move, so their weight is zero.
    """
    sub_per_block = geometry.block_size // geometry.sub_block_size
    block_bytes = float(geometry.block_size)
    return {
        "accesses": 0.0,
        "bytes_accessed": 0.0,
        "bytes_written_through": 0.0,
        "accesses_by_kind": 0.0,
        "misses": 1.0,
        "misses_by_kind": 1.0,
        "block_misses": 1.0,
        "sub_block_misses": float(sub_per_block),
        "bytes_fetched": block_bytes,
        "redundant_bytes_fetched": block_bytes,
        "transaction_words": block_bytes / word_size,
        "evictions": 1.0,
        "evicted_sub_blocks_referenced": float(sub_per_block),
        "evicted_sub_blocks_total": float(sub_per_block),
        "writebacks": 1.0,
        "bytes_written_back": block_bytes,
        "prefetches": float(sub_per_block),
    }


def _scale(value: float, cluster_total: int, interval_length: int) -> Any:
    """``value * cluster_total / interval_length``, exact when equal.

    The equality short-circuit keeps the degenerate whole-trace plan
    bit-identical to the reference engine (no float rounding).
    """
    if cluster_total == interval_length:
        return value
    return value * cluster_total / interval_length


def run_sampled(
    geometry: CacheGeometry,
    trace: Any,
    plan: PhasePlan,
    config: SamplingConfig,
    replacement: str = "lru",
    fetch: str = "demand",
    word_size: int = 2,
    engine: str = "vectorized",
    warmup_intervals: int = 1,
    deadline: Optional[float] = None,
) -> SampledStats:
    """Estimate the cold full-trace statistics from a phase plan.

    Args:
        geometry: Cache shape under test.
        trace: The *prepared* trace the plan was built over (same read
            filtering; the plan's ``trace_length`` must match).
        plan: A :func:`repro.staticcheck.phases.analyze_trace` result.
        config: The sampling parameters (recorded in the result).
        replacement / fetch: Policy *names* — fresh policy objects are
            built per interval so stateful policies never leak state
            across windows.
        word_size: Data-path width.
        engine: Engine for the interval simulations; automatically
            degrades to ``reference`` where the fast engine refuses.
        warmup_intervals: Priming windows of ``plan.interval_length``
            accesses simulated (and discarded) before each measured
            interval.
        deadline: Optional monotonic cancellation instant, forwarded to
            every interval simulation.

    Raises:
        ConfigurationError: When ``plan`` does not describe ``trace``.
    """
    if plan.trace_length != len(trace):
        raise ConfigurationError(
            f"phase plan covers {plan.trace_length} accesses but trace "
            f"{getattr(trace, 'name', '')!r} has {len(trace)}; rebuild the "
            "plan over the prepared trace"
        )
    if warmup_intervals < 0:
        raise ConfigurationError(
            f"warmup_intervals must be >= 0, got {warmup_intervals}"
        )
    weights = _cold_weights(geometry, word_size)
    estimates: Dict[str, Any] = {name: 0 for name in SCALAR_COUNTERS}
    for name in DICT_COUNTERS:
        estimates[name] = {}
    half_widths: Dict[str, float] = {
        name: 0.0 for name in SCALAR_COUNTERS + DICT_COUNTERS
    }
    simulated = 0
    engines_used = set()
    budget = warmup_intervals * plan.interval_length

    for phase in plan.phases:
        start, end = plan.bounds(phase.representative)
        window_start = max(0, start - budget)
        rep_stats, used = _run_interval(
            geometry,
            trace[window_start:end],
            start - window_start,
            replacement,
            fetch,
            word_size,
            engine,
            deadline,
        )
        engines_used.add(used)
        simulated += end - window_start
        rep_length = end - start
        rep_dict = rep_stats.to_dict()

        for name in SCALAR_COUNTERS:
            estimates[name] += _scale(
                rep_dict[name], phase.accesses, rep_length
            )
        for name in DICT_COUNTERS:
            bucket = estimates[name]
            for key, value in rep_dict[name].items():
                bucket[key] = bucket.get(key, 0) + _scale(
                    value, phase.accesses, rep_length
                )

        suspects = _cold_suspects(
            trace, start, end, window_start,
            geometry.sub_block_size, word_size,
        )
        cold = _scale(float(suspects), phase.accesses, rep_length)
        for name, weight in weights.items():
            if weight:
                half_widths[name] += cold * weight

        if phase.witness is not None:
            wit_start, wit_end = plan.bounds(phase.witness)
            wit_window = max(0, wit_start - budget)
            wit_stats, used = _run_interval(
                geometry,
                trace[wit_window:wit_end],
                wit_start - wit_window,
                replacement,
                fetch,
                word_size,
                engine,
                deadline,
            )
            engines_used.add(used)
            simulated += wit_end - wit_window
            wit_length = wit_end - wit_start
            wit_dict = wit_stats.to_dict()
            for name in SCALAR_COUNTERS:
                half_widths[name] += (
                    abs(
                        rep_dict[name] / rep_length
                        - wit_dict[name] / wit_length
                    )
                    * phase.accesses
                )
            for name in DICT_COUNTERS:
                keys = set(rep_dict[name]) | set(wit_dict[name])
                half_widths[name] += sum(
                    abs(
                        rep_dict[name].get(key, 0) / rep_length
                        - wit_dict[name].get(key, 0) / wit_length
                    )
                    * phase.accesses
                    for key in keys
                )

    return SampledStats(
        estimates=estimates,
        half_widths=half_widths,
        config=config,
        plan={
            "intervals": plan.intervals,
            "interval_length": plan.interval_length,
            "k": plan.k,
            "seed": plan.seed,
            "source": plan.source,
            "simulated_fraction": plan.simulated_fraction,
        },
        simulated_accesses=simulated,
        total_accesses=plan.trace_length,
        engine=(
            "reference" if "reference" in engines_used
            else (sorted(engines_used)[0] if engines_used else engine)
        ),
    )


def sample_trace(
    geometry: CacheGeometry,
    trace: Any,
    config: SamplingConfig,
    replacement: str = "lru",
    fetch: str = "demand",
    word_size: int = 2,
    program: Any = None,
    plan: Optional[PhasePlan] = None,
    engine: str = "vectorized",
    deadline: Optional[float] = None,
) -> SampledStats:
    """Plan + execute in one call (the service and CLI entry point)."""
    if plan is None:
        plan = analyze_trace(
            trace, config.interval, config.k, seed=config.seed,
            program=program,
        )
    return run_sampled(
        geometry, trace, plan, config,
        replacement=replacement, fetch=fetch, word_size=word_size,
        engine=engine, deadline=deadline,
    )


def _assembled(program: str, word_size: int) -> Any:
    """The AssembledProgram behind one bundled program name."""
    from repro.workloads.assembler import assemble
    from repro.workloads.programs import PROGRAMS

    if program not in PROGRAMS:
        raise ConfigurationError(
            f"unknown program {program!r}; choose from {sorted(PROGRAMS)}"
        )
    return assemble(PROGRAMS[program]().source, word_size=word_size)


def verify_sampling(
    programs: Optional[Sequence[str]] = None,
    word_sizes: Sequence[int] = (2, 4),
    length: int = 20_000,
    interval: int = 2_000,
    k: Optional[int] = None,
    net: int = 1024,
    block: int = 16,
    sub: int = 8,
    assoc: int = 4,
    replacement: str = "lru",
    fetch: str = "demand",
    seed: int = 0,
    raise_on_failure: bool = True,
) -> List[Dict[str, Any]]:
    """Replay full traces and check the sampled bounds against truth.

    For every (program, word size) cell: generate the trace, read-filter
    it exactly like a sweep, build the phase plan from the program's CFG
    fingerprints, run the sampled estimator, then replay the *entire*
    trace cold on the reference path and assert the true miss ratio
    falls inside the reported confidence interval.

    Returns one report dict per cell (``covered`` is the verdict);
    raises ``AssertionError`` naming every failing cell when
    ``raise_on_failure`` and any bound misses.
    """
    from repro.engine.batch import prepare_trace
    from repro.workloads.generator import program_trace
    from repro.workloads.programs import PROGRAMS

    names = sorted(PROGRAMS) if programs is None else list(programs)
    geometry = CacheGeometry(net, block, sub, associativity=assoc)
    config = SamplingConfig(interval=interval, k=k, seed=seed)
    reports: List[Dict[str, Any]] = []
    for name in names:
        for word_size in word_sizes:
            trace = program_trace(name, length, word_size=word_size)
            prepared = prepare_trace(trace)
            plan = analyze_trace(
                prepared, interval, k, seed=seed,
                program=_assembled(name, word_size),
            )
            sampled = run_sampled(
                geometry, prepared, plan, config,
                replacement=replacement, fetch=fetch, word_size=word_size,
            )
            exact, _ = _run_interval(
                geometry, prepared, 0, replacement, fetch, word_size,
                "vectorized", None,
            )
            lo, hi = sampled.miss_ratio_ci
            truth = exact.miss_ratio
            reports.append(
                {
                    "program": name,
                    "word_size": word_size,
                    "accesses": len(prepared),
                    "true_miss_ratio": truth,
                    "estimated_miss_ratio": sampled.miss_ratio,
                    "ci": [lo, hi],
                    "abs_error": abs(sampled.miss_ratio - truth),
                    "covered": lo <= truth <= hi,
                    "speedup_factor": sampled.speedup_factor,
                }
            )
    failures = [r for r in reports if not r["covered"]]
    if failures and raise_on_failure:
        detail = "; ".join(
            f"{r['program']}/w{r['word_size']}: true {r['true_miss_ratio']:.4f} "
            f"outside [{r['ci'][0]:.4f}, {r['ci'][1]:.4f}]"
            for r in failures
        )
        raise AssertionError(f"sampling bounds violated: {detail}")
    return reports
