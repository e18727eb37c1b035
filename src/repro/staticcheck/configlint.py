"""Cache-geometry and sweep-grid lint with structured diagnostics.

:class:`~repro.core.config.CacheGeometry` already *rejects* bad shapes,
but it rejects them one at a time, with a bare message, at construction
time — which for a sweep can be deep inside a checkpointed campaign.
This lint reports **every** problem of a shape or a grid at once, each
with a stable rule id, without constructing anything:

================================  ========  ==================================
rule                              severity  meaning
================================  ========  ==================================
``geom-pow2``                     error     net/block/sub size is not a
                                            positive power of two
``geom-sub-gt-block``             error     sub-block larger than its block
``geom-block-gt-net``             error     block larger than the cache
``geom-assoc-invalid``            error     associativity < 1 or not a power
                                            of two (zero-way caches hold
                                            nothing)
``geom-assoc-clamped``            warning   associativity exceeds the block
                                            count; the cache degenerates to
                                            fully associative (the paper's
                                            convention, but worth knowing)
``fetch-lf-single-sub``           warning   load-forward on a single-sub-block
                                            geometry — there is nothing
                                            forward of the only sub-block, so
                                            the policy degenerates to demand
                                            fetch
``policy-unknown-fetch``          error     unknown fetch policy name
``policy-unknown-replacement``    error     unknown replacement policy name
``sweep-bad-warmup``              error     warmup is neither ``"fill"`` nor a
                                            non-negative access count
``grid-axis-empty``               error     a sweep axis is an empty list
``grid-axis-type``                error     a sweep axis holds a non-integer
``misspath-unknown-key``          error     a miss-path config key is not one
                                            of :data:`~repro.core.misspath.
                                            MISS_PATH_KEYS` (a typo like
                                            ``victim_entires`` must fail, not
                                            silently configure no chain)
``misspath-bad-value``            error     a miss-path config value is not an
                                            integer in its field's range
``misspath-degenerate``           warning   a chain structure that cannot help:
                                            a victim cache holding at least as
                                            many blocks as the L1 it backs, a
                                            miss cache shadowed by an equal-
                                            capacity victim cache ahead of it,
                                            ``stream_depth`` set with zero
                                            stream buffers, or an L2 no larger
                                            than the L1 in front of it
``sweep-stackdist-coverage``      info      how many cells of a sweep grid the
                                            one-pass stack-distance engine
                                            covers, and in how many pass
                                            groups (:mod:`repro.stackdist`)
``sweep-stackdist-fallback``      info      which axis (replacement policy,
                                            fetch policy, miss-path chain,
                                            engine, guard) forces cells onto
                                            the per-cell fallback path, with
                                            the affected cell count
``sample-interval-invalid``       error     a ``--sample`` spec that does not
                                            parse into a positive interval
                                            (and optional positive k / seed)
``sample-interval-exceeds-trace`` warning   the sampling interval is at least
                                            the trace length, so the plan
                                            degenerates to one whole-trace
                                            interval (exact, but no speedup)
``sample-k-exceeds-intervals``    warning   k exceeds the interval count and
                                            will be clamped at plan time
``sample-fallback-injector``      warning   sampling combined with fault
                                            injection: the injector wraps the
                                            whole trace, so sampled cells fall
                                            back to exact per-cell simulation
``sample-fallback-checked``       warning   sampling combined with the checked
                                            (sanitizer) engine: invariants are
                                            asserted over full runs only, so
                                            cells fall back to exact
``sample-fallback-chain``         warning   sampling combined with a miss-path
                                            chain: chain state spans interval
                                            boundaries, so cells fall back to
                                            exact
``sample-warmup-ignored``         info      a sweep warmup is configured but
                                            sampled estimates always target
                                            the cold full-trace run
                                            (docs/sampling.md)
``sweep-sample-coverage``         info      how many cells of a sweep grid a
                                            PhasePlan covers under the given
                                            sampling config, versus per-cell
                                            exact fallback
``sweep-sample-fallback``         info      which axis (injector, checked
                                            engine, miss-path chain) forces
                                            sampled cells onto the exact path,
                                            with the affected cell count
================================  ========  ==================================

Values that are not positive integers are reported under the geometry
rule of the field they were passed for (``geom-pow2`` /
``geom-assoc-invalid``): zero and negative sizes are just the most
degenerate non-powers-of-two.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import is_power_of_two
from repro.core.fetch import FetchPolicy, make_fetch
from repro.core.misspath import MISS_PATH_KEYS, MissPathConfig
from repro.core.replacement import make_replacement
from repro.engine.batch import CellSpec
from repro.engine.route import plan
from repro.errors import ConfigurationError
from repro.staticcheck.diagnostics import Diagnostic, Severity, raise_on_errors

__all__ = [
    "CONFIG_RULES",
    "lint_geometry",
    "lint_cell_options",
    "lint_grid_axes",
    "lint_miss_path",
    "lint_sample",
    "lint_sample_coverage",
    "lint_stackdist_coverage",
    "check_geometry",
]

#: Every rule this module can emit, for docs and tests.
CONFIG_RULES = (
    "geom-pow2",
    "geom-sub-gt-block",
    "geom-block-gt-net",
    "geom-assoc-invalid",
    "geom-assoc-clamped",
    "fetch-lf-single-sub",
    "policy-unknown-fetch",
    "policy-unknown-replacement",
    "sweep-bad-warmup",
    "grid-axis-empty",
    "grid-axis-type",
    "misspath-unknown-key",
    "misspath-bad-value",
    "misspath-degenerate",
    "sweep-stackdist-coverage",
    "sweep-stackdist-fallback",
    "sample-interval-invalid",
    "sample-interval-exceeds-trace",
    "sample-k-exceeds-intervals",
    "sample-fallback-injector",
    "sample-fallback-checked",
    "sample-fallback-chain",
    "sample-warmup-ignored",
    "sweep-sample-coverage",
    "sweep-sample-fallback",
)

_LOAD_FORWARD_NAMES = {"load-forward", "load-forward-optimized"}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def lint_geometry(
    net: Any,
    block: Any,
    sub: Any,
    assoc: Any = 4,
    fetch: Union[str, FetchPolicy, None] = None,
    source: str = "geometry",
) -> List[Diagnostic]:
    """Lint one cache shape (plus its fetch-policy compatibility).

    Returns every applicable finding; never raises and never constructs
    a :class:`~repro.core.config.CacheGeometry`.
    """
    out: List[Diagnostic] = []
    sizes = {"net": net, "block": block, "sub": sub}
    for field_name, value in sizes.items():
        if not _is_int(value) or not is_power_of_two(value):
            out.append(
                Diagnostic(
                    rule="geom-pow2",
                    severity=Severity.ERROR,
                    message=(
                        f"{field_name} size must be a positive power of "
                        f"two, got {value!r}"
                    ),
                    source=source,
                    location=field_name,
                    data={"value": value},
                )
            )
    if not _is_int(assoc) or assoc < 1 or not is_power_of_two(assoc):
        out.append(
            Diagnostic(
                rule="geom-assoc-invalid",
                severity=Severity.ERROR,
                message=(
                    f"associativity must be a positive power of two, "
                    f"got {assoc!r} (a zero-way cache holds nothing)"
                ),
                source=source,
                location="assoc",
                data={"value": assoc},
            )
        )
    # Relational rules only make sense between well-formed sizes.
    if _is_int(sub) and _is_int(block) and sub > 0 and block > 0 and sub > block:
        out.append(
            Diagnostic(
                rule="geom-sub-gt-block",
                severity=Severity.ERROR,
                message=(
                    f"sub-block size {sub} exceeds block size {block}; "
                    "sub-blocks partition a block, so sub must divide block"
                ),
                source=source,
                location="sub",
                data={"sub": sub, "block": block},
            )
        )
    if _is_int(block) and _is_int(net) and block > 0 and net > 0 and block > net:
        out.append(
            Diagnostic(
                rule="geom-block-gt-net",
                severity=Severity.ERROR,
                message=(
                    f"block size {block} exceeds net cache size {net}; "
                    "the cache cannot hold a single block"
                ),
                source=source,
                location="block",
                data={"block": block, "net": net},
            )
        )
    if (
        _is_int(net) and _is_int(block) and _is_int(assoc)
        and is_power_of_two(net) and is_power_of_two(block)
        and block <= net and assoc >= 1 and is_power_of_two(assoc)
        and assoc > net // block
    ):
        out.append(
            Diagnostic(
                rule="geom-assoc-clamped",
                severity=Severity.WARNING,
                message=(
                    f"associativity {assoc} exceeds the {net // block} "
                    "blocks the cache holds; it degenerates to fully "
                    "associative (the paper's convention)"
                ),
                source=source,
                location="assoc",
                data={"assoc": assoc, "blocks": net // block},
            )
        )
    fetch_name = fetch.name if isinstance(fetch, FetchPolicy) else fetch
    if (
        fetch_name is not None
        and str(fetch_name).lower().replace("_", "-") in _LOAD_FORWARD_NAMES
        and _is_int(sub) and _is_int(block) and sub == block
    ):
        out.append(
            Diagnostic(
                rule="fetch-lf-single-sub",
                severity=Severity.WARNING,
                message=(
                    f"load-forward with one sub-block per block "
                    f"(block == sub == {block}) degenerates to demand "
                    "fetch: there is nothing forward of the target"
                ),
                source=source,
                location="sub",
                data={"block": block, "sub": sub},
            )
        )
    return out


def lint_cell_options(
    fetch: Union[str, FetchPolicy, None],
    replacement: Union[str, None],
    warmup: Union[int, str, None],
    source: str = "options",
) -> List[Diagnostic]:
    """Lint the execution options a sweep cell or query carries."""
    out: List[Diagnostic] = []
    if isinstance(fetch, str):
        try:
            make_fetch(fetch)
        except ConfigurationError as exc:
            out.append(
                Diagnostic(
                    rule="policy-unknown-fetch",
                    severity=Severity.ERROR,
                    message=str(exc),
                    source=source,
                    location="fetch",
                    data={"value": fetch},
                )
            )
    if isinstance(replacement, str):
        try:
            make_replacement(replacement)
        except ConfigurationError as exc:
            out.append(
                Diagnostic(
                    rule="policy-unknown-replacement",
                    severity=Severity.ERROR,
                    message=str(exc),
                    source=source,
                    location="replacement",
                    data={"value": replacement},
                )
            )
    if warmup is not None:
        bad = (
            isinstance(warmup, bool)
            or not isinstance(warmup, (int, str))
            or (isinstance(warmup, str) and warmup != "fill")
            or (isinstance(warmup, int) and warmup < 0)
        )
        if bad:
            out.append(
                Diagnostic(
                    rule="sweep-bad-warmup",
                    severity=Severity.ERROR,
                    message=(
                        f"warmup must be 'fill' or a non-negative access "
                        f"count, got {warmup!r}"
                    ),
                    source=source,
                    location="warmup",
                    data={"value": warmup},
                )
            )
    return out


def lint_grid_axes(
    axes: Dict[str, Sequence[Any]], source: str = "grid"
) -> List[Diagnostic]:
    """Lint raw sweep-grid axes (value lists, before cell expansion)."""
    out: List[Diagnostic] = []
    for axis, values in axes.items():
        if values is None:
            continue
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            out.append(
                Diagnostic(
                    rule="grid-axis-empty",
                    severity=Severity.ERROR,
                    message=(
                        f"sweep grid axis {axis!r} must be a non-empty "
                        f"list, got {values!r}"
                    ),
                    source=source,
                    location=axis,
                )
            )
            continue
        for value in values:
            if not _is_int(value):
                out.append(
                    Diagnostic(
                        rule="grid-axis-type",
                        severity=Severity.ERROR,
                        message=(
                            f"sweep grid axis {axis!r} holds non-integer "
                            f"{value!r}"
                        ),
                        source=source,
                        location=axis,
                        data={"value": value},
                    )
                )
    return out


#: Smallest legal value per miss-path field (all must be non-bool ints).
_MISSPATH_MIN = {
    "victim_entries": 0,
    "miss_entries": 0,
    "stream_buffers": 0,
    "stream_depth": 1,
    "l2_net_size": 0,
    "l2_block_size": 0,
    "l2_sub_block_size": 0,
    "l2_associativity": 1,
}


def lint_miss_path(
    miss_path: Any,
    l1_block_size: Any = None,
    source: str = "misspath",
    l1_net_size: Any = None,
) -> List[Diagnostic]:
    """Lint a miss-path chain configuration (dict form or parsed).

    Reports *every* problem at once and never raises, unlike
    :meth:`~repro.core.misspath.MissPathConfig.from_dict` which raises
    on the first.  A typo'd key (``victim_entires``) is an error — a
    key that silently configured no chain would silently fingerprint
    and simulate a different experiment.

    When an L2 is configured, its resolved geometry is linted through
    :func:`lint_geometry` (the chain builder constructs the
    :class:`~repro.core.config.CacheGeometry` only at cell-run time,
    deep inside a campaign); pass ``l1_block_size`` so the L2 block
    default can be resolved when the config omits ``l2_block_size``.

    With L1 context (``l1_net_size`` + ``l1_block_size``) the
    size-relative ``misspath-degenerate`` warnings also fire — a chain
    structure shaped so it provably cannot help the L1 in front of it.
    """
    out: List[Diagnostic] = []
    if miss_path is None:
        return out
    if isinstance(miss_path, MissPathConfig):
        values: Dict[str, Any] = miss_path.to_dict()
    elif isinstance(miss_path, dict):
        values = dict(miss_path)
        for key in sorted(set(values) - MISS_PATH_KEYS):
            out.append(
                Diagnostic(
                    rule="misspath-unknown-key",
                    severity=Severity.ERROR,
                    message=(
                        f"unknown miss-path key {key!r}; expected a subset "
                        f"of {sorted(MISS_PATH_KEYS)}"
                    ),
                    source=source,
                    location=key,
                    data={"key": key},
                )
            )
            del values[key]
    else:
        return [
            Diagnostic(
                rule="misspath-bad-value",
                severity=Severity.ERROR,
                message=(
                    f"miss-path config must be a mapping of miss-path keys "
                    f"to integers, got {type(miss_path).__name__}"
                ),
                source=source,
                data={"value": repr(miss_path)},
            )
        ]
    bad_fields = set()
    for field_name, minimum in _MISSPATH_MIN.items():
        if field_name not in values:
            continue
        value = values[field_name]
        if not _is_int(value) or value < minimum:
            bad_fields.add(field_name)
            out.append(
                Diagnostic(
                    rule="misspath-bad-value",
                    severity=Severity.ERROR,
                    message=(
                        f"{field_name} must be an integer >= {minimum}, "
                        f"got {value!r}"
                    ),
                    source=source,
                    location=field_name,
                    data={"value": value},
                )
            )
    l2_net = values.get("l2_net_size", 0)
    if "l2_net_size" not in bad_fields and _is_int(l2_net) and l2_net > 0:
        block = values.get("l2_block_size", 0) or l1_block_size
        sub = values.get("l2_sub_block_size", 0)
        if _is_int(block) and block:
            out += lint_geometry(
                l2_net,
                block,
                sub if _is_int(sub) and sub else block,
                assoc=values.get("l2_associativity", 4),
                source=f"{source}-l2",
            )

    def degenerate(location: str, message: str, **data: Any) -> None:
        out.append(
            Diagnostic(
                rule="misspath-degenerate",
                severity=Severity.WARNING,
                message=message,
                source=source,
                location=location,
                data=data,
            )
        )

    def good(field_name: str) -> Any:
        value = values.get(field_name)
        if field_name in bad_fields or not _is_int(value):
            return None
        return value

    victim = good("victim_entries")
    miss = good("miss_entries")
    buffers = good("stream_buffers")
    if buffers is None and "stream_buffers" not in values:
        buffers = 0  # an absent count means no buffers, not unknown
    depth = good("stream_depth")
    l2_size = good("l2_net_size")
    if (
        victim and _is_int(l1_net_size) and _is_int(l1_block_size)
        and l1_net_size > 0 and l1_block_size > 0
        and victim >= l1_net_size // max(l1_block_size, 1)
    ):
        degenerate(
            "victim_entries",
            f"victim cache of {victim} entries holds at least as many "
            f"blocks as the {l1_net_size // l1_block_size}-block L1 it "
            "backs; evictions never age out, so it is a second L1, not "
            "a victim buffer",
            victim_entries=victim,
            l1_blocks=l1_net_size // l1_block_size,
        )
    if victim and miss and victim == miss:
        degenerate(
            "miss_entries",
            f"victim cache and miss cache both hold {victim} entries; "
            "the tag-only miss cache is probed after the victim cache "
            "and every L1 miss fills both, so the equal-capacity miss "
            "cache is shadowed and can only hit on re-fetched blocks "
            "the victim cache never saw evicted",
            victim_entries=victim,
            miss_entries=miss,
        )
    if (
        buffers == 0 and depth is not None
        and "stream_depth" in values
        and depth != MissPathConfig().stream_depth
    ):
        degenerate(
            "stream_depth",
            f"stream_depth {depth} is configured with zero stream "
            "buffers; the depth of no buffer prefetches nothing",
            stream_depth=depth,
        )
    if (
        l2_size and _is_int(l1_net_size) and l1_net_size > 0
        and l2_size <= l1_net_size
    ):
        degenerate(
            "l2_net_size",
            f"backing L2 of {l2_size} B is no larger than the "
            f"{l1_net_size} B L1 in front of it; almost everything the "
            "L1 misses, an equal-or-smaller L2 misses too",
            l2_net_size=l2_size,
            l1_net_size=l1_net_size,
        )
    return out


def check_geometry(
    net: Any,
    block: Any,
    sub: Any,
    assoc: Any = 4,
    fetch: Union[str, FetchPolicy, None] = None,
    source: str = "geometry",
) -> List[Diagnostic]:
    """Lint one shape and raise on error-severity findings.

    Raises:
        StaticCheckError: Carrying the full diagnostic list (warnings
            included), when any finding is an error.

    Returns:
        The findings (warnings only) when the shape is acceptable.
    """
    diagnostics = lint_geometry(
        net, block, sub, assoc=assoc, fetch=fetch, source=source
    )
    return raise_on_errors(diagnostics, f"invalid {source}")


def lint_stackdist_coverage(
    geometries: Sequence[Any],
    spec: Optional[CellSpec] = None,
    grid_engine: str = "auto",
    cell_timeout: Optional[float] = None,
    max_cell_accesses: Optional[int] = None,
    injector_active: bool = False,
    source: str = "sweep",
) -> List[Diagnostic]:
    """Report a sweep grid's one-pass (stack-distance) coverage.

    Info-severity only — this is a planning report, not a judgement:
    ``sweep-stackdist-coverage`` carries how many cells of the grid the
    :mod:`repro.stackdist` engine answers and in how many pass groups,
    ``sweep-stackdist-fallback`` names each reason (replacement policy,
    fetch policy, miss-path chain, engine, per-cell guard) that forces
    cells onto the per-cell path, with the affected cell count.

    A rendering of :func:`repro.stackdist.planner.plan_grid`, the plan
    the runner executes, for the sweep template ``spec`` (default
    axes when omitted) under the same guards.
    """
    from repro.stackdist.planner import plan_grid

    plan = plan_grid(
        geometries,
        grid_engine=grid_engine,
        spec=spec if spec is not None else CellSpec(None),
        cell_timeout=cell_timeout,
        max_cell_accesses=max_cell_accesses,
        injector_active=injector_active,
    )
    total = len(geometries)
    out: List[Diagnostic] = [
        Diagnostic(
            rule="sweep-stackdist-coverage",
            severity=Severity.INFO,
            message=(
                f"{plan.covered} of {total} grid cells are one-pass "
                f"coverable in {len(plan.groups)} stack-distance pass "
                f"group(s); {len(plan.fallback_indices)} cell(s) run "
                "per cell"
            ),
            source=source,
            data={
                "covered": plan.covered,
                "total": total,
                "pass_groups": len(plan.groups),
                "fallback": len(plan.fallback_indices),
                "grid_engine": grid_engine,
            },
        )
    ]
    by_reason: Dict[str, int] = {}
    for index in plan.fallback_indices:
        reason = plan.fallback_reasons.get(index, "not coverable")
        by_reason[reason] = by_reason.get(reason, 0) + 1
    for reason, count in sorted(by_reason.items()):
        out.append(
            Diagnostic(
                rule="sweep-stackdist-fallback",
                severity=Severity.INFO,
                message=f"{count} cell(s) fall back to per-cell: {reason}",
                source=source,
                data={"reason": reason, "cells": count},
            )
        )
    return out


#: rule id -> (message, ``data["axis"]``) for the sample fallbacks
#: :func:`repro.engine.route.plan` names; ``{chain}`` is the chain key.
_SAMPLE_FALLBACK_TEXT: Dict[str, Tuple[str, str]] = {
    "sample-fallback-injector": (
        "sampling is combined with fault injection; the injector wraps "
        "the whole trace, so every cell falls back to exact per-cell "
        "simulation",
        "injector",
    ),
    "sample-fallback-checked": (
        "sampling is combined with the checked (sanitizer) engine; "
        "invariants are asserted over full runs only, so every cell "
        "falls back to exact per-cell simulation",
        "engine",
    ),
    "sample-fallback-chain": (
        "sampling is combined with a miss-path chain ({chain}); chain "
        "state spans interval boundaries, so every cell falls back to "
        "exact per-cell simulation",
        "miss_path",
    ),
}


def _sample_fallbacks(
    config: Any,
    engine: str,
    injector_active: bool,
    miss_path: Union[MissPathConfig, Dict[str, Any], None],
) -> List[Diagnostic]:
    """Render the ``sample-fallback-*`` reasons of the sample's route."""
    try:
        spec = CellSpec.of(None, engine=engine, miss_path=miss_path, sample=config)
    except ConfigurationError:
        # lint_miss_path owns reporting malformed chains.
        spec = CellSpec.of(None, engine=engine, sample=config)
    route = plan(spec, injector_active=injector_active)
    out: List[Diagnostic] = []
    for rule in route.sample_fallbacks:
        text, axis = _SAMPLE_FALLBACK_TEXT[rule]
        data: Dict[str, Any] = {"axis": axis}
        if axis == "engine":
            data["engine"] = engine
        elif axis == "miss_path" and spec.miss_path is not None:
            data["chain"] = spec.miss_path.key()
        out.append(
            Diagnostic(
                rule=rule,
                severity=Severity.WARNING,
                message=text.format(chain=data.get("chain")),
                source="sample",
                data=data,
            )
        )
    return out


def lint_sample(
    sample: Any,
    trace_length: Union[int, None] = None,
    engine: str = "auto",
    injector_active: bool = False,
    miss_path: Union[MissPathConfig, Dict[str, Any], None] = None,
    warmup: Union[int, str, None] = None,
    source: str = "sample",
) -> List[Diagnostic]:
    """Lint a ``--sample`` configuration against its execution context.

    Args:
        sample: Anything ``SamplingConfig.coerce`` accepts — the config
            itself, the CLI ``INTERVAL[,K]`` string, or a dict.
        trace_length: When known, enables the interval-vs-trace and
            k-vs-interval-count checks.
        engine / injector_active / miss_path: The sweep's execution
            axes; each incompatible axis yields its *named* fallback
            warning (``sample-fallback-*``) — the sweep still runs, but
            exactly, cell by cell.
        warmup: The sweep's warmup setting; anything but 0 earns the
            info-severity reminder that sampled estimates always target
            the cold full-trace run (suppressed when a fallback means
            the sweep runs exactly and honours its warmup after all).
    """
    from repro.staticcheck.phases import DEFAULT_K, SamplingConfig

    try:
        config = SamplingConfig.coerce(sample)
    except ConfigurationError as exc:
        return [
            Diagnostic(
                rule="sample-interval-invalid",
                severity=Severity.ERROR,
                message=str(exc),
                source=source,
                data={"sample": repr(sample)},
            )
        ]
    if config is None:
        return []
    out: List[Diagnostic] = []
    if trace_length is not None and trace_length > 0:
        if config.interval >= trace_length:
            out.append(
                Diagnostic(
                    rule="sample-interval-exceeds-trace",
                    severity=Severity.WARNING,
                    message=(
                        f"sampling interval {config.interval} is not "
                        f"smaller than the trace ({trace_length} "
                        "accesses); the plan degenerates to one "
                        "whole-trace interval — exact, but without "
                        "any speedup"
                    ),
                    source=source,
                    data={
                        "interval": config.interval,
                        "trace_length": trace_length,
                    },
                )
            )
        intervals = -(-trace_length // config.interval)
        k = config.k if config.k is not None else DEFAULT_K
        if config.k is not None and k > intervals:
            out.append(
                Diagnostic(
                    rule="sample-k-exceeds-intervals",
                    severity=Severity.WARNING,
                    message=(
                        f"k={k} exceeds the {intervals} interval(s) the "
                        f"trace splits into; the plan clamps k to "
                        f"{intervals}"
                    ),
                    source=source,
                    data={"k": k, "intervals": intervals},
                )
            )
    fallbacks = _sample_fallbacks(config, engine, injector_active, miss_path)
    out.extend(fallbacks)
    # With a fallback the sweep runs exactly and honours its warmup, so
    # the "ignored" reminder would be wrong.
    if not fallbacks and warmup not in (None, 0):
        out.append(
            Diagnostic(
                rule="sample-warmup-ignored",
                severity=Severity.INFO,
                message=(
                    f"warmup={warmup!r} is ignored under sampling: "
                    "sampled estimates target the cold full-trace run "
                    "(docs/sampling.md)"
                ),
                source=source,
                data={"warmup": str(warmup)},
            )
        )
    return out


def lint_sample_coverage(
    geometries: Sequence,
    sample: Any,
    trace_count: int = 1,
    engine: str = "auto",
    injector_active: bool = False,
    miss_path: Union[MissPathConfig, Dict[str, Any], None] = None,
    source: str = "sweep",
) -> List[Diagnostic]:
    """Report how many sweep cells a PhasePlan would cover (info only).

    The sampled path is sweep-global: either every cell of the sweep
    runs from per-trace PhasePlans, or an incompatible axis (fault
    injection, checked engine, miss-path chain) sends *every* cell to
    the exact per-cell fallback — the route
    :func:`repro.engine.route.plan` gives the sweep's cells.
    """
    from repro.staticcheck.phases import SamplingConfig

    try:
        config = SamplingConfig.coerce(sample)
    except ConfigurationError:
        config = None
    if config is None:
        return []
    total = len(geometries) * max(trace_count, 1)
    fallbacks = _sample_fallbacks(config, engine, injector_active, miss_path)
    covered = 0 if fallbacks else total
    out = [
        Diagnostic(
            rule="sweep-sample-coverage",
            severity=Severity.INFO,
            message=(
                f"{covered} of {total} sweep cell(s) run sampled "
                f"(sample {config.key()}); {total - covered} cell(s) "
                "fall back to exact per-cell simulation"
            ),
            source=source,
            data={
                "covered": covered,
                "total": total,
                "sample": config.key(),
                "fallback": total - covered,
            },
        )
    ]
    for finding in fallbacks:
        out.append(
            Diagnostic(
                rule="sweep-sample-fallback",
                severity=Severity.INFO,
                message=(
                    f"{total} cell(s) fall back to exact: "
                    f"{finding.rule.replace('sample-fallback-', '')} axis"
                ),
                source=source,
                data=dict(finding.data, cells=total),
            )
        )
    return out
