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
``policy-unknown-engine``         error     unknown engine name
``policy-unknown-fetch``          error     unknown fetch policy name
``policy-unknown-replacement``    error     unknown replacement policy name
``sweep-bad-warmup``              error     warmup is neither ``"fill"`` nor a
                                            non-negative access count
``sweep-bad-word-size``           error     word size is not a positive
                                            integer
``grid-axis-empty``               error     a sweep axis is an empty list
``grid-axis-type``                error     a sweep axis holds a non-integer
``misspath-unknown-key``          error     a miss-path config key is not one
                                            of :data:`~repro.core.misspath.
                                            MISS_PATH_KEYS` (a typo like
                                            ``victim_entires`` must fail, not
                                            silently configure no chain)
``misspath-bad-value``            error     a miss-path config value is not an
                                            integer of at least its field's
                                            :data:`~repro.core.misspath.
                                            MISS_PATH_MIN`
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
                                            engine, injector) forces cells onto
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

:func:`lint_cell` is the one lint of a cell's axes, and
:meth:`~repro.engine.batch.CellSpec.of` raises on its errors, so every
entry point (the sweep runner, the service, the CLI) refuses a
malformed axis under the same rule id.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import CacheGeometry, is_power_of_two
from repro.core.fetch import FetchPolicy, make_fetch
from repro.core.misspath import MISS_PATH_KEYS, MissPathConfig, miss_path_problems
from repro.core.replacement import make_replacement
from repro.engine.base import ENGINE_NAMES
from repro.engine.batch import CellSpec
from repro.engine.route import plan
from repro.errors import ConfigurationError
from repro.staticcheck.diagnostics import Diagnostic, Severity, error_count

__all__ = [
    "CONFIG_RULES",
    "lint_cell",
    "lint_geometry",
    "lint_grid_axes",
    "lint_miss_path",
    "lint_sample",
    "lint_sample_coverage",
    "lint_stackdist_coverage",
    "sample_fallbacks",
]

#: Every rule this module can emit, for docs and tests.
CONFIG_RULES = (
    "geom-pow2",
    "geom-sub-gt-block",
    "geom-block-gt-net",
    "geom-assoc-invalid",
    "geom-assoc-clamped",
    "fetch-lf-single-sub",
    "policy-unknown-engine",
    "policy-unknown-fetch",
    "policy-unknown-replacement",
    "sweep-bad-warmup",
    "sweep-bad-word-size",
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
    fetch: Optional[str] = None,
    source: str = "geometry",
) -> List[Diagnostic]:
    """Lint one cache shape (plus its compatibility with the canonical
    ``fetch`` policy name, when given).

    Returns every applicable finding; never raises and never constructs
    a :class:`~repro.core.config.CacheGeometry`.
    """
    out: List[Diagnostic] = []
    net_int, block_int, sub_int = _is_int(net), _is_int(block), _is_int(sub)
    for field_name, value, whole in (
        ("net", net, net_int), ("block", block, block_int), ("sub", sub, sub_int)
    ):
        if not whole or not is_power_of_two(value):
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
    assoc_ok = _is_int(assoc) and assoc >= 1 and is_power_of_two(assoc)
    if not assoc_ok:
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
    if sub_int and block_int and 0 < block < sub:
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
    if block_int and net_int and 0 < net < block:
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
        net_int and block_int and assoc_ok
        and is_power_of_two(net) and is_power_of_two(block)
        and block <= net and assoc > net // block
    ):
        out.append(
            Diagnostic(
                rule="geom-assoc-clamped",
                severity=Severity.WARNING,
                message=(
                    f"associativity {assoc} exceeds the {net // block} blocks "
                    "the cache holds; it degenerates to fully associative "
                    "(the paper's convention)"
                ),
                source=source,
                location="assoc",
                data={"assoc": assoc, "blocks": net // block},
            )
        )
    if fetch in _LOAD_FORWARD_NAMES and sub_int and block_int and sub == block:
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
    bad_fields = miss_path_problems(values)
    for field_name, problem in bad_fields.items():
        out.append(
            Diagnostic(
                rule="misspath-bad-value",
                severity=Severity.ERROR,
                message=problem,
                source=source,
                location=field_name,
                data={"value": values[field_name]},
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

    # The legal values; an absent or illegal one reads as unknown (None).
    valid = {name: value for name, value in values.items() if name not in bad_fields}
    victim = valid.get("victim_entries")
    miss = valid.get("miss_entries")
    # An absent buffer count means no buffers, not unknown.
    buffers = valid.get("stream_buffers", None if "stream_buffers" in values else 0)
    depth = valid.get("stream_depth")
    l2_size = valid.get("l2_net_size")
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
    if buffers == 0 and depth is not None and depth != MissPathConfig().stream_depth:
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


def lint_stackdist_coverage(
    geometries: Sequence[Any],
    spec: Optional[CellSpec] = None,
    injector_active: bool = False,
    source: str = "sweep",
) -> List[Diagnostic]:
    """Report a sweep grid's one-pass (stack-distance) coverage.

    Info-severity only — this is a planning report, not a judgement:
    ``sweep-stackdist-coverage`` carries how many cells of the grid the
    :mod:`repro.stackdist` engine answers and in how many pass groups,
    ``sweep-stackdist-fallback`` names the reasons (replacement policy,
    miss-path chain, engine, fault injector) that force
    the grid onto the per-cell path, with its cell count.

    A rendering of :func:`repro.stackdist.planner.plan_grid`, the plan
    the runner executes, for the sweep template ``spec`` (default
    axes when omitted) with the same injector.
    """
    from repro.stackdist.planner import plan_grid

    plan = plan_grid(
        geometries,
        spec=spec if spec is not None else CellSpec(None),
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
            },
        )
    ]
    if plan.fallback_indices:
        reason = "; ".join(plan.blockers)
        count = len(plan.fallback_indices)
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


def sample_fallbacks(
    engine: str,
    miss_path: Union[MissPathConfig, Dict[str, Any], None],
    sample: Any,
    injector_active: bool = False,
) -> List[Diagnostic]:
    """Render the ``sample-fallback-*`` reasons of the route of a cell
    with these axes (a valid engine name and a well-formed chain)."""
    spec = CellSpec(
        None, engine=engine, miss_path=MissPathConfig.coerce(miss_path), sample=sample
    )
    route = plan(spec, injector_active=injector_active)
    out: List[Diagnostic] = []
    for rule in route.sample_fallbacks:
        text, axis = _SAMPLE_FALLBACK_TEXT[rule]
        data: Dict[str, Any] = {"axis": axis}
        if axis == "engine":
            data["engine"] = spec.engine
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
            axes (a valid engine name and a well-formed chain, which
            :func:`lint_cell` checks first); each incompatible axis
            yields its *named* fallback warning (``sample-fallback-*``)
            — the sweep still runs, but exactly, cell by cell.
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
    fallbacks = sample_fallbacks(engine, miss_path, config, injector_active)
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
    fallbacks = sample_fallbacks(engine, miss_path, config, injector_active)
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


#: Each cell axis's default, which an absent axis takes.
_AXIS_DEFAULTS: Dict[str, Any] = {
    field.name: field.default for field in fields(CellSpec)
    if field.name != "geometry"
}


def _distinct(findings: Iterable[Diagnostic]) -> List[Diagnostic]:
    """``findings`` without repeats, in first-seen order."""
    unique: Dict[Tuple[str, Optional[str], str], Diagnostic] = {}
    for finding in findings:
        unique.setdefault((finding.rule, finding.location, finding.message), finding)
    return list(unique.values())


def lint_cell(
    axes: Mapping[str, Any],
    geometries: Sequence[CacheGeometry] = (),
    trace_lengths: Sequence[int] = (),
    *,
    injector_active: bool = False,
    source: str = "cell",
) -> List[Diagnostic]:
    """Lint a cell's (or a sweep template's) axes: the one gate, which
    :meth:`~repro.engine.batch.CellSpec.of` raises on before it coerces
    anything.  Never raises; returns every finding.

    Args:
        axes: The keywords of ``CellSpec.of``, as given.  An absent axis
            takes its default; an explicit None is an error for
            ``engine``, ``replacement``, ``warmup`` and ``word_size``
            (``fetch=None`` is demand; a None chain or sample is none).
        geometries: The valid shapes the axes run on.  The chain is
            linted once per distinct L1 ``(block, net)`` (the L2 block
            default and the size-relative ``misspath-degenerate``
            warnings read the L1), and each shape adds its
            compatibility warnings.
        trace_lengths: The sample is linted once per distinct length.
        injector_active: Fault injection wraps the traces, which sends
            a sample back to exact simulation.
    """
    values: Dict[str, Any] = dict(_AXIS_DEFAULTS, **axes)
    out: List[Diagnostic] = []

    def error(rule: str, axis: str, message: str) -> None:
        out.append(
            Diagnostic(
                rule=rule,
                severity=Severity.ERROR,
                message=message,
                source=source,
                location=axis,
                data={"value": values[axis]},
            )
        )

    engine = str(values["engine"]).lower()
    if engine not in ENGINE_NAMES:
        error(
            "policy-unknown-engine", "engine",
            f"unknown engine {values['engine']!r}; choose from "
            f"{list(ENGINE_NAMES)}",
        )
        engine = "auto"
    fetch = values["fetch"]
    fetch_name = None
    try:
        if not isinstance(fetch, FetchPolicy):
            fetch = make_fetch("demand" if fetch is None else str(fetch))
        fetch_name = fetch.name
    except ConfigurationError as exc:
        error("policy-unknown-fetch", "fetch", str(exc))
    try:
        make_replacement(str(values["replacement"]))
    except ConfigurationError as exc:
        error("policy-unknown-replacement", "replacement", str(exc))
    warmup = values["warmup"]
    if isinstance(warmup, bool) or not (
        warmup == "fill" or (isinstance(warmup, int) and warmup >= 0)
    ):
        error(
            "sweep-bad-warmup", "warmup",
            f"warmup must be 'fill' or a non-negative access count, got {warmup!r}",
        )
    word_size = values["word_size"]
    if not _is_int(word_size) or word_size < 1:
        error(
            "sweep-bad-word-size", "word_size",
            f"word_size must be a positive integer, got {word_size!r}",
        )

    chain: List[Diagnostic] = []
    if values["miss_path"] is not None:
        shapes = {(g.block_size, g.net_size) for g in geometries}
        for block, net in sorted(shapes) or [(None, None)]:
            chain += lint_miss_path(
                values["miss_path"], l1_block_size=block,
                source=f"{source}-misspath", l1_net_size=net,
            )
        if len(shapes) > 1:
            chain = _distinct(chain)
        out += chain
    for geometry in geometries:
        out += lint_geometry(
            geometry.net_size,
            geometry.block_size,
            geometry.sub_block_size,
            assoc=geometry.associativity,
            fetch=fetch_name,
            source=f"geometry {geometry.label}@{geometry.net_size}",
        )
    if values["sample"] is not None:
        out += _distinct(
            finding
            for length in sorted(set(trace_lengths)) or [None]
            for finding in lint_sample(
                values["sample"],
                trace_length=length,
                engine=engine,
                injector_active=injector_active,
                miss_path=None if error_count(chain) else values["miss_path"],
                # Only an explicit warmup earns the "ignored" reminder.
                warmup=axes.get("warmup"),
                source=f"{source}-sample",
            )
        )
    return out
