"""Fail-fast sweep preflight for the resilient runner.

Before :func:`repro.runner.runner.run_sweep` creates its checkpoint
writer or touches an engine, it hands the sweep's inputs here.  The
point is to move failure from *deep inside the campaign* to *before it
starts*: a misspelled replacement policy used to fail the first cell
after the checkpoint file was already truncated — and in lenient mode
it would silently skip **every** cell, burning the whole sweep to
produce a table of NaNs.

Error-severity findings abort the sweep with a
:class:`~repro.errors.StaticCheckError` carrying all diagnostics;
warnings are returned to the caller (the runner threads them into its
:class:`~repro.runner.health.RunReport`).

Rules emitted here beyond the config-lint catalogue:

========================  ========  =====================================
rule                      severity  meaning
========================  ========  =====================================
``sweep-duplicate-cell``  error     two traces share a name, so their
                                    (geometry, trace) cell keys collide —
                                    checkpoint records would overwrite
                                    each other and a resume would be
                                    silently wrong
``trace-empty``           warning   a trace has zero accesses; its cells
                                    will produce NaN ratios
========================  ========  =====================================
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.errors import ConfigurationError
from repro.staticcheck.configlint import (
    lint_cell_axes,
    lint_geometry,
    lint_miss_path,
    lint_sample,
    lint_stackdist_coverage,
)
from repro.staticcheck.diagnostics import Diagnostic, Severity, raise_on_errors

__all__ = ["preflight_sweep"]


def preflight_sweep(
    traces: Sequence[Any],
    geometries: Sequence[CacheGeometry],
    strict: bool = True,
    grid_engine: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    max_cell_accesses: Optional[int] = None,
    injector_active: bool = False,
    **axes: Any,
) -> List[Diagnostic]:
    """Validate a sweep's inputs before any cell executes.

    Args:
        traces: The sweep's traces (anything with ``name`` and
            ``__len__``).
        geometries: Already-validated cache shapes (their constructor
            enforces the hard geometry rules; the lint adds the
            compatibility warnings on top).
        axes: The sweep's cell axes as given (the keywords of
            :meth:`~repro.engine.batch.CellSpec.of`), linted before
            they are coerced, so a malformed axis is reported under
            its rule id rather than raised.
        strict: Raise on error-severity findings (the runner's mode);
            False returns everything for reporting instead.
        grid_engine: When given (an explicit ``--grid-engine`` value),
            append the info-severity ``sweep-stackdist-*`` coverage
            report (:func:`~repro.staticcheck.configlint
            .lint_stackdist_coverage`) for this grid; ``None`` (the
            runner's ``auto`` default) keeps preflight quiet.
        cell_timeout / max_cell_accesses / injector_active: The
            per-cell guards, which the route planner weighs for the
            coverage report and the sample fallbacks.

    The miss-path chain is linted against every L1 block size in the
    grid (the L2's resolved geometry is otherwise only constructed at
    cell-run time, deep inside the campaign), and a sample per trace
    length (:func:`~repro.staticcheck.configlint.lint_sample`), so a
    degenerate interval or a named fallback axis is reported before any
    cell runs.

    Raises:
        StaticCheckError: With the full diagnostic list, when ``strict``
            and any finding is an error.

    Returns:
        All findings (warnings only, under ``strict``).
    """
    fetch = axes.get("fetch")
    miss_path = axes.get("miss_path")
    warmup = axes.get("warmup")
    diagnostics: List[Diagnostic] = []
    diagnostics += lint_cell_axes(axes, source="sweep")
    if miss_path is not None:
        # One lint per distinct L1 shape: the L2 block default follows
        # the L1 block (so each distinct shape can resolve to a
        # different L2 geometry), and the size-relative degenerate
        # warnings compare against the L1 net size.
        shapes = sorted(
            {
                (geometry.block_size, geometry.net_size)
                for geometry in geometries
            }
        ) or [(None, None)]
        seen_findings = set()
        for block_size, net_size in shapes:
            for finding in lint_miss_path(
                miss_path,
                l1_block_size=block_size,
                source="sweep-misspath",
                l1_net_size=net_size,
            ):
                marker = (finding.rule, finding.location, finding.message)
                if marker not in seen_findings:
                    seen_findings.add(marker)
                    diagnostics.append(finding)

    seen = {}
    for index, trace in enumerate(traces):
        trace_name = getattr(trace, "name", "")
        if trace_name in seen:
            diagnostics.append(
                Diagnostic(
                    rule="sweep-duplicate-cell",
                    severity=Severity.ERROR,
                    message=(
                        f"traces {seen[trace_name]} and {index} are both "
                        f"named {trace_name!r}: their checkpoint cell keys "
                        "collide, so records would overwrite each other "
                        "and a --resume would be silently wrong"
                    ),
                    source="sweep",
                    location=f"trace {index}",
                    data={"name": trace_name},
                )
            )
        else:
            seen[trace_name] = index
        if len(trace) == 0:
            diagnostics.append(
                Diagnostic(
                    rule="trace-empty",
                    severity=Severity.WARNING,
                    message=(
                        f"trace {trace_name!r} has zero accesses; its "
                        "cells will produce NaN ratios"
                    ),
                    source="sweep",
                    location=f"trace {index}",
                    data={"name": trace_name},
                )
            )

    for geometry in geometries:
        diagnostics += lint_geometry(
            geometry.net_size,
            geometry.block_size,
            geometry.sub_block_size,
            assoc=geometry.associativity,
            fetch=fetch,
            source=f"geometry {geometry.label}@{geometry.net_size}",
        )

    sample = axes.get("sample")
    if sample is not None:
        lengths = sorted({len(trace) for trace in traces}) or [None]
        seen_sample = set()
        for trace_length in lengths:
            for finding in lint_sample(
                sample,
                trace_length=trace_length,
                engine=axes.get("engine", "auto"),
                injector_active=injector_active,
                miss_path=miss_path,
                warmup=warmup,
                source="sweep-sample",
            ):
                marker = (finding.rule, finding.message)
                if marker not in seen_sample:
                    seen_sample.add(marker)
                    diagnostics.append(finding)

    if grid_engine is not None:
        try:
            template = CellSpec.of(None, **axes)
        except ConfigurationError:
            pass  # the chain or sample lint reported why
        else:
            diagnostics += lint_stackdist_coverage(
                geometries,
                spec=template,
                grid_engine=grid_engine,
                cell_timeout=cell_timeout,
                max_cell_accesses=max_cell_accesses,
                injector_active=injector_active,
            )

    if strict:
        return raise_on_errors(diagnostics, "sweep preflight")
    return diagnostics
