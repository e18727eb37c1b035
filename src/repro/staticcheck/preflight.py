"""Fail-fast sweep preflight for the resilient runner.

Before :func:`repro.runner.runner.run_sweep` creates its checkpoint
writer or touches an engine, it hands the sweep's inputs here.  The
point is to move failure from *deep inside the campaign* to *before it
starts*: a misspelled replacement policy used to fail the first cell
after the checkpoint file was already truncated — and in lenient mode
it would silently skip **every** cell, burning the whole sweep to
produce a table of NaNs.

The cell axes go through :func:`~repro.staticcheck.configlint.lint_cell`,
the gate :meth:`~repro.engine.batch.CellSpec.of` also runs, here with
the sweep's shapes and trace lengths as context; preflight adds the
trace checks below.
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

from typing import Any, List, Sequence

from repro.core.config import CacheGeometry
from repro.staticcheck.configlint import lint_cell
from repro.staticcheck.diagnostics import Diagnostic, Severity, raise_on_errors

__all__ = ["preflight_sweep"]


def preflight_sweep(
    traces: Sequence[Any],
    geometries: Sequence[CacheGeometry],
    strict: bool = True,
    injector_active: bool = False,
    **axes: Any,
) -> List[Diagnostic]:
    """Validate a sweep's inputs before any cell executes.

    Args:
        traces: The sweep's traces (anything with ``name`` and
            ``__len__``).
        geometries: Already-validated cache shapes (their constructor
            enforces the hard geometry rules).
        axes: The sweep's cell axes as given (the keywords of
            :meth:`~repro.engine.batch.CellSpec.of`), linted by
            :func:`~repro.staticcheck.configlint.lint_cell` against
            every shape and trace length of the sweep, so the chain's
            size-relative warnings and the sample's interval checks
            are reported before any cell runs.
        strict: Raise on error-severity findings (the runner's mode);
            False returns everything for reporting instead.
        injector_active: Whether a fault injector wraps the traces,
            which the route planner weighs for the sample fallbacks.

    Raises:
        StaticCheckError: With the full diagnostic list, when ``strict``
            and any finding is an error.

    Returns:
        All findings (warnings only, under ``strict``).
    """
    diagnostics = lint_cell(
        axes,
        geometries,
        [len(trace) for trace in traces],
        injector_active=injector_active,
        source="sweep",
    )

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

    if strict:
        return raise_on_errors(diagnostics, "sweep preflight")
    return diagnostics
