"""Static analysis over workload programs, cache configs, and sweeps.

Three layers, all producing the same structured
:class:`~repro.staticcheck.diagnostics.Diagnostic` findings:

* **Program checks** (:mod:`repro.staticcheck.checks`) — CFG and
  dataflow analysis of assembled toy-machine programs: bad control
  targets, unreachable code, uninitialized register reads, stack
  imbalance, out-of-segment memory accesses, provable non-termination.
* **Locality prediction** (:mod:`repro.staticcheck.locality`) —
  code/data footprints and innermost-loop working sets from the CFG,
  cross-checkable against simulated miss-ratio curves.
* **Config lint** (:mod:`repro.staticcheck.configlint` /
  :mod:`repro.staticcheck.preflight`) — cache-geometry, cell-axis and
  sweep-grid validation with stable rule ids: ``CellSpec.of`` refuses
  a malformed axis by rule id, so the runner rejects before
  checkpointing and the HTTP service answers 400 with diagnostics,
  the engine never invoked.
* **Abstract cache analysis** (:mod:`repro.staticcheck.abschain` over
  the L1 domain in :mod:`repro.staticcheck.abscache`) — one must/may
  abstract interpretation that gives every reference site two proofs
  for one concrete geometry and miss-path chain: its L1 class
  (always-hit / always-miss / first-miss / unclassified) and its
  hierarchical class through the chain (victim cache, miss cache,
  stream buffers, backing L2: ``chain-hit@<structure>``,
  ``memory-bound``).  A bare chain gives the single-level proofs.  One
  verifier checks both against a cold chained simulation.

``python -m repro lint`` runs the program analyzer over every bundled
workload program; ``python -m repro classify`` runs the abstract cache
analysis.  See ``docs/staticcheck.md`` for the rule catalogue.
"""

from repro.errors import StaticCheckError
from repro.staticcheck.abscache import SiteClass
from repro.staticcheck.abschain import (
    ChainClassificationReport,
    ChainSiteClass,
    ChainSiteResult,
    ChainVerificationResult,
    classify_chain_program,
    verify_classification,
)
from repro.staticcheck.cfg import BasicBlock, ControlFlowGraph, Loop, build_cfg
from repro.staticcheck.checks import PROGRAM_RULES, check_program
from repro.staticcheck.configlint import (
    CONFIG_RULES,
    lint_cell,
    lint_geometry,
    lint_grid_axes,
    lint_sample,
    lint_sample_coverage,
)
from repro.staticcheck.diagnostics import (
    Diagnostic,
    Severity,
    error_count,
    format_diagnostics,
    raise_on_errors,
)
from repro.staticcheck.locality import (
    FootprintReport,
    LocalityComparison,
    LoopSummary,
    compare_with_sweep,
    footprint,
    knee_net,
)
from repro.staticcheck.phases import (
    DEFAULT_K,
    Phase,
    PhasePlan,
    SamplingConfig,
    analyze_trace,
)
from repro.staticcheck.preflight import preflight_sweep

__all__ = [
    "SiteClass",
    "ChainClassificationReport",
    "ChainSiteClass",
    "ChainSiteResult",
    "ChainVerificationResult",
    "classify_chain_program",
    "verify_classification",
    "BasicBlock",
    "ControlFlowGraph",
    "Loop",
    "build_cfg",
    "check_program",
    "PROGRAM_RULES",
    "CONFIG_RULES",
    "lint_cell",
    "lint_geometry",
    "lint_grid_axes",
    "lint_sample",
    "lint_sample_coverage",
    "DEFAULT_K",
    "Phase",
    "PhasePlan",
    "SamplingConfig",
    "analyze_trace",
    "Diagnostic",
    "Severity",
    "StaticCheckError",
    "error_count",
    "format_diagnostics",
    "raise_on_errors",
    "FootprintReport",
    "LocalityComparison",
    "LoopSummary",
    "compare_with_sweep",
    "footprint",
    "knee_net",
    "preflight_sweep",
]
