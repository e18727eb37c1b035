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
* **Abstract cache analysis** (:mod:`repro.staticcheck.abscache`) —
  must/may abstract interpretation classifying every reference site as
  always-hit / always-miss / first-miss / unclassified for one concrete
  geometry, differentially verified against the simulator.
* **Hierarchical chain analysis** (:mod:`repro.staticcheck.abschain`) —
  the same fixpoint lifted through the miss-path chain (victim cache,
  miss cache, stream buffers, backing L2): per-site hierarchical
  proofs (``chain-hit@<structure>``, ``memory-bound``), differentially
  verified against a cold chained simulation.

``python -m repro lint`` runs the program analyzer over every bundled
workload program; ``python -m repro classify`` runs the abstract cache
analysis.  See ``docs/staticcheck.md`` for the rule catalogue.
"""

from repro.errors import StaticCheckError
from repro.staticcheck.abscache import (
    ClassificationReport,
    SiteClass,
    SiteResult,
    VerificationResult,
    classify_program,
    predict_knee,
    verify_classification,
)
from repro.staticcheck.abschain import (
    ChainClassificationReport,
    ChainSiteClass,
    ChainSiteResult,
    ChainVerificationResult,
    classify_chain_program,
    verify_chain_classification,
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
    "ClassificationReport",
    "SiteClass",
    "SiteResult",
    "VerificationResult",
    "classify_program",
    "predict_knee",
    "verify_classification",
    "ChainClassificationReport",
    "ChainSiteClass",
    "ChainSiteResult",
    "ChainVerificationResult",
    "classify_chain_program",
    "verify_chain_classification",
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
