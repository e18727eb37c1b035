"""Workload substrate: the stand-in for the paper's 1984 traces.

Two generators produce address traces with calibrated locality:

* A **toy register machine** (:mod:`repro.workloads.machine`) executing
  real algorithms written in a small assembly language
  (:mod:`repro.workloads.programs`) — sorting, searching, formatting,
  symbol tables — each verified to compute the right answer.
* A **statistical locality model**
  (:mod:`repro.workloads.synthetic`) for the large programs of the
  VAX-11 / System/370 suites.

:mod:`repro.workloads.suites` maps every trace name of the paper's
Tables 2–5 to one of these generators.
"""

from repro.workloads.architectures import ARCHITECTURES, ArchProfile, get_architecture
from repro.workloads.assembler import AssembledProgram, assemble
from repro.workloads.generator import assemble_program, program_trace, synthetic_trace
from repro.workloads.machine import Machine, MachineResult
from repro.workloads.programs import PROGRAMS, ProgramSpec
from repro.workloads.suites import (
    SUITES,
    Z8000_FIGURE_TRACES,
    Z8000_LOADFORWARD_TRACES,
    TraceSpec,
    clear_trace_cache,
    suite_names,
    suite_specs,
    suite_trace,
    suite_traces,
)
from repro.workloads.synthetic import SyntheticProfile, generate_synthetic

__all__ = [
    "ARCHITECTURES",
    "ArchProfile",
    "get_architecture",
    "AssembledProgram",
    "assemble",
    "assemble_program",
    "program_trace",
    "synthetic_trace",
    "Machine",
    "MachineResult",
    "PROGRAMS",
    "ProgramSpec",
    "SUITES",
    "TraceSpec",
    "Z8000_FIGURE_TRACES",
    "Z8000_LOADFORWARD_TRACES",
    "clear_trace_cache",
    "suite_names",
    "suite_specs",
    "suite_trace",
    "suite_traces",
    "SyntheticProfile",
    "generate_synthetic",
]
