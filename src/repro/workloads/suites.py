"""The trace suites mirroring the paper's Tables 2–5 (and Table 6's
mainframe workload).

Every paper trace name maps to a :class:`TraceSpec`: either a toy-
machine program with parameters chosen to match the trace's character
(e.g. ``grep`` -> string search, ``sort`` -> quicksort, ``nroff`` ->
text reflow), or a synthetic locality profile for the large programs a
toy workload cannot credibly occupy (the System/370 jobs "using
hundreds of kilobytes of storage").

Working-set scales follow the paper's Section 4.2.5 explanation of the
inter-architecture ordering: Z8000 tightest, then PDP-11, VAX-11, and
System/370 largest.  Generated traces are cached per
``(suite, trace, length)``, since suite generation is the expensive
step of every experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.trace.record import Trace
from repro.workloads.architectures import get_architecture
from repro.workloads.generator import program_trace, synthetic_trace
from repro.workloads.synthetic import SyntheticProfile

__all__ = [
    "TraceSpec",
    "SUITES",
    "Z8000_FIGURE_TRACES",
    "Z8000_LOADFORWARD_TRACES",
    "suite_names",
    "suite_specs",
    "suite_trace",
    "suite_traces",
    "clear_trace_cache",
    "default_trace_length",
]


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for one named trace of a suite."""

    name: str
    arch: str
    program: str = ""  # toy-machine program; empty means synthetic
    params: Dict[str, int] = field(default_factory=dict)
    profile: Optional[SyntheticProfile] = None
    seed: int = 0

    def build(self, length: int) -> Trace:
        """Generate this trace with ``length`` references."""
        word = get_architecture(self.arch).word_size
        if self.program:
            return program_trace(
                self.program,
                length,
                word_size=word,
                seed=self.seed,
                name=self.name,
                **self.params,
            )
        if self.profile is None:
            raise ConfigurationError(
                f"trace spec {self.name!r} has neither a program nor a profile"
            )
        return synthetic_trace(
            self.profile, length, word_size=word, seed=self.seed, name=self.name
        )


# -- Synthetic profiles per working-set scale ----------------------------

_PDP11_OS = SyntheticProfile(
    code_words=6000, n_procs=24, global_words=4000, stream_words=2000,
    n_streams=2, p_global_reuse=0.60, p_loop=0.40, loop_iters=20, loop_body=12,
)

_PDP11_SIMP = SyntheticProfile(
    code_words=4000, n_procs=16, global_words=2500, stream_words=2000,
    n_streams=2, w_stack=0.25, w_global=0.40, w_stream=0.35,
    p_global_reuse=0.70, mean_run=8.0, p_loop=0.40, loop_iters=20, loop_body=12,
)

_VAX_COMPILER = SyntheticProfile(
    code_words=12000, n_procs=40, global_words=8000, stream_words=5000,
    n_streams=2, p_global_reuse=0.68, mean_run=7.0,
    p_loop=0.44, loop_iters=22, loop_body=14,
)

_VAX_NUMERIC = SyntheticProfile(
    code_words=9000, n_procs=24, global_words=7000, stream_words=6000,
    n_streams=3, w_stack=0.20, w_global=0.40, w_stream=0.40,
    p_global_reuse=0.70, mean_run=9.0, p_loop=0.44, loop_iters=22, loop_body=14,
)

_VAX_SYMBOL = SyntheticProfile(
    code_words=11000, n_procs=32, global_words=9000, stream_words=4000,
    n_streams=2, w_stack=0.25, w_global=0.50, w_stream=0.25,
    p_global_reuse=0.66, p_loop=0.44, loop_iters=22, loop_body=14,
)

_S370_NUMERIC = SyntheticProfile(
    code_words=24000, n_procs=30, global_words=20000, stream_words=24000,
    n_streams=4, w_stack=0.15, w_global=0.35, w_stream=0.50,
    p_global_reuse=0.60, mean_run=8.0, p_loop=0.35, loop_iters=16,
)

_S370_COMPILER = SyntheticProfile(
    code_words=48000, n_procs=80, global_words=40000, stream_words=12000,
    n_streams=3, w_stack=0.25, w_global=0.50, w_stream=0.25,
    p_global_reuse=0.55, hot_globals=48, p_loop=0.35, loop_iters=16,
)

_S370_PLI = SyntheticProfile(
    code_words=36000, n_procs=60, global_words=32000, stream_words=16000,
    n_streams=3, w_stack=0.20, w_global=0.45, w_stream=0.35,
    p_global_reuse=0.55, p_loop=0.35, loop_iters=16,
)

# The Table 6 (360/85 comparison) workload family: strong temporal
# locality (a 16 KiB set-associative cache hits ~99% of the time) but
# with the hot words *scattered* over a large address span, so the
# sixteen 1024-byte sectors of the 360/85 thrash.  Three variants model
# the go-steps and the compile of the paper's six-trace workload.
_MAINFRAME_GO = SyntheticProfile(
    code_words=4000, n_procs=16, global_words=60000, stream_words=4000,
    n_streams=2, w_stack=0.25, w_global=0.55, w_stream=0.20,
    p_global_reuse=0.95, hot_globals=200,
    p_loop=0.60, loop_iters=70, loop_body=20, mean_run=8.0,
)

_MAINFRAME_COMPILE = SyntheticProfile(
    code_words=6000, n_procs=24, global_words=40000, stream_words=4000,
    n_streams=2, w_stack=0.25, w_global=0.55, w_stream=0.20,
    p_global_reuse=0.93, hot_globals=150,
    p_loop=0.55, loop_iters=45, loop_body=18, mean_run=8.0,
)

_MAINFRAME_PLI = SyntheticProfile(
    code_words=5000, n_procs=20, global_words=50000, stream_words=4000,
    n_streams=2, w_stack=0.25, w_global=0.55, w_stream=0.20,
    p_global_reuse=0.94, hot_globals=170,
    p_loop=0.58, loop_iters=55, loop_body=18, mean_run=8.0,
)


# -- The suites -----------------------------------------------------------

SUITES: Dict[str, List[TraceSpec]] = {
    # Table 2: PDP-11 workload.
    "pdp11": [
        TraceSpec("OPSYS", "pdp11", profile=_PDP11_OS, seed=11),
        TraceSpec("PLOT", "pdp11", program="matmul", params={"n": 24}, seed=12),
        TraceSpec("SIMP", "pdp11", profile=_PDP11_SIMP, seed=13),
        TraceSpec(
            "TRACE", "pdp11", program="tree",
            params={"n": 350, "m": 2000}, seed=14,
        ),
        TraceSpec(
            "ROFF", "pdp11", program="format_text", params={"tlen": 9000}, seed=15,
        ),
        TraceSpec(
            "ED", "pdp11", program="strsearch",
            params={"tlen": 8000, "plen": 4}, seed=16,
        ),
    ],
    # Table 3: Z8000 workload (compact UNIX utilities).
    "z8000": [
        TraceSpec("CPP", "z8000", program="tokenize", params={"tlen": 6000, "tsize": 256}, seed=21),
        TraceSpec("C1", "z8000", program="tokenize", params={"tlen": 5000, "tsize": 256}, seed=22),
        TraceSpec("C2", "z8000", program="bubble", params={"n": 600}, seed=23),
        TraceSpec("OD", "z8000", program="wordcount", params={"tlen": 6000}, seed=24),
        TraceSpec(
            "GREP", "z8000", program="strsearch",
            params={"tlen": 4000, "plen": 4}, seed=25,
        ),
        TraceSpec("SORT", "z8000", program="qsort", params={"n": 1600}, seed=26),
        TraceSpec(
            "LS", "z8000", program="linklist",
            params={"n": 700, "repeats": 60}, seed=27,
        ),
        TraceSpec("NM", "z8000", program="tree", params={"n": 900, "m": 2400}, seed=28),
        TraceSpec(
            "NROFF", "z8000", program="format_text", params={"tlen": 4000}, seed=29,
        ),
    ],
    # Table 4: VAX-11 workload (mixed small and large).
    "vax": [
        TraceSpec("spice", "vax", profile=_VAX_NUMERIC, seed=31),
        TraceSpec("otmdl", "vax", profile=_VAX_SYMBOL, seed=32),
        TraceSpec(
            "sedx", "vax", program="strsearch",
            params={"tlen": 24000, "plen": 5}, seed=33,
        ),
        TraceSpec("qsort", "vax", program="qsort", params={"n": 18000}, seed=34),
        TraceSpec(
            "troff", "vax", program="format_text", params={"tlen": 22000}, seed=35,
        ),
        TraceSpec("c2", "vax", profile=_VAX_COMPILER, seed=36),
    ],
    # Table 5: System/370 workload (large memory-intensive jobs).
    "s370": [
        TraceSpec("FGO1", "s370", profile=_S370_NUMERIC, seed=41),
        TraceSpec("FCOMP1", "s370", profile=_S370_COMPILER, seed=42),
        TraceSpec("PGO1", "s370", profile=_S370_PLI, seed=43),
        TraceSpec("PGO2", "s370", profile=_S370_PLI, seed=44),
    ],
    # Table 6's 360/85 study workload: "1 Fortran Go Step, 1 Fortran
    # Compile, 2 Cobol Go Steps, and 2 PL/I Go Steps".
    "mainframe": [
        TraceSpec("FGO", "mainframe", profile=_MAINFRAME_GO, seed=51),
        TraceSpec("FCOMP", "mainframe", profile=_MAINFRAME_COMPILE, seed=52),
        TraceSpec("CGO1", "mainframe", profile=_MAINFRAME_GO, seed=53),
        TraceSpec("CGO2", "mainframe", profile=_MAINFRAME_GO, seed=54),
        TraceSpec("PGO1", "mainframe", profile=_MAINFRAME_PLI, seed=55),
        TraceSpec("PGO2", "mainframe", profile=_MAINFRAME_PLI, seed=56),
    ],
}

#: The paper's Figures 3/4 use "the last five traces in Table 3".
Z8000_FIGURE_TRACES = ("GREP", "SORT", "LS", "NM", "NROFF")

#: Section 4.4 studies load-forward "with traces CPP, C1 and C2".
Z8000_LOADFORWARD_TRACES = ("CPP", "C1", "C2")

_CACHE: Dict[Tuple[str, str, int], Trace] = {}


def suite_names() -> List[str]:
    """Names of the available suites."""
    return sorted(SUITES)


def suite_specs(suite: str) -> List[TraceSpec]:
    """The trace specs of one suite.

    Raises:
        ConfigurationError: For an unknown suite name.
    """
    key = suite.lower()
    if key not in SUITES:
        raise ConfigurationError(
            f"unknown suite {suite!r}; choose from {suite_names()}"
        )
    return list(SUITES[key])


def suite_trace(suite: str, trace_name: str, length: int = 200_000) -> Trace:
    """Generate (or fetch from cache) one named trace of a suite."""
    for spec in suite_specs(suite):
        if spec.name == trace_name:
            key = (suite.lower(), trace_name, length)
            if key not in _CACHE:
                _CACHE[key] = spec.build(length)
            return _CACHE[key]
    raise ConfigurationError(
        f"suite {suite!r} has no trace {trace_name!r}; it has "
        f"{[spec.name for spec in suite_specs(suite)]}"
    )


def suite_traces(
    suite: str, length: int = 200_000, names: Optional[Tuple[str, ...]] = None
) -> List[Trace]:
    """Generate every trace of a suite (or the named subset, in order)."""
    specs = suite_specs(suite)
    if names is not None:
        wanted = {name: index for index, name in enumerate(names)}
        specs = sorted(
            (spec for spec in specs if spec.name in wanted),
            key=lambda spec: wanted[spec.name],
        )
        missing = set(names) - {spec.name for spec in specs}
        if missing:
            raise ConfigurationError(
                f"suite {suite!r} lacks traces {sorted(missing)}"
            )
    return [suite_trace(suite, spec.name, length) for spec in specs]


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _CACHE.clear()


def default_trace_length() -> int:
    """Trace length for experiments and served queries (env
    ``REPRO_TRACE_LEN``, default 100 000)."""
    value = os.environ.get("REPRO_TRACE_LEN", "")
    if value:
        try:
            parsed = int(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"REPRO_TRACE_LEN must be an integer, got {value!r}"
            ) from exc
        if parsed < 1:
            raise ConfigurationError(
                f"REPRO_TRACE_LEN must be >= 1, got {parsed}"
            )
        return parsed
    return 100_000
