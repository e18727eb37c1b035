"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
prints it (run with ``pytest benchmarks/ --benchmark-only -s`` to see
the output), records shape-agreement statistics against the published
numbers in ``benchmark.extra_info``, and asserts the headline
qualitative claims.

Trace length comes from ``REPRO_TRACE_LEN`` (default 30 000 here; the
paper used 1 000 000 — a full-length run reproduces the same shapes,
just more slowly).  Suite traces and figure sweeps are memoized across
benchmark files, so the whole directory shares one generation pass.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.analysis.experiments import figure_experiment
from repro.analysis.sweep import SweepPoint


def bench_length() -> int:
    """Trace length for benchmark runs (env ``REPRO_TRACE_LEN``).

    At the default a full `pytest benchmarks/ --benchmark-only` run
    takes about 40 s on a 2-vCPU host; the paper's 1 M-reference scale
    is ``REPRO_TRACE_LEN=1000000``.
    """
    return int(os.environ.get("REPRO_TRACE_LEN", "30000"))


_FIGURE_MEMO: Dict[Tuple[str, Tuple[int, ...], int], Dict[int, List[SweepPoint]]] = {}


def figure_results(arch: str, nets: Tuple[int, ...], length: int):
    """Memoized figure sweep shared between figure benchmarks.

    Figures 1/2 and 7/8 plot the same simulations under different bus
    cost models; the sweep runs once.
    """
    key = (arch, tuple(nets), length)
    if key not in _FIGURE_MEMO:
        _FIGURE_MEMO[key] = figure_experiment(arch, nets, length=length)
    return _FIGURE_MEMO[key]


@pytest.fixture
def trace_length() -> int:
    return bench_length()
