"""Resilient experiment execution: checkpointed sweeps, retry budgets,
timeouts, and fault injection.

The public surface is :class:`~repro.runner.runner.RunnerConfig` and
:func:`~repro.runner.runner.run_sweep`, which
:func:`repro.analysis.sweep.sweep` and the experiment drivers build on.
See ``docs/resilience.md`` for the architecture and the checkpoint
format.
"""

from repro.runner.chaos import run_chaos
from repro.runner.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    sweep_fingerprint,
)
from repro.runner.faults import FaultInjector, FaultyTrace, SweepAborted, corrupt_din
from repro.runner.health import Breaker, CellOutcome, CellStatus, RunReport
from repro.runner.retry import RetryPolicy, call_with_retry
from repro.runner.runner import RunnerConfig, cell_key, run_sweep

__all__ = [
    "Breaker",
    "CellOutcome",
    "CellStatus",
    "CheckpointWriter",
    "FaultInjector",
    "FaultyTrace",
    "RetryPolicy",
    "RunReport",
    "RunnerConfig",
    "SweepAborted",
    "call_with_retry",
    "cell_key",
    "corrupt_din",
    "load_checkpoint",
    "run_chaos",
    "run_sweep",
    "sweep_fingerprint",
]
