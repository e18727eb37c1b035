"""Chaos harness: prove the resilience layer on a live sweep.

``python -m repro chaos`` runs four scripted disaster scenarios against
a real (small) z8000 sweep and checks the runner's contract:

* **resume** — a sweep killed mid-run by an injected crash resumes
  from its checkpoint and reproduces the uninterrupted run
  byte-identically;
* **retry** — a cell that fails transiently twice succeeds on the
  third attempt and changes nothing in the results;
* **retry-budget** — a cell that never stops failing exhausts the
  configured budget and surfaces the original error;
* **partial** — a suite with one persistently failing trace still
  yields averages over the survivors, with the skipped trace named
  on every affected point;
* **timeout** — a stalled cell trips the wall-clock budget and is
  skipped as :class:`~repro.errors.CellTimeoutError`.

Everything is seeded; two chaos runs on one machine print the same
report.  The CI workflow runs ``chaos --quick`` on every push.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, List, Optional

from repro.engine.base import DEADLINE_CHECK_EVERY
from repro.errors import TransientError
from repro.runner.faults import FaultInjector, SweepAborted
from repro.runner.retry import RetryPolicy
from repro.runner.runner import RunnerConfig, cell_key, run_sweep
from repro.workloads.suites import suite_traces

__all__ = ["run_chaos", "points_digest"]

_NO_SLEEP = lambda seconds: None  # noqa: E731 - chaos never waits for backoff


def points_digest(points) -> str:
    """Exact textual form of sweep results, for byte-identity checks.

    Uses ``repr`` floats, which round-trip IEEE doubles exactly: two
    digests are equal iff the results are bit-identical.
    """
    lines = []
    for point in points:
        lines.append(
            f"{point.geometry.net_size}:{point.label} "
            f"{point.miss_ratio!r} {point.traffic_ratio!r} "
            f"{point.scaled_traffic_ratio!r} skipped={list(point.skipped_traces)}"
        )
        for name in sorted(point.per_trace):
            lines.append(f"  {name} {point.per_trace[name]!r}")
    return "\n".join(lines)


def run_chaos(
    quick: bool = False,
    seed: int = 0,
    checkpoint_dir: Optional[str] = None,
    out: Callable[[str], None] = print,
    engine: str = "auto",
) -> int:
    """Run every chaos scenario; return 0 if all hold, 1 otherwise.

    Args:
        quick: Use the smallest credible sweep (2 traces, one net
            size, 2 000 references) — the CI smoke configuration.
        seed: Seeds fault placement and retry jitter.
        checkpoint_dir: Where scenario checkpoints are written (kept
            for post-mortem); a temporary directory when omitted.
        out: Line sink, injectable for tests.
        engine: Simulation engine for every scenario sweep.  Fault-
            injected cells run on the reference engine unless
            ``checked`` is asked for (their traces are per-access
            proxies); the equivalence contract is what keeps the
            byte-identity checks green when healthy cells run
            vectorized.
    """
    # Imported here: the analysis layer builds on the runner, and the
    # service's workers import the runner without needing analysis.
    from repro.analysis.sweep import geometry_grid

    length = 2_000 if quick else 8_000
    nets = [64] if quick else [64, 256]
    ckdir = Path(
        checkpoint_dir
        if checkpoint_dir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    ckdir.mkdir(parents=True, exist_ok=True)

    traces = suite_traces("z8000", length=length, names=("GREP", "SORT"))
    geometries = [g for net in nets for g in geometry_grid([net])]
    out(
        f"chaos: {len(traces)} traces x {len(geometries)} geometries "
        f"({length} refs), engine {engine}, checkpoints in {ckdir}"
    )

    def config(**kwargs) -> RunnerConfig:
        return RunnerConfig(engine=engine, **kwargs)

    baseline, _ = run_sweep(traces, geometries, word_size=2, config=config())
    baseline_digest = points_digest(baseline)
    failures: List[str] = []

    def check(scenario: str, ok: bool, detail: str = "") -> None:
        out(f"  [{'PASS' if ok else 'FAIL'}] {scenario}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(scenario)

    # -- Scenario 1: kill mid-sweep, resume from checkpoint ---------------
    ck = ckdir / "resume.jsonl"
    crash_config = config(
        checkpoint=ck,
        injector=FaultInjector(abort_after=max(len(geometries) // 2, 1)),
        sleep=_NO_SLEEP,
    )
    crashed = False
    try:
        run_sweep(traces, geometries, word_size=2, config=crash_config)
    except SweepAborted:
        crashed = True
    resumed, resume_report = run_sweep(
        traces, geometries, word_size=2,
        config=config(checkpoint=ck, resume=True, sleep=_NO_SLEEP),
    )
    check(
        "resume",
        crashed
        and resume_report.resumed > 0
        and points_digest(resumed) == baseline_digest,
        f"{resume_report.resumed} cells replayed from checkpoint, "
        "output byte-identical",
    )

    # -- Scenario 2: transient failures are retried away ------------------
    flaky_key = cell_key(geometries[0], traces[0].name)
    retried, retry_report = run_sweep(
        traces, geometries, word_size=2,
        config=config(
            retry=RetryPolicy(max_retries=3),
            injector=FaultInjector(
                error_cells=(flaky_key,), error_at=50, fail_attempts=2,
            ),
            seed=seed,
            sleep=_NO_SLEEP,
        ),
    )
    check(
        "retry",
        retry_report.retried == 1
        and points_digest(retried) == baseline_digest,
        "flaky cell recovered on attempt 3, output unchanged",
    )

    # -- Scenario 3: the retry budget actually stops ----------------------
    stubborn = FaultInjector(
        error_cells=(flaky_key,), error_at=50, fail_attempts=None,
    )
    budget_hit = False
    try:
        run_sweep(
            traces, geometries, word_size=2,
            config=config(
                retry=RetryPolicy(max_retries=2),
                injector=stubborn,
                seed=seed,
                sleep=_NO_SLEEP,
            ),
        )
    except TransientError:
        budget_hit = True
    check(
        "retry-budget",
        budget_hit and stubborn._attempts.get(flaky_key) == 3,
        "persistent fault surfaced after 1 try + 2 retries",
    )

    # -- Scenario 4: one corrupt trace degrades gracefully ----------------
    bad_trace = traces[0].name
    partial, partial_report = run_sweep(
        traces, geometries, word_size=2,
        config=config(
            lenient=True,
            injector=FaultInjector(
                error_cells=(f"*/{bad_trace}",), error_at=0,
                fail_attempts=None,
            ),
            sleep=_NO_SLEEP,
        ),
    )
    survivors = [name for name in (t.name for t in traces) if name != bad_trace]
    partial_ok = all(
        point.skipped_traces == (bad_trace,)
        and sorted(point.per_trace) == survivors
        for point in partial
    ) and bad_trace in partial_report.skipped_by_trace()
    check(
        "partial",
        partial_ok,
        f"suite average degraded to {survivors}, skip of {bad_trace!r} "
        "named on every point",
    )

    # -- Scenario 5: a stalled cell trips the timeout ---------------------
    stalled_key = cell_key(geometries[-1], traces[-1].name)
    # The checked engine asserts invariants per access (~10x slower), so
    # healthy cells need a wider budget.  The engine reads the clock
    # every DEADLINE_CHECK_EVERY accesses; that many stalls (a sleep
    # never returns early) outlast the budget twofold.
    cell_timeout = 1.0 if engine == "checked" else 0.05
    stall_seconds = 2 * cell_timeout / DEADLINE_CHECK_EVERY
    timed, timeout_report = run_sweep(
        traces, geometries, word_size=2,
        config=config(
            lenient=True,
            cell_timeout=cell_timeout,
            injector=FaultInjector(
                stall_cells=(stalled_key,), stall_seconds=stall_seconds,
            ),
            sleep=_NO_SLEEP,
        ),
    )
    timeouts = [
        o for o in timeout_report.skipped if "CellTimeoutError" in o.reason
    ]
    check(
        "timeout",
        len(timeouts) == 1 and timeouts[0].key == stalled_key,
        "stalled cell skipped by the wall-clock budget",
    )

    if failures:
        out(f"chaos: {len(failures)} scenario(s) failed: {', '.join(failures)}")
        return 1
    out("chaos: all scenarios passed")
    return 0
