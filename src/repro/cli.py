"""Command-line interface: regenerate the paper's results from a shell.

Usage (after ``pip install -e .``)::

    python -m repro table6 [--length N]
    python -m repro table7 {pdp11,z8000,vax,s370} [--length N]
    python -m repro table8 [--length N]
    python -m repro figure {1,2,3,4,5,6,7,8} [--length N]
    python -m repro riscii [--length N]
    python -m repro suites
    python -m repro trace SUITE NAME [--length N] [--out FILE.din]
    python -m repro chaos [--quick] [--serve [--out FILE] [--budget S]]
    python -m repro serve [--host H] [--port P] [--supervised]
                          [--store-dir DIR]
    python -m repro lint [--format json] [--strict] [--misspath JSON]
    python -m repro classify PROGRAM [--net N] [--format json] [--verify]
    python -m repro phases PROGRAM [--interval N] [--k N] [--format json]
    python -m repro --version

``--length`` defaults to the ``REPRO_TRACE_LEN`` environment variable
or 100 000 references (the paper used 1 000 000).

The sweep-backed commands (``table7``, ``table8``, ``figure``) accept
resilience flags — ``--checkpoint FILE`` / ``--resume`` to survive
interruption, ``--max-retries`` / ``--cell-timeout`` to bound flaky or
runaway cells, and ``--lenient`` to degrade to partial suite averages
instead of failing; see ``docs/resilience.md``.  They also accept
execution flags — ``--engine {auto,reference,vectorized,checked}`` to
pick the simulation engine, ``--sanitize`` as a shorthand for the
``checked`` (per-access invariant-asserting) engine, ``--jobs N``
to fan cells out over worker processes (see ``docs/engines.md``), and
``--sample INTERVAL[,K]`` for representative-interval sampled
simulation with error bounds (``phases`` previews the plan; see
``docs/sampling.md``).
``chaos`` runs the fault-injection scenarios that prove the resilience
guarantees, under any engine.  ``serve`` starts the interactive HTTP
query service with its result cache, request coalescing, and admission
control; see ``docs/service.md``.  ``lint`` runs the static analyzer
(:mod:`repro.staticcheck`) over every bundled workload program —
CFG/dataflow program checks plus locality footprints — and exits
non-zero on error-severity findings.  ``classify`` runs the must/may
abstract-interpretation cache analysis over one bundled program,
optionally differentially verifying it against the simulator
(``--verify``); see ``docs/staticcheck.md`` for both JSON schemas and
the exit codes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.experiments import (
    FIGURE_NETS,
    default_trace_length,
    figure_experiment,
    table6_experiment,
    table7_experiment,
    table8_experiment,
)
from repro.analysis.figures import figure_series, series_to_csv
from repro.analysis.plotting import ascii_figure
from repro.analysis.tables import format_table6, format_table7, format_table8
from repro.engine.base import ENGINE_NAMES
from repro.engine.route import GRID_ENGINE_NAMES
from repro.runner.retry import RetryPolicy
from repro.runner.runner import RunnerConfig
from repro.trace.writer import write_din
from repro.workloads.suites import suite_names, suite_specs, suite_trace

__all__ = ["main"]

#: Figure number -> (architecture, net sizes, scaled-traffic?).
_FIGURES = {
    1: ("pdp11", FIGURE_NETS["part1"], False),
    2: ("pdp11", FIGURE_NETS["part2"], False),
    3: ("z8000", FIGURE_NETS["part1"], False),
    4: ("z8000", FIGURE_NETS["part2"], False),
    5: ("vax", FIGURE_NETS["part2"], False),
    6: ("s370", FIGURE_NETS["part2"], False),
    7: ("pdp11", FIGURE_NETS["part1"], True),
    8: ("pdp11", FIGURE_NETS["part2"], True),
}


def _add_resilience_flags(subparser: argparse.ArgumentParser) -> None:
    """Resilient-runner flags shared by the sweep-backed commands."""
    group = subparser.add_argument_group("resilience")
    group.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="JSONL checkpoint; completed cells survive interruption",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="reuse completed cells from --checkpoint instead of restarting",
    )
    group.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retries per cell for transient failures (default 0)",
    )
    group.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per (geometry, trace) cell",
    )
    group.add_argument(
        "--lenient", action="store_true",
        help="skip failing cells and report partial suite averages",
    )
    execution = subparser.add_argument_group("execution")
    execution.add_argument(
        "--engine", default="auto", choices=list(ENGINE_NAMES),
        help="simulation engine per cell (auto picks vectorized for "
             "plain traces; see docs/engines.md)",
    )
    execution.add_argument(
        "--sanitize", action="store_true",
        help="run every cell under the checked engine (per-access "
             "cache-invariant and conservation-law assertions)",
    )
    execution.add_argument(
        "--grid-engine", default="auto", choices=list(GRID_ENGINE_NAMES),
        help="grid-level strategy: auto answers coverable LRU pass "
             "groups from one stack-distance pass per trace, stackdist "
             "forces it, percell disables it (see docs/stackdist.md)",
    )
    execution.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep cells (default 1 = in-process)",
    )
    execution.add_argument(
        "--sample", default=None, metavar="INTERVAL[,K]",
        help="representative-interval sampled simulation: split each "
             "trace into INTERVAL-access intervals, cluster them into "
             "K phases (default 8), and simulate one representative "
             "per phase — ratios become estimates with error bounds "
             "(see docs/sampling.md)",
    )


def _runner_config(args: argparse.Namespace) -> Optional[RunnerConfig]:
    """Build the resilience config from CLI flags; None when inert."""
    if args.resume and args.checkpoint is None:
        raise SystemExit("repro: --resume requires --checkpoint")
    engine = "checked" if args.sanitize else args.engine
    if (
        args.checkpoint is None
        and args.max_retries == 0
        and args.cell_timeout is None
        and not args.lenient
        and engine == "auto"
        and args.grid_engine == "auto"
        and args.jobs == 1
    ):
        return None
    return RunnerConfig(
        retry=RetryPolicy(max_retries=args.max_retries),
        cell_timeout=args.cell_timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
        lenient=args.lenient,
        engine=engine,
        grid_engine=args.grid_engine,
        jobs=args.jobs,
    )


def _warn_partial(points) -> None:
    """Name skipped traces on stderr so partial tables are never silent."""
    skipped = {}
    for point in points:
        for name in point.skipped_traces:
            skipped[name] = skipped.get(name, 0) + 1
    for name, cells in sorted(skipped.items()):
        print(
            f"repro: warning: trace {name!r} skipped in {cells} cell(s); "
            "averages above are partial",
            file=sys.stderr,
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Hill & Smith (ISCA 1984) tables and figures.",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--length",
        type=int,
        default=None,
        help="trace length in references (default: REPRO_TRACE_LEN or 100000)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("table6", help="360/85 sector cache comparison")
    table7 = commands.add_parser("table7", help="miss/traffic table, one architecture")
    table7.add_argument("arch", choices=["pdp11", "z8000", "vax", "s370"])
    _add_resilience_flags(table7)
    table8 = commands.add_parser("table8", help="load-forward results")
    _add_resilience_flags(table8)
    figure = commands.add_parser("figure", help="one of the paper's figures")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an ASCII plot"
    )
    _add_resilience_flags(figure)
    chaos = commands.add_parser(
        "chaos",
        help="fault-injection scenarios proving the resilience guarantees",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="smallest credible sweep (the CI smoke configuration)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault placement seed")
    chaos.add_argument(
        "--serve", action="store_true",
        help="run the service-level scenarios instead (worker kills, "
             "WAL corruption, slow-loris, drain; see docs/service.md)",
    )
    chaos.add_argument(
        "--out", default=None, metavar="FILE",
        help="with --serve: write the JSON scenario report here",
    )
    chaos.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="with --serve: fail if the run exceeds this wall clock",
    )
    chaos.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="keep scenario checkpoints here (default: temp dir)",
    )
    chaos.add_argument(
        "--engine", default="auto",
        choices=list(ENGINE_NAMES),
        help="simulation engine for the scenario sweeps",
    )
    chaos.add_argument(
        "--sanitize", action="store_true",
        help="run the scenario sweeps under the checked engine",
    )
    serve = commands.add_parser(
        "serve",
        help="HTTP simulation service (result cache, coalescing, metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8787, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="simulation worker threads (default 2)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="result-cache memory entries (default 1024)",
    )
    serve.add_argument(
        "--disk-cache", default=None, metavar="FILE",
        help="JSONL disk tier for the result cache (survives restarts)",
    )
    serve.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="crash-safe WAL result store (fsync'd commits, torn-tail "
             "recovery, quarantine); alternative to --disk-cache",
    )
    serve.add_argument(
        "--supervised", action="store_true",
        help="run cells on supervised worker processes (crash isolation, "
             "heartbeats, automatic restarts) instead of threads",
    )
    serve.add_argument(
        "--worker-processes", type=int, default=2, metavar="N",
        help="supervised worker process count (default 2)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=2.0, metavar="SECONDS",
        help="worker silence treated as a hang (default 2.0)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown budget for in-flight work (default 10)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="simulation cells allowed to run concurrently (default 8)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="queries allowed to wait before 429 (default 64)",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=5, metavar="N",
        help="consecutive failures that open the breaker (0 disables)",
    )
    serve.add_argument(
        "--engine", default=None,
        choices=list(ENGINE_NAMES),
        help="force one engine for every query (default: per-query; "
             "checked opts the whole service into sanitized execution)",
    )
    serve.add_argument(
        "--grid-engine", default="auto", choices=list(GRID_ENGINE_NAMES),
        help="answer batched LRU pass groups from one stack-distance "
             "pass (auto), force it (stackdist), or disable it (percell)",
    )
    serve.add_argument(
        "--allow-sampling", action="store_true",
        help="serve queries carrying a 'sample' axis (representative-"
             "interval estimates, clearly marked exact: false; refused "
             "by default and incompatible with --supervised)",
    )
    serve.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error"],
        help="structured request-log verbosity",
    )
    lint = commands.add_parser(
        "lint",
        help="static analysis of the bundled workload programs",
    )
    lint.add_argument(
        "--format", dest="fmt", default="text", choices=["text", "json"],
        help="report format (json is what the CI gate parses)",
    )
    lint.add_argument(
        "--word", type=int, default=2, choices=[2, 4],
        help="data-path width to assemble for (default 2)",
    )
    lint.add_argument(
        "--programs", nargs="+", default=None, metavar="NAME",
        help="lint only these programs (default: every bundled program)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors",
    )
    lint.add_argument(
        "--misspath", default=None, metavar="JSON",
        help="also lint a miss-path chain config (JSON object with "
             "victim_entries/miss_entries/stream_buffers/l2_* keys; "
             "see docs/misspath.md)",
    )
    lint.add_argument(
        "--sweep-coverage", nargs="+", type=int, default=None, metavar="NET",
        help="also report one-pass (stack-distance) coverage of the "
             "paper's geometry grid at these net sizes — info-level "
             "sweep-stackdist-* rules (see docs/stackdist.md)",
    )
    lint.add_argument(
        "--sample", default=None, metavar="INTERVAL[,K]",
        help="with --sweep-coverage: also report which cells of the "
             "grid a sampled sweep would estimate — info-level "
             "sweep-sample-* rules (see docs/sampling.md)",
    )
    phases = commands.add_parser(
        "phases",
        help="static phase analysis of one bundled program's trace",
    )
    phases.add_argument("program", help="bundled program name (see lint)")
    phases.add_argument("--word", type=int, default=2, choices=[2, 4],
                        help="data-path width to assemble for (default 2)")
    phases.add_argument(
        "--interval", type=int, default=2000, metavar="N",
        help="interval length in accesses (default 2000)",
    )
    phases.add_argument(
        "--k", type=int, default=None, metavar="N",
        help="phase count (default: min(8, interval count))",
    )
    phases.add_argument(
        "--seed", type=int, default=0, help="clustering seed (default 0)"
    )
    phases.add_argument(
        "--format", dest="fmt", default="text", choices=["text", "json"],
        help="report format",
    )
    classify = commands.add_parser(
        "classify",
        help="must/may abstract-interpretation cache analysis of one program",
    )
    classify.add_argument("program", help="bundled program name (see lint)")
    classify.add_argument("--net", type=int, default=1024, help="net size (bytes)")
    classify.add_argument("--block", type=int, default=16, help="block size")
    classify.add_argument("--sub", type=int, default=None, help="sub-block size")
    classify.add_argument("--assoc", type=int, default=4, help="associativity")
    classify.add_argument("--word", type=int, default=2, choices=[2, 4],
                          help="data-path width to assemble for (default 2)")
    classify.add_argument(
        "--fetch",
        default="demand",
        choices=["demand", "load-forward", "load-forward-optimized"],
    )
    classify.add_argument(
        "--stack-words", type=int, default=4096, metavar="N",
        help="machine stack capacity the analysis assumes (default 4096)",
    )
    classify.add_argument(
        "--format", dest="fmt", default="text", choices=["text", "json"],
        help="report format",
    )
    classify.add_argument(
        "--verify", action="store_true",
        help="differentially check the classification against an actual "
             "machine run through the simulator (exit 1 on any violation)",
    )
    classify_chain = classify.add_argument_group(
        "miss path",
        "optional structures between an L1 miss and memory; the "
        "analysis lifts its must/may proofs through the chain and "
        "bounds each structure's counters (see docs/staticcheck.md)",
    )
    classify_chain.add_argument(
        "--victim-entries", type=int, default=0, metavar="N",
        help="fully-associative victim cache entries (holds L1 evictions)",
    )
    classify_chain.add_argument(
        "--miss-entries", type=int, default=0, metavar="N",
        help="tag-only miss cache entries",
    )
    classify_chain.add_argument(
        "--stream-buffers", type=int, default=0, metavar="N",
        help="sequential-prefetch stream buffers",
    )
    classify_chain.add_argument(
        "--stream-depth", type=int, default=4, metavar="N",
        help="prefetch FIFO depth per stream buffer (default 4)",
    )
    classify_chain.add_argument(
        "--l2-net", type=int, default=0, metavar="BYTES",
        help="backing L2 net size (0 = no L2)",
    )
    classify_chain.add_argument(
        "--l2-block", type=int, default=0, metavar="BYTES",
        help="L2 block size (default: the L1 block size)",
    )
    classify_chain.add_argument(
        "--l2-sub", type=int, default=0, metavar="BYTES",
        help="L2 sub-block size (default: the L2 block size)",
    )
    classify_chain.add_argument(
        "--l2-assoc", type=int, default=4, metavar="N",
        help="L2 associativity (default 4)",
    )
    commands.add_parser("riscii", help="RISC II instruction-cache results")
    commands.add_parser("suites", help="list the workload suites and traces")
    trace = commands.add_parser("trace", help="generate one trace")
    trace.add_argument("suite")
    trace.add_argument("name")
    trace.add_argument("--out", default=None, help="write din format to this file")
    simulate = commands.add_parser(
        "simulate", help="simulate one cache over a din trace file"
    )
    simulate.add_argument("din", help="trace file in din format")
    simulate.add_argument("--net", type=int, default=1024, help="net size (bytes)")
    simulate.add_argument("--block", type=int, default=16, help="block size")
    simulate.add_argument("--sub", type=int, default=None, help="sub-block size")
    simulate.add_argument("--assoc", type=int, default=4, help="associativity")
    simulate.add_argument("--word", type=int, default=2, help="data-path width")
    simulate.add_argument(
        "--fetch",
        default="demand",
        choices=["demand", "load-forward", "load-forward-optimized"],
    )
    simulate.add_argument(
        "--replacement", default="lru", choices=["lru", "fifo", "random"]
    )
    simulate.add_argument(
        "--cold", action="store_true",
        help="cold-start statistics (default: the paper's warm start)",
    )
    simulate.add_argument(
        "--keep-writes", action="store_true",
        help="keep write accesses (default: the paper's read filtering)",
    )
    miss_path = simulate.add_argument_group(
        "miss path",
        "optional structures consulted between an L1 miss and memory "
        "(see docs/misspath.md); all default to off",
    )
    miss_path.add_argument(
        "--victim-entries", type=int, default=0, metavar="N",
        help="fully-associative victim cache entries (holds L1 evictions)",
    )
    miss_path.add_argument(
        "--miss-entries", type=int, default=0, metavar="N",
        help="tag-only miss cache entries",
    )
    miss_path.add_argument(
        "--stream-buffers", type=int, default=0, metavar="N",
        help="sequential-prefetch stream buffers",
    )
    miss_path.add_argument(
        "--stream-depth", type=int, default=4, metavar="N",
        help="prefetch FIFO depth per stream buffer (default 4)",
    )
    miss_path.add_argument(
        "--l2-net", type=int, default=0, metavar="BYTES",
        help="backing L2 net size (0 = no L2)",
    )
    miss_path.add_argument(
        "--l2-block", type=int, default=0, metavar="BYTES",
        help="L2 block size (default: the L1 block size)",
    )
    miss_path.add_argument(
        "--l2-sub", type=int, default=0, metavar="BYTES",
        help="L2 sub-block size (default: the L2 block size)",
    )
    miss_path.add_argument(
        "--l2-assoc", type=int, default=4, metavar="N",
        help="L2 associativity (default 4)",
    )
    return parser


def _cmd_riscii(length: int) -> None:
    from repro.analysis.paper_data import RISCII_MISS_RATIOS
    from repro.core.sim import simulate
    from repro.extensions.riscii import RemoteProgramCounter, riscii_icache
    from repro.trace.filters import only_kind
    from repro.trace.record import AccessType

    trace = only_kind(
        suite_trace("vax", "c2", length=length), AccessType.IFETCH
    )
    print("RISC II instruction cache (Section 2.3)")
    for size in sorted(RISCII_MISS_RATIOS):
        stats = simulate(riscii_icache(size), trace, warmup="fill")
        print(
            f"  {size:5d} B: miss {stats.miss_ratio:.4f} "
            f"(paper {RISCII_MISS_RATIOS[size]:.3f})"
        )
    rpc = RemoteProgramCounter(word_size=4)
    for access in trace:
        rpc.observe(access.addr)
    print(f"  remote PC accuracy: {rpc.accuracy:.3f} (paper 0.899)")


def _cmd_suites() -> None:
    for suite in suite_names():
        print(f"{suite}:")
        for spec in suite_specs(suite):
            source = spec.program or "synthetic"
            print(f"  {spec.name:<8s} {source}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    length = args.length if args.length is not None else default_trace_length()

    if args.command == "table6":
        print(format_table6(table6_experiment(length=length)))
    elif args.command == "table7":
        points = table7_experiment(
            args.arch, length=length, runner=_runner_config(args),
            sample=args.sample,
        )
        print(format_table7(args.arch, points))
        _warn_partial(points)
    elif args.command == "table8":
        print(
            format_table8(
                table8_experiment(
                    length=length, runner=_runner_config(args),
                    sample=args.sample,
                )
            )
        )
    elif args.command == "figure":
        arch, nets, scaled = _FIGURES[args.number]
        results = figure_experiment(
            arch, nets, length=length, runner=_runner_config(args),
            sample=args.sample,
        )
        for points in results.values():
            _warn_partial(points)
        series = figure_series(results, use_scaled_traffic=scaled)
        if args.csv:
            print(series_to_csv(series), end="")
        else:
            mode = " (nibble mode)" if scaled else ""
            print(ascii_figure(series, title=f"Figure {args.number}: {arch}{mode}"))
    elif args.command == "riscii":
        _cmd_riscii(length)
    elif args.command == "suites":
        _cmd_suites()
    elif args.command == "trace":
        trace = suite_trace(args.suite, args.name, length=length)
        if args.out:
            write_din(trace, args.out)
            print(f"wrote {len(trace)} accesses to {args.out}")
        else:
            print(f"{trace!r}: {trace.total_bytes} bytes referenced, "
                  f"{trace.unique_addresses()} unique addresses")
    elif args.command == "simulate":
        _cmd_simulate(args)
    elif args.command == "lint":
        return _cmd_lint(args)
    elif args.command == "classify":
        return _cmd_classify(args)
    elif args.command == "phases":
        return _cmd_phases(args, length)
    elif args.command == "chaos":
        if args.serve:
            from repro.service.chaos import run_serve_chaos

            return run_serve_chaos(
                quick=args.quick,
                seed=args.seed,
                budget=args.budget,
                report_path=args.out,
            )
        from repro.runner.chaos import run_chaos

        return run_chaos(
            quick=args.quick,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            engine="checked" if args.sanitize else args.engine,
        )
    elif args.command == "serve":
        from repro.service.app import run_server
        from repro.service.simulator import ServiceConfig

        return run_server(
            host=args.host,
            port=args.port,
            config=ServiceConfig(
                workers=args.workers,
                cache_size=args.cache_size,
                disk_cache=args.disk_cache,
                store_dir=args.store_dir,
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                breaker_failures=args.breaker_failures or None,
                engine=args.engine,
                grid_engine=args.grid_engine,
                default_length=args.length,
                supervised=args.supervised,
                worker_processes=args.worker_processes,
                heartbeat_timeout=args.heartbeat_timeout,
                drain_timeout=args.drain_timeout,
                allow_sampling=args.allow_sampling,
            ),
            log_level=args.log_level,
        )
    return 0


def _cmd_lint(args) -> int:
    """Static-check every bundled program; non-zero exit on findings.

    Error-severity findings always fail the command (this is the CI
    gate); ``--strict`` extends that to warnings.
    """
    import inspect
    import json

    from repro.staticcheck import check_program, footprint
    from repro.workloads.assembler import assemble
    from repro.workloads.programs import PROGRAMS

    names = args.programs if args.programs else sorted(PROGRAMS)
    unknown = sorted(set(names) - set(PROGRAMS))
    if unknown:
        raise SystemExit(
            f"repro: unknown programs {unknown}; choose from {sorted(PROGRAMS)}"
        )

    entries = []
    errors = warnings = 0
    misspath_diagnostics = None
    if args.misspath is not None:
        from repro.staticcheck.configlint import lint_miss_path

        try:
            raw_misspath = json.loads(args.misspath)
        except ValueError as exc:
            raise SystemExit(f"repro: --misspath is not valid JSON: {exc}")
        misspath_diagnostics = lint_miss_path(raw_misspath, source="cli")
        errors += sum(1 for d in misspath_diagnostics if d.is_error)
        warnings += sum(1 for d in misspath_diagnostics if not d.is_error)
    coverage_diagnostics = None
    if args.sweep_coverage is not None:
        from repro.analysis.sweep import geometry_grid
        from repro.engine import CellSpec
        from repro.errors import ReproError
        from repro.staticcheck.configlint import (
            lint_sample_coverage,
            lint_stackdist_coverage,
        )

        try:
            grid = geometry_grid(args.sweep_coverage, min_sub=args.word)
        except ReproError as exc:
            raise SystemExit(f"repro: --sweep-coverage: {exc}")
        try:
            spec = CellSpec.of(None, sample=args.sample)
        except ReproError as exc:
            raise SystemExit(f"repro: --sample: {exc}")
        # Info-severity planning report: never counted as warnings, so
        # --strict stays about real findings.
        coverage_diagnostics = lint_stackdist_coverage(
            grid, spec=spec, source="paper-grid"
        )
        coverage_diagnostics += lint_sample_coverage(
            grid, spec.sample, source="paper-grid"
        )
    elif args.sample is not None:
        raise SystemExit("repro: --sample requires --sweep-coverage")
    for name in names:
        builder = PROGRAMS[name]
        params = (
            {"seed": 0}
            if "seed" in inspect.signature(builder).parameters
            else {}
        )
        spec = builder(**params)
        program = assemble(spec.source, word_size=args.word)
        diagnostics = check_program(program, name=name)
        errors += sum(1 for d in diagnostics if d.is_error)
        warnings += sum(1 for d in diagnostics if not d.is_error)
        entries.append((name, diagnostics, footprint(program, name=name)))

    if args.fmt == "json":
        payload = {
            "schema_version": 1,
            "programs": [
                {
                    "name": name,
                    "diagnostics": [d.to_dict() for d in diagnostics],
                    "footprint": report.to_dict(),
                }
                for name, diagnostics, report in entries
            ],
            "errors": errors,
            "warnings": warnings,
        }
        if misspath_diagnostics is not None:
            payload["misspath"] = {
                "diagnostics": [d.to_dict() for d in misspath_diagnostics],
            }
        if coverage_diagnostics is not None:
            payload["sweep_coverage"] = {
                "net_sizes": list(args.sweep_coverage),
                "diagnostics": [d.to_dict() for d in coverage_diagnostics],
            }
        print(json.dumps(payload, indent=2))
    else:
        if misspath_diagnostics is not None:
            print(f"misspath config: {len(misspath_diagnostics)} finding(s)")
            for diagnostic in misspath_diagnostics:
                print(f"  {diagnostic.render()}")
        if coverage_diagnostics is not None:
            nets = ", ".join(str(net) for net in args.sweep_coverage)
            print(f"sweep coverage (nets {nets}):")
            for diagnostic in coverage_diagnostics:
                print(f"  {diagnostic.render()}")
        for name, diagnostics, report in entries:
            loops = sum(1 for loop in report.loops if loop.innermost)
            print(
                f"{name}: {len(diagnostics)} finding(s) — "
                f"code {report.code_bytes} B, data {report.data_bytes} B, "
                f"{loops} innermost loop(s), "
                f"hot loop {report.hot_loop_bytes} B"
            )
            for diagnostic in diagnostics:
                print(f"  {diagnostic.render()}")
        print(
            f"checked {len(entries)} program(s): "
            f"{errors} error(s), {warnings} warning(s)"
        )
    failed = errors > 0 or (args.strict and warnings > 0)
    return 1 if failed else 0


def _cmd_phases(args, length: int) -> int:
    """Static phase analysis of one bundled program's generated trace.

    Builds the program's trace, fingerprints its intervals from the
    staticcheck CFG, clusters them, and prints the resulting
    :class:`~repro.staticcheck.phases.PhasePlan` — the same plan a
    ``--sample`` sweep would simulate from (see docs/sampling.md).
    """
    import inspect
    import json

    from repro.errors import ReproError
    from repro.staticcheck.phases import analyze_trace
    from repro.workloads.assembler import assemble
    from repro.workloads.generator import program_trace
    from repro.workloads.programs import PROGRAMS

    if args.program not in PROGRAMS:
        raise SystemExit(
            f"repro: unknown program {args.program!r}; "
            f"choose from {sorted(PROGRAMS)}"
        )
    builder = PROGRAMS[args.program]
    params = (
        {"seed": args.seed}
        if "seed" in inspect.signature(builder).parameters
        else {}
    )
    program = assemble(builder(**params).source, word_size=args.word)
    trace = program_trace(args.program, length, args.word, seed=args.seed)
    try:
        plan = analyze_trace(
            trace, args.interval, args.k, seed=args.seed, program=program
        )
    except ReproError as exc:
        raise SystemExit(f"repro: {exc}")
    if args.fmt == "json":
        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    print(
        f"{args.program}: {plan.trace_length} accesses, "
        f"{plan.intervals} interval(s) of {plan.interval_length}, "
        f"{len(plan.phases)} phase(s), fingerprints from {plan.source}"
    )
    for phase in plan.phases:
        witness = phase.witness if phase.witness is not None else "-"
        print(
            f"  phase {phase.index}: {len(phase.members)} interval(s), "
            f"weight {phase.weight:.3f}, representative {phase.representative}, "
            f"witness {witness}, spread {phase.spread:.4f}"
        )
    print(
        f"simulated fraction {plan.simulated_fraction:.3f} "
        f"({plan.simulated_accesses} of {plan.trace_length} accesses)"
    )
    for diagnostic in plan.diagnostics():
        print(f"  {diagnostic.render()}")
    return 0


def _format_bound(bound) -> str:
    if bound is None:
        return "?"
    lo, hi = bound
    return f"[{lo}, {'∞' if hi is None else hi}]"


def _cmd_classify(args) -> int:
    """Hierarchical abstract-interpretation classification of one program.

    Always runs the chain-aware analyzer
    (:func:`repro.staticcheck.abschain.classify_chain_program`): with no
    miss-path flags the chain is bare and the hierarchy degenerates to
    the single-level proofs, but the static counter bounds are computed
    either way.

    Exit codes: 0 = analysis (and, with ``--verify``, the differential
    check) succeeded; 1 = the program has error-severity findings, the
    geometry is invalid, or verification found a violated proof or an
    out-of-bounds counter.
    """
    import inspect
    import json

    from repro.core.config import CacheGeometry
    from repro.errors import ConfigurationError
    from repro.staticcheck import (
        classify_chain_program,
        lint_chain_report,
        verify_chain_classification,
    )
    from repro.workloads.assembler import assemble
    from repro.workloads.programs import PROGRAMS

    if args.program not in PROGRAMS:
        raise SystemExit(
            f"repro: unknown program {args.program!r}; "
            f"choose from {sorted(PROGRAMS)}"
        )
    builder = PROGRAMS[args.program]
    params = (
        {"seed": 0}
        if "seed" in inspect.signature(builder).parameters
        else {}
    )
    program = assemble(builder(**params).source, word_size=args.word)
    miss_path = {
        "victim_entries": args.victim_entries,
        "miss_entries": args.miss_entries,
        "stream_buffers": args.stream_buffers,
        "stream_depth": args.stream_depth,
        "l2_net_size": args.l2_net,
        "l2_block_size": args.l2_block,
        "l2_sub_block_size": args.l2_sub,
        "l2_associativity": args.l2_assoc,
    }
    try:
        geometry = CacheGeometry(
            net_size=args.net,
            block_size=args.block,
            sub_block_size=args.sub if args.sub is not None else args.block,
            associativity=args.assoc,
        )
        report = classify_chain_program(
            program,
            geometry,
            miss_path=miss_path,
            fetch=args.fetch,
            stack_words=args.stack_words,
            name=args.program,
        )
    except ConfigurationError as error:
        print(f"repro: classify failed: {error}", file=sys.stderr)
        return 1
    verification = (
        verify_chain_classification(program, report) if args.verify else None
    )

    if args.fmt == "json":
        payload = report.to_dict()
        if verification is not None:
            payload["verification"] = verification.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        chained = report.miss_path.enabled
        print(
            f"{report.name}: {len(report.sites)} site(s) @ "
            f"net {report.net_size} B, block {report.block_size}, "
            f"sub-block {report.sub_block_size}, "
            f"{report.associativity}-way, {report.fetch} fetch, "
            f"chain {report.miss_path.key()}"
        )
        for key, value in report.counts.items():
            print(f"  {key:20s} {value}")
        print(f"  classified fraction: {report.classified_fraction:.3f}")
        print("  static counter bounds:")
        for key in (
            "demand_misses", "memory_fetches", "memory_bytes_fetched"
        ):
            print(f"    {key:22s} {_format_bound(report.bound(key))}")
        if chained:
            print("  per-structure proofs:")
            header = (
                f"    {'structure':9s} {'proven-hits':>11s} "
                f"{'probes':>14s} {'hits':>14s} "
                f"{'fills':>14s} {'evictions':>14s}"
            )
            print(header)
            for row in report.proof_rows():
                print(
                    f"    {row['structure']:9s} {row['proven_hits']:>11d} "
                    f"{_format_bound(row['probes']):>14s} "
                    f"{_format_bound(row['hits']):>14s} "
                    f"{_format_bound(row['fills']):>14s} "
                    f"{_format_bound(row['evictions']):>14s}"
                )
        for finding in lint_chain_report(report):
            print(f"  {finding.render()}")
        for site in report.sites:
            if site.classification.value in ("unclassified", "L1-hit"):
                continue
            target = (
                f" -> {site.target:#x}" if site.target is not None else ""
            )
            print(
                f"  addr {site.instr_addr:#06x} [{site.site}] "
                f"{site.kind}{target}: {site.classification.value}"
            )
        if verification is not None:
            status = "PASSED" if verification.ok else "FAILED"
            sanitized = " (checked engine)" if verification.sanitized else ""
            print(
                f"  verification {status}{sanitized}: "
                f"{verification.accesses} accesses "
                f"({verification.checked} against proofs, "
                f"{verification.unclassified_accesses} unclassified)"
            )
            for site, occurrence, expected, observed in (
                verification.violations[:10]
            ):
                print(
                    f"    VIOLATION {site} occurrence {occurrence}: "
                    f"expected {expected}, observed {observed}"
                )
            for counter, lo, hi, observed in (
                verification.bound_violations[:10]
            ):
                print(
                    f"    BOUND VIOLATION {counter}: observed {observed} "
                    f"outside {_format_bound((lo, hi))}"
                )
    if verification is not None and not verification.ok:
        return 1
    return 0


def _cmd_simulate(args) -> None:
    from repro.core.config import CacheGeometry
    from repro.core.misspath import MissPathConfig
    from repro.engine import CellSpec, run_cell
    from repro.memory.nibble import NIBBLE_MODE_BUS
    from repro.trace.filters import reads_only
    from repro.trace.reader import read_din

    trace = read_din(args.din, size=args.word)
    if not args.keep_writes:
        trace = reads_only(trace)
    geometry = CacheGeometry(
        net_size=args.net,
        block_size=args.block,
        sub_block_size=args.sub if args.sub is not None else args.block,
        associativity=args.assoc,
    )
    miss_path = MissPathConfig(
        victim_entries=args.victim_entries,
        miss_entries=args.miss_entries,
        stream_buffers=args.stream_buffers,
        stream_depth=args.stream_depth,
        l2_net_size=args.l2_net,
        l2_block_size=args.l2_block,
        l2_sub_block_size=args.l2_sub,
        l2_associativity=args.l2_assoc,
    )
    stats = run_cell(trace, CellSpec.of(
        geometry,
        replacement=args.replacement,
        fetch=args.fetch,
        word_size=args.word,
        warmup=0 if args.cold else "fill",
        miss_path=miss_path,
    ))
    print(f"trace:        {args.din} ({len(trace)} accesses after filtering)")
    print(f"cache:        {geometry}")
    print(f"policies:     {args.replacement} replacement, {args.fetch} fetch")
    print(f"miss ratio:   {stats.miss_ratio:.4f}")
    print(f"traffic:      {stats.traffic_ratio():.4f}")
    print(
        f"nibble:       "
        f"{stats.scaled_traffic_ratio(NIBBLE_MODE_BUS, args.word):.4f}"
    )
    if stats.misspath is not None:
        misspath = stats.misspath
        print(f"miss path:    {miss_path.key()} "
              f"({misspath.demand_misses} demand misses)")
        for name in misspath.chain:
            structure = misspath.structures[name]
            print(
                f"  {name:7s} probes {structure.probes:>8d}  "
                f"hits {structure.hits:>8d}  fills {structure.fills:>8d}  "
                f"evictions {structure.evictions:>8d}"
            )
        print(
            f"  memory  fetches {misspath.memory_fetches} "
            f"({misspath.memory_bytes_fetched} bytes)"
        )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
