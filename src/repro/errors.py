"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch everything the library raises with a single ``except``
clause while still distinguishing configuration problems from trace-format
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid cache, memory, or workload configuration was supplied.

    Raised when geometry parameters are inconsistent (e.g. a sub-block
    larger than its block, a non-power-of-two size, or a net cache size
    that cannot hold a single set).
    """


class TraceFormatError(ReproError, ValueError):
    """A trace file or trace record could not be parsed."""


class ChecksumError(TraceFormatError):
    """Stored data failed its integrity check.

    Raised when a trace loaded from the binary ``.npz`` format does not
    hash to the checksum recorded at write time, or when a checkpoint
    file contains a corrupted record.  A subclass of
    :class:`TraceFormatError` so existing ``except TraceFormatError``
    handlers keep working.
    """


class MachineError(ReproError, RuntimeError):
    """The toy workload machine hit an illegal state.

    Examples: executing an undefined opcode, jumping outside the code
    segment, or exceeding the configured step budget (runaway program).

    Attributes:
        steps: Instructions executed before the failure, when known
            (``None`` otherwise).
    """

    def __init__(self, message: str, steps: "int | None" = None) -> None:
        super().__init__(message)
        self.steps = steps


class StaticCheckError(ConfigurationError):
    """Static analysis found error-severity problems before execution.

    Raised by the fail-fast preflight layer (:mod:`repro.staticcheck`)
    when a workload program, cache geometry, or sweep grid is provably
    broken.  A subclass of :class:`ConfigurationError` so the HTTP
    service's 400 mapping and existing handlers keep working, but it
    additionally carries the structured findings.

    Attributes:
        diagnostics: The full finding list (errors and warnings), each
            a :class:`repro.staticcheck.Diagnostic`.
    """

    def __init__(self, message: str, diagnostics: "list | None" = None) -> None:
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics else []


class AssemblyError(ReproError, ValueError):
    """The toy-machine assembler rejected a source program.

    Attributes:
        lineno: 1-based source line of the offending statement, when
            known (``None`` for source-wide problems such as a bad
            word size).
        token: The offending token text, when one token is to blame
            (an unknown mnemonic, a bad register name, an undefined
            symbol, a duplicate label).
    """

    def __init__(
        self,
        message: str,
        lineno: "int | None" = None,
        token: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.lineno = lineno
        self.token = token


class TransientError(ReproError, RuntimeError):
    """A failure that is expected to succeed on retry.

    The resilient runner (:mod:`repro.runner`) retries cells that raise
    this (or, in lenient mode, :class:`MachineError` /
    :class:`TraceFormatError`) with exponential backoff before giving
    up.  Raise it for I/O hiccups, resource contention, or injected
    chaos faults — anything where re-running the same cell can succeed.
    """


class EngineError(ReproError, RuntimeError):
    """A simulation engine failed to execute a run it accepted.

    Raised when the vectorized batch engine (:mod:`repro.engine`) hits
    an internal failure — a decode kernel error, an unsupported input it
    did not reject up front — in strict mode.  In lenient runner mode
    the cell is transparently re-run on the ``reference`` engine
    instead, so this error marks a bug worth reporting, not a flaky
    cell: deterministic, never retried.
    """


class SanitizerError(EngineError):
    """The checked engine caught a cache-model invariant violation.

    Raised by :class:`repro.engine.checked.CheckedEngine` when a
    per-access assertion fails — a corrupted LRU stack, a duplicate tag
    within a set, a valid bit outside the block's sub-block range, or a
    statistics counter that broke a conservation law.  Deterministic
    like every :class:`EngineError`: it marks a simulator bug (or a
    deliberately seeded fault in tests), never a flaky cell.

    Attributes:
        rule: Stable identifier of the violated invariant (e.g.
            ``"sanitizer-lru-stack"``); the catalogue lives in
            ``docs/staticcheck.md``.
        diagnostics: Structured findings, each a
            :class:`repro.staticcheck.Diagnostic`.
    """

    def __init__(
        self,
        message: str,
        rule: str = "",
        diagnostics: "list | None" = None,
    ) -> None:
        super().__init__(message)
        self.rule = rule
        self.diagnostics = list(diagnostics) if diagnostics else []


class CellTimeoutError(ReproError, TimeoutError):
    """A sweep cell exceeded its wall-clock timeout.

    Deterministic by nature (re-running the same cell would time out
    again), so the runner never retries it: the cell is skipped in
    lenient mode or fails the sweep in strict mode.
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's end-to-end deadline expired before its result.

    Carried by the service's deadline propagation
    (``X-Repro-Deadline-Ms`` header -> per-stage budgets -> cooperative
    cancellation inside the engine batch path) and mapped to HTTP 504
    at the edge.  Distinct from :class:`CellTimeoutError`: the *cell*
    did nothing wrong — the client's budget ran out, and the same query
    with a wider budget would succeed.

    Attributes:
        stage: Where the budget died (``admission``, ``queue``,
            ``simulate``), for the 504 body and the request log.
    """

    def __init__(self, message: str, stage: str = "simulate") -> None:
        super().__init__(message)
        self.stage = stage


class WorkerCrashError(TransientError):
    """A supervised worker process died while holding an in-flight cell.

    A subclass of :class:`TransientError` because the crash says
    nothing about the query: the supervisor retries the cell on another
    worker, and only when the retry budget is spent does the caller see
    this error.  The committed results in the WAL store are unaffected
    — a crash can only lose the cell that was in flight.
    """
