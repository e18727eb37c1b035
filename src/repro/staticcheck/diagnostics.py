"""Structured diagnostics shared by every static-analysis layer.

A :class:`Diagnostic` is one finding: a stable ``rule`` identifier (the
thing tests and CI gates key on), a :class:`Severity`, a human message,
and a source location (program name + line / instruction address for
the program checks, a field or axis name for the config lint).

:class:`~repro.errors.StaticCheckError` carries a list of these through
the existing :class:`~repro.errors.ConfigurationError` channel, so the
HTTP layer's 400 mapping and every ``except ConfigurationError`` caller
keep working while gaining machine-readable findings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import StaticCheckError

__all__ = [
    "Severity",
    "Diagnostic",
    "error_count",
    "format_diagnostics",
    "raise_on_errors",
]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail preflight (the runner refuses the sweep,
    the service answers 400, ``repro lint`` exits non-zero).
    ``WARNING`` findings are reported but never block execution.
    ``INFO`` findings are purely observational — coverage and planning
    reports (e.g. the ``sweep-stackdist-*`` rules) that carry numbers,
    not judgements.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - presentation sugar
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        rule: Stable rule identifier, e.g. ``"branch-out-of-range"``
            or ``"geom-sub-gt-block"`` (see ``docs/staticcheck.md``
            for the catalogue).
        severity: :class:`Severity` of the finding.
        message: Human-readable description.
        source: What was analyzed — a program name, ``"geometry"``,
            a sweep axis.
        location: Where in the source — ``"addr 0x10c"`` for an
            instruction, a field name for a config value, ``None``
            when the finding is about the whole source.
        data: Optional structured payload (offending values, targets).
    """

    rule: str
    severity: Severity
    message: str
    source: str = ""
    location: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the service's 400 payload, ``lint --format json``)."""
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
        }
        if self.location is not None:
            payload["location"] = self.location
        if self.data:
            payload["data"] = dict(self.data)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        """Rebuild a finding from its :meth:`to_dict` form.

        Strict, like :meth:`repro.core.stats.CacheStats.from_dict`:
        the four always-emitted keys must be present, only the two
        optional keys may be absent, and anything else is rejected —
        a schema drift between writer and reader should fail loudly,
        not produce a half-empty finding.

        Raises:
            ValueError: On missing required keys, unknown keys, or an
                unknown severity value.
        """
        required = {"rule", "severity", "message", "source"}
        optional = {"location", "data"}
        keys = set(payload)
        missing = sorted(required - keys)
        unknown = sorted(keys - required - optional)
        if missing or unknown:
            raise ValueError(
                "diagnostic payload mismatch: "
                f"missing keys {missing}, unknown keys {unknown}"
            )
        try:
            severity = Severity(payload["severity"])
        except ValueError:
            raise ValueError(
                f"unknown severity {payload['severity']!r}; expected one of "
                f"{[level.value for level in Severity]}"
            ) from None
        return cls(
            rule=payload["rule"],
            severity=severity,
            message=payload["message"],
            source=payload["source"],
            location=payload.get("location"),
            data=dict(payload.get("data", {})),
        )

    def render(self) -> str:
        """One-line ``source:location: severity [rule] message`` form."""
        where = self.source
        if self.location:
            where = f"{where}:{self.location}" if where else self.location
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.severity.value} [{self.rule}] {self.message}"


def error_count(diagnostics: Iterable[Diagnostic]) -> int:
    """Number of error-severity findings."""
    return sum(1 for diagnostic in diagnostics if diagnostic.is_error)


def format_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Render findings one per line, errors first."""
    ordered = sorted(
        diagnostics, key=lambda diagnostic: (not diagnostic.is_error,)
    )
    return "\n".join(diagnostic.render() for diagnostic in ordered)


#: Source suffixes that name a miss-path chain level, and the level's
#: name in an error summary (a chain's L2 shape is linted by the same
#: rules as the L1's).
_CHAIN_LEVELS = (("misspath-l2", "miss-path L2"), ("misspath", "miss-path chain"))


def _summary_item(diagnostic: Diagnostic) -> str:
    """``[rule] message``, naming the chain level a chain finding is at."""
    for suffix, level in _CHAIN_LEVELS:
        if diagnostic.source.endswith(suffix):
            return f"[{diagnostic.rule}] {level}: {diagnostic.message}"
    return f"[{diagnostic.rule}] {diagnostic.message}"


def raise_on_errors(
    diagnostics: Sequence[Diagnostic], context: str
) -> List[Diagnostic]:
    """Raise :class:`StaticCheckError` if any finding is an error.

    Returns the diagnostics unchanged when none are errors, so callers
    can thread warnings through after the gate.
    """
    errors = [diagnostic for diagnostic in diagnostics if diagnostic.is_error]
    if errors:
        summary = "; ".join(_summary_item(diagnostic) for diagnostic in errors[:3])
        if len(errors) > 3:
            summary += f" (+{len(errors) - 3} more)"
        raise StaticCheckError(
            f"{context}: {summary}", diagnostics=list(diagnostics)
        )
    return list(diagnostics)
