"""Query model of the simulation service.

A :class:`SimQuery` is one fully-normalized "what is the performance of
geometry G on trace T under options O?" question.  Normalization at the
edge is what makes the rest of the service honest:

* the **coalescing key** is the frozen query itself, so two requests
  that differ only in JSON spelling share one in-flight computation;
* the **cache fingerprint** (:meth:`SimQuery.fingerprint`) is computed
  by the *same* function the sweep checkpoints use
  (:func:`repro.runner.checkpoint.sweep_fingerprint` over the
  single-cell sweep this query denotes), so a served result and a
  checkpointed runner cell are interchangeable — the cross-subsystem
  test in ``tests/service/test_checkpoint_interop.py`` pins this.

Validation raises :class:`~repro.errors.ConfigurationError`, which the
HTTP layer maps to a 400 response.  The shape, the cell axes and the
grid are validated by :mod:`repro.staticcheck.configlint` (the axes
through :meth:`~repro.engine.batch.CellSpec.of`, as every entry point
does), so the raised error is a :class:`~repro.errors.StaticCheckError`
carrying structured diagnostics (rule id, severity, source location)
that the 400 body surfaces — and the engine is never invoked for a cell
the lint rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.errors import ConfigurationError
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.checkpoint import sweep_fingerprint
from repro.runner.runner import cell_key
from repro.staticcheck.configlint import (
    lint_cell,
    lint_geometry,
    lint_grid_axes,
    sample_fallbacks,
)
from repro.staticcheck.diagnostics import Severity, error_count, raise_on_errors
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import suite_specs

__all__ = [
    "GroupResult",
    "SimQuery",
    "MAX_SWEEP_CELLS",
    "expand_sweep",
    "refuse_sample_fallback",
]

#: Upper bound on the grid size one ``/sweep`` request may expand to.
MAX_SWEEP_CELLS = 64

_TRACE_KEYS = frozenset({"suite", "trace", "length", "filter_writes"})
_GEOMETRY_KEYS = ("net", "block", "sub", "assoc")
#: The cell axes a query may set: every :class:`CellSpec` field but the
#: shape, which arrives as the geometry keys.
_AXES = tuple(f.name for f in fields(CellSpec) if f.name != "geometry")


def refuse_sample_fallback(spec: CellSpec) -> None:
    """Refuse a sample the route planner sends back to exact simulation.

    Where the sweep runner falls back with a named warning, the service
    refuses (400) under the same rule id: a client asking for an
    estimate must not get an exact result labeled as neither.

    Raises:
        StaticCheckError: Carrying the ``sample-fallback-*`` findings.
    """
    raise_on_errors(
        [
            replace(finding, severity=Severity.ERROR)
            for finding in sample_fallbacks(spec.engine, spec.miss_path, spec.sample)
        ],
        "sample refused (a sweep would run it exactly)",
    )


@dataclass(frozen=True)
class SimQuery:
    """One normalized simulation query (hashable, order-insensitive).

    A query is the trace coordinates (``suite``, ``trace``, ``length``,
    ``filter_writes``) plus the :class:`~repro.engine.batch.CellSpec`
    of the cell to run on it: the cache shape and every execution axis
    the checkpoint fingerprint folds in.
    """

    suite: str
    trace: str
    length: int
    filter_writes: bool
    spec: CellSpec

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], default_length: int
    ) -> "SimQuery":
        """Validate and normalize one ``/simulate`` JSON body.

        Geometry may be given nested (``"geometry": {"net": ...}``) or
        flat (``"net": ...``); everything but ``suite``, ``trace``, and
        the geometry has paper defaults.  ``word_size`` defaults to the
        suite's architecture word size, matching how the experiment
        layer runs its sweeps.

        Raises:
            ConfigurationError: On unknown keys, bad types, unknown
                suite/trace/policy/engine names, or an invalid shape.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("query body must be a JSON object")
        payload = dict(payload)
        geometry = payload.pop("geometry", None)
        if geometry is not None:
            if not isinstance(geometry, dict):
                raise ConfigurationError("geometry must be a JSON object")
            for key in _GEOMETRY_KEYS:
                if key in geometry:
                    payload.setdefault(key, geometry[key])
        unknown = sorted(
            set(payload) - _TRACE_KEYS - set(_GEOMETRY_KEYS) - set(_AXES)
            - {"exact"}
        )
        if unknown:
            raise ConfigurationError(f"unknown query keys: {unknown}")
        for key in ("suite", "trace", "net", "block", "sub"):
            if key not in payload:
                raise ConfigurationError(f"query is missing required key {key!r}")

        suite = str(payload["suite"]).lower()
        trace = str(payload["trace"])
        known = [spec.name for spec in suite_specs(suite)]
        if trace not in known:
            raise ConfigurationError(
                f"suite {suite!r} has no trace {trace!r}; it has {known}"
            )

        length = payload.setdefault("length", default_length)
        if isinstance(length, bool) or not isinstance(length, int) or length < 1:
            raise ConfigurationError(f"length must be a positive integer, got {length!r}")
        filter_writes = payload.get("filter_writes", True)
        if not isinstance(filter_writes, bool):
            raise ConfigurationError(
                f"filter_writes must be a boolean, got {filter_writes!r}"
            )
        exact = payload.get("exact", None)
        if exact is not None and not isinstance(exact, bool):
            raise ConfigurationError(
                f"exact must be a boolean, got {exact!r}"
            )
        net = payload["net"]
        block = payload["block"]
        sub = payload["sub"]
        assoc = payload.get("assoc", 4)
        payload.setdefault("word_size", get_architecture(suite).word_size)
        axes = {name: payload[name] for name in _AXES if name in payload}

        # The raw shape is linted here; the axes by ``CellSpec.of``, once
        # the shape is sound enough to build.  Either way every problem
        # is raised at once, each with a rule id and an axis finding
        # under the source ``CellSpec.of`` gives it, as StaticCheckError
        # (-> 400 with a ``diagnostics`` array) before any engine work.
        shape = lint_geometry(net, block, sub, assoc=assoc, source="query")
        if error_count(shape):
            raise_on_errors(shape + lint_cell(axes), "invalid cell")

        # The spec drops a chain with no enabled structure, so spellings
        # like ``"miss_path": {}`` coalesce with chainless queries.
        spec = CellSpec.of(
            CacheGeometry(
                net_size=net,
                block_size=block,
                sub_block_size=sub,
                associativity=assoc,
            ),
            **axes,
        )

        # ``exact: true`` is the client's way of pinning down that
        # estimates are unacceptable.
        if spec.sample is not None and exact:
            raise ConfigurationError(
                "query asks for exact results (exact: true) and "
                "sampled simulation at once; drop one"
            )
        if spec.sample is not None:
            refuse_sample_fallback(spec)
        return cls(suite, trace, length, filter_writes, spec)

    # -- Derived identities ----------------------------------------------

    def trace_group(self) -> Tuple[str, str, int, bool]:
        """Batching key: queries in one group decode one trace."""
        return (self.suite, self.trace, self.length, self.filter_writes)

    def cell(self) -> str:
        """The runner's cell key for this query's (geometry, trace)."""
        return cell_key(self.spec.geometry, self.trace)

    def fingerprint(self, prepared_length: int) -> str:
        """Content address of this query's result.

        Computed as the checkpoint fingerprint of the single-cell sweep
        this query denotes — same function, same
        :meth:`~repro.engine.batch.CellSpec.fingerprint_params` as
        :func:`repro.runner.runner.run_sweep` — so a service cache
        entry can seed a ``--resume`` run and vice versa.

        Args:
            prepared_length: Length of the prepared (read-filtered)
                trace, which is what the sweep fingerprint hashes.
        """
        return sweep_fingerprint(
            [self.cell()],
            [prepared_length],
            **self.spec.fingerprint_params(NIBBLE_MODE_BUS, self.filter_writes),
        )

    def result_record(self, stats: Any, path: str) -> Dict[str, Any]:
        """The result fields of this query's answer, from its stats.

        ``path`` is the route that produced ``stats``.  The supervised
        worker sends these fields over the pipe and the in-process path
        builds its cache entry from them, so both record one answer
        the same way.
        """
        return {
            "key": self.cell(),
            "trace": self.trace,
            "engine": path,
            "miss": stats.miss_ratio,
            "traffic": stats.traffic_ratio(),
            "scaled": stats.scaled_traffic_ratio(
                NIBBLE_MODE_BUS, self.spec.word_size
            ),
            "stats": stats.to_dict(),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON echo of the query (response ``query`` field).

        Carries every :class:`CellSpec` axis, in field order; clients
        and the response bytes rely on ``filter_writes`` sitting just
        before ``miss_path``.
        """
        geometry = self.spec.geometry
        echo: Dict[str, Any] = {
            "suite": self.suite,
            "trace": self.trace,
            "length": self.length,
            "geometry": {
                "net": geometry.net_size, "block": geometry.block_size,
                "sub": geometry.sub_block_size, "assoc": geometry.associativity,
            },
        }
        for name in _AXES:
            if name == "miss_path":
                echo["filter_writes"] = self.filter_writes
            value = getattr(self.spec, name)
            echo[name] = value.to_dict() if hasattr(value, "to_dict") else value
        return echo


@dataclass
class GroupResult:
    """What one run of a trace group answers, on a thread or in a worker.

    ``prepared_length`` is what every fingerprint folds in (None only if
    no attempt got as far as preparing); ``outcomes`` holds, per query,
    its :meth:`SimQuery.result_record` or the exception it raised; and
    ``simulate_seconds`` one entry per stack-distance pass or cell run.
    """

    prepared_length: Optional[int]
    outcomes: List[Any] = field(default_factory=list)
    prepare_seconds: float = 0.0
    simulate_seconds: List[float] = field(default_factory=list)

    def extend(self, other: "GroupResult") -> None:
        """Append ``other``'s queries (a group answered in parts)."""
        if self.prepared_length is None:
            self.prepared_length = other.prepared_length
        self.outcomes.extend(other.outcomes)
        self.prepare_seconds += other.prepare_seconds
        self.simulate_seconds.extend(other.simulate_seconds)


def expand_sweep(
    payload: Dict[str, Any],
    default_length: int,
    max_cells: Optional[int] = MAX_SWEEP_CELLS,
) -> "list[SimQuery]":
    """Expand one ``/sweep`` body into its grid of queries.

    The body carries a ``base`` query (geometry optional) plus a
    ``grid`` of per-axis value lists (``net``, ``block``, ``sub``,
    ``assoc``); the result is the cross product, validated cell by
    cell.  Invalid combinations (e.g. a sub-block larger than its
    block) fail the whole request — a partial grid would silently skew
    any average computed from it.

    Raises:
        ConfigurationError: On a malformed body or a grid larger than
            ``max_cells``.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("sweep body must be a JSON object")
    base = payload.get("base")
    if not isinstance(base, dict):
        raise ConfigurationError("sweep body needs a 'base' query object")
    grid = payload.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigurationError("sweep 'grid' must be a JSON object")
    unknown = sorted(set(grid) - set(_GEOMETRY_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown sweep grid axes: {unknown}")

    raw_axes = {axis: grid.get(axis) for axis in _GEOMETRY_KEYS}
    raise_on_errors(lint_grid_axes(raw_axes, source="sweep grid"), "invalid sweep grid")
    axes: Dict[str, "list[int]"] = {
        axis: values for axis, values in raw_axes.items() if values is not None
    }

    count = 1
    for values in axes.values():
        count *= len(values)
    if max_cells is not None and count > max_cells:
        raise ConfigurationError(
            f"sweep grid has {count} cells, exceeding the per-request "
            f"limit of {max_cells}; split the request"
        )

    combos: "list[Dict[str, int]]" = [{}]
    for axis, values in axes.items():
        combos = [dict(combo, **{axis: value}) for combo in combos for value in values]

    queries = []
    for combo in combos:
        cell = dict(base)
        cell.update(combo)
        queries.append(SimQuery.from_payload(cell, default_length))
    return queries
