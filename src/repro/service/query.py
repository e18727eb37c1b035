"""Query model of the simulation service.

A :class:`SimQuery` is one fully-normalized "what is the performance of
geometry G on trace T under options O?" question.  Normalization at the
edge is what makes the rest of the service honest:

* the **coalescing key** (:meth:`SimQuery.coalesce_key`) is the frozen
  query itself, so two requests that differ only in JSON spelling share
  one in-flight computation;
* the **cache fingerprint** (:meth:`SimQuery.fingerprint`) is computed
  by the *same* function the sweep checkpoints use
  (:func:`repro.runner.checkpoint.sweep_fingerprint` over the
  single-cell sweep this query denotes), so a served result and a
  checkpointed runner cell are interchangeable — the cross-subsystem
  test in ``tests/service/test_checkpoint_interop.py`` pins this.

Validation raises :class:`~repro.errors.ConfigurationError`, which the
HTTP layer maps to a 400 response.  Geometry and grid validation goes
through :mod:`repro.staticcheck.configlint`, so the raised error is a
:class:`~repro.errors.StaticCheckError` carrying structured diagnostics
(rule id, severity, source location) that the 400 body surfaces — and
the engine is never invoked for a shape the lint rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import CacheGeometry
from repro.core.misspath import MissPathConfig
from repro.engine.base import ENGINE_NAMES
from repro.engine.batch import CellSpec
from repro.engine.route import plan
from repro.errors import ConfigurationError
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.checkpoint import sweep_fingerprint
from repro.runner.runner import cell_key
from repro.staticcheck.configlint import (
    check_geometry,
    lint_cell_options,
    lint_grid_axes,
    lint_miss_path,
)
from repro.staticcheck.diagnostics import raise_on_errors
from repro.staticcheck.phases import SamplingConfig
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import suite_specs

__all__ = [
    "SimQuery",
    "MAX_SWEEP_CELLS",
    "expand_sweep",
    "refuse_sample_fallback",
]

#: Upper bound on the grid size one ``/sweep`` request may expand to.
MAX_SWEEP_CELLS = 64

#: Payload keys ``SimQuery.from_payload`` understands.
_QUERY_KEYS = frozenset(
    {
        "suite", "trace", "length", "geometry", "net", "block", "sub",
        "assoc", "engine", "fetch", "replacement", "warmup", "word_size",
        "filter_writes", "miss_path", "sample", "exact",
    }
)


#: What each ``sample-fallback-*`` rule names, for the 400 message.
_SAMPLE_FALLBACK_AXES = {
    "sample-fallback-injector": "fault injection",
    "sample-fallback-checked": "the checked engine",
    "sample-fallback-chain": "a miss-path chain",
}


def refuse_sample_fallback(spec: CellSpec) -> None:
    """Refuse a sample the route planner sends back to exact simulation.

    Where the sweep runner falls back with a named warning, the service
    refuses (400) under the same rule id: a client asking for an
    estimate must not get an exact result labeled as neither.

    Raises:
        ConfigurationError: Naming the ``sample-fallback-*`` rule.
    """
    fallbacks = plan(spec).sample_fallbacks
    if fallbacks:
        rule = fallbacks[0]
        raise ConfigurationError(
            f"sampling is incompatible with {_SAMPLE_FALLBACK_AXES[rule]} "
            f"(rule {rule}); drop one"
        )


def _require_int(payload: Dict[str, Any], key: str, minimum: int = 1) -> int:
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{key} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SimQuery:
    """One normalized simulation query (hashable, order-insensitive).

    Attributes mirror the knobs of a single sweep cell: the trace
    coordinates (``suite``, ``trace``, ``length``), the cache shape,
    and the execution options the checkpoint fingerprint folds in.
    """

    suite: str
    trace: str
    length: int
    net: int
    block: int
    sub: int
    assoc: int = 4
    engine: str = "auto"
    fetch: str = "demand"
    replacement: str = "lru"
    warmup: Union[int, str] = "fill"
    word_size: int = 2
    filter_writes: bool = True
    miss_path: Optional[MissPathConfig] = None
    sample: Optional["SamplingConfig"] = None

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
            for key in ("net", "block", "sub", "assoc"):
                if key in geometry:
                    payload.setdefault(key, geometry[key])
        unknown = sorted(set(payload) - _QUERY_KEYS)
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

        payload.setdefault("length", default_length)
        length = _require_int(payload, "length")
        net = payload["net"]
        block = payload["block"]
        sub = payload["sub"]
        assoc = payload.get("assoc", 4)
        payload.setdefault("word_size", get_architecture(suite).word_size)
        word_size = _require_int(payload, "word_size")

        engine = str(payload.get("engine", "auto")).lower()
        if engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; choose from {list(ENGINE_NAMES)}"
            )
        fetch = str(payload.get("fetch", "demand")).lower().replace("_", "-")
        replacement = str(payload.get("replacement", "lru")).lower()
        warmup: Union[int, str] = payload.get("warmup", "fill")

        # One structured pass over the options and the shape: every
        # problem at once, each with a rule id, raised as
        # StaticCheckError (-> 400 with a ``diagnostics`` array) before
        # any engine work happens.
        raise_on_errors(
            lint_cell_options(fetch, replacement, warmup, source="query"),
            "invalid query",
        )
        check_geometry(net, block, sub, assoc=assoc, fetch=fetch, source="query")

        filter_writes = payload.get("filter_writes", True)
        if not isinstance(filter_writes, bool):
            raise ConfigurationError(
                f"filter_writes must be a boolean, got {filter_writes!r}"
            )

        # Miss-path chain: lint first (every problem at once, each with
        # a rule id -> structured 400), then parse; a config with no
        # enabled structure normalizes to None so spellings like
        # ``"miss_path": {}`` coalesce with chainless queries.
        raw_miss_path = payload.get("miss_path")
        raise_on_errors(
            lint_miss_path(
                raw_miss_path,
                l1_block_size=block,
                source="query",
                l1_net_size=net,
            ),
            "invalid miss_path",
        )
        miss_path = MissPathConfig.coerce(raw_miss_path)
        if miss_path is not None and not miss_path.enabled:
            miss_path = None

        # Sampling: parse eagerly (400 on a malformed spec); ``exact:
        # true`` is the client's way of pinning down that estimates are
        # unacceptable.
        sample = SamplingConfig.coerce(payload.get("sample"))
        exact = payload.get("exact", None)
        if exact is not None and not isinstance(exact, bool):
            raise ConfigurationError(
                f"exact must be a boolean, got {exact!r}"
            )
        if sample is not None and exact:
            raise ConfigurationError(
                "query asks for exact results (exact: true) and "
                "sampled simulation at once; drop one"
            )

        query = cls(
            suite=suite, trace=trace, length=length,
            net=net, block=block, sub=sub, assoc=assoc,
            engine=engine, fetch=fetch, replacement=replacement,
            warmup=warmup, word_size=word_size, filter_writes=filter_writes,
            miss_path=miss_path, sample=sample,
        )
        query.geometry()  # validates the shape eagerly (400, not 500)
        if sample is not None:
            refuse_sample_fallback(query.spec())
        return query

    # -- Derived identities ----------------------------------------------

    def geometry(self) -> CacheGeometry:
        """The validated cache shape this query simulates."""
        return CacheGeometry(
            net_size=self.net,
            block_size=self.block,
            sub_block_size=self.sub,
            associativity=self.assoc,
        )

    def spec(self) -> CellSpec:
        """The batch-layer cell spec equivalent to this query."""
        return CellSpec(
            geometry=self.geometry(),
            engine=self.engine,
            fetch=self.fetch,
            replacement=self.replacement,
            warmup=self.warmup,
            word_size=self.word_size,
            miss_path=self.miss_path,
            sample=self.sample,
        )

    def coalesce_key(self) -> "SimQuery":
        """Key under which identical concurrent queries share one run."""
        return self

    def trace_group(self) -> Tuple[str, str, int, bool]:
        """Batching key: queries in one group decode one trace."""
        return (self.suite, self.trace, self.length, self.filter_writes)

    def cell(self) -> str:
        """The runner's cell key for this query's (geometry, trace)."""
        return cell_key(self.geometry(), self.trace)

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
            **self.spec().fingerprint_params(NIBBLE_MODE_BUS, self.filter_writes),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON echo of the query (response ``query`` field)."""
        return {
            "suite": self.suite,
            "trace": self.trace,
            "length": self.length,
            "geometry": {
                "net": self.net, "block": self.block,
                "sub": self.sub, "assoc": self.assoc,
            },
            "engine": self.engine,
            "fetch": self.fetch,
            "replacement": self.replacement,
            "warmup": self.warmup,
            "word_size": self.word_size,
            "filter_writes": self.filter_writes,
            "miss_path": (
                self.miss_path.to_dict() if self.miss_path is not None else None
            ),
            "sample": (
                self.sample.to_dict() if self.sample is not None else None
            ),
        }


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
    unknown = sorted(set(grid) - {"net", "block", "sub", "assoc"})
    if unknown:
        raise ConfigurationError(f"unknown sweep grid axes: {unknown}")

    raw_axes = {
        axis: grid.get(axis) for axis in ("net", "block", "sub", "assoc")
    }
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
