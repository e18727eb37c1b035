"""Engine construction, auto-selection, and failure-mode routing."""

from __future__ import annotations

import pytest

from repro.engine import (
    ENGINE_NAMES,
    CellSpec,
    CheckedEngine,
    ReferenceEngine,
    TraceView,
    VectorizedEngine,
    make_engine,
    plan,
)
import repro.engine.batch as batch_module
from repro.errors import ConfigurationError, EngineError
from repro.runner.faults import FaultyTrace
from repro.runner.runner import RunnerConfig, run_sweep


def test_engine_names_are_the_cli_choices():
    assert ENGINE_NAMES == ("auto", "reference", "vectorized", "checked")


def test_make_engine_by_name():
    assert isinstance(make_engine("reference"), ReferenceEngine)
    assert isinstance(make_engine("vectorized"), VectorizedEngine)
    assert isinstance(make_engine("checked"), CheckedEngine)


def test_make_engine_rejects_unknown_and_auto():
    with pytest.raises(ConfigurationError):
        make_engine("turbo")
    with pytest.raises(ConfigurationError):
        make_engine("auto")  # auto is a per-run choice, not an engine


def path_for(engine, trace):
    return plan(CellSpec.of(None, engine=engine), trace).path


def test_resolve_auto_prefers_vectorized_for_plain_traces(tiny_trace):
    assert path_for("auto", tiny_trace) == "vectorized"
    assert path_for("auto", TraceView.of(tiny_trace)) == "vectorized"


def test_resolve_degrades_proxies_to_reference(tiny_trace):
    proxy = FaultyTrace(tiny_trace)
    # Proxies are iteration-only: even an explicit vectorized request
    # runs the reference loop (the documented known-unsupported combo).
    assert path_for("auto", proxy) == "reference"
    assert path_for("vectorized", proxy) == "reference"
    assert "per-access trace proxy" in plan(CellSpec(None), proxy).reasons


def test_resolve_respects_explicit_reference(tiny_trace):
    assert path_for("reference", tiny_trace) == "reference"
    assert path_for("Reference", tiny_trace) == "reference"


def test_resolve_rejects_unknown_name(tiny_trace):
    with pytest.raises(ConfigurationError):
        path_for("warp", tiny_trace)


def test_vectorized_rejects_non_trace_input(small_geometry, tiny_trace):
    with pytest.raises(EngineError):
        VectorizedEngine().run(small_geometry, FaultyTrace(tiny_trace))


def test_vectorized_validates_like_the_reference_cache(
    small_geometry, tiny_trace
):
    with pytest.raises(ConfigurationError):
        VectorizedEngine().run(small_geometry, tiny_trace, word_size=0)
    with pytest.raises(ConfigurationError):
        VectorizedEngine().run(small_geometry, tiny_trace, word_size=64)
    with pytest.raises(ConfigurationError):
        VectorizedEngine().run(small_geometry, tiny_trace, warmup=-1)
    with pytest.raises(ConfigurationError):
        VectorizedEngine().run(small_geometry, tiny_trace, warmup="warm")


def test_run_sweep_rejects_unknown_engine(tiny_trace, small_geometry):
    with pytest.raises(ConfigurationError):
        run_sweep(
            [tiny_trace], [small_geometry],
            config=RunnerConfig(engine="warp"),
        )


class _ExplodingVectorized(VectorizedEngine):
    def _run(self, *args, **kwargs):  # simulate an internal engine bug
        raise RuntimeError("kaboom")


def _broken_make_engine(name):
    return _ExplodingVectorized() if name == "vectorized" else make_engine(name)


def test_strict_mode_surfaces_engine_error(
    monkeypatch, tiny_trace, small_geometry
):
    monkeypatch.setattr(batch_module, "make_engine", _broken_make_engine)
    with pytest.raises(EngineError):
        run_sweep(
            [tiny_trace], [small_geometry],
            config=RunnerConfig(engine="vectorized"),
        )


def test_lenient_mode_falls_back_to_reference(
    monkeypatch, tiny_trace, small_geometry
):
    monkeypatch.setattr(batch_module, "make_engine", _broken_make_engine)
    healthy, _ = run_sweep(
        [tiny_trace], [small_geometry],
        config=RunnerConfig(engine="reference"),
    )
    degraded, report = run_sweep(
        [tiny_trace], [small_geometry],
        config=RunnerConfig(engine="vectorized", lenient=True),
    )
    assert report.skipped == []  # fallback succeeded, nothing skipped
    assert degraded[0].miss_ratio == healthy[0].miss_ratio
    assert degraded[0].per_trace == healthy[0].per_trace
