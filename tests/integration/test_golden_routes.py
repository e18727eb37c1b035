"""Golden bytes: every execution route writes exactly the stored records.

Each case runs one small sweep or service query that lands on one
route — a stack-distance pass, a vectorized cell, a reference cell with
a miss-path chain, a checked cell, a sampled cell — or resumes a
version 1, 2 or 3 checkpoint.  The checkpoint JSONL files, the
service's disk-cache records and its checkpoint export must equal the
bytes in ``golden_routes.json``, so no change to how a route is chosen
or recorded can alter what lands on disk.

Regenerate the data (only when a format change is intended) with::

    PYTHONPATH=src python tests/integration/test_golden_routes.py
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

import pytest

from repro.core.config import CacheGeometry
from repro.runner.runner import RunnerConfig, run_sweep
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.workloads.suites import suite_trace

GOLDEN = Path(__file__).with_name("golden_routes.json")
LENGTH = 2000

#: Three shapes sharing (block 16, 16 sets) form one pass group; the
#: block-8 shape is a singleton that ``auto`` leaves per cell.
GEOMETRIES = [
    CacheGeometry(256, 16, 8, associativity=1),
    CacheGeometry(512, 16, 8, associativity=2),
    CacheGeometry(1024, 16, 4, associativity=4),
    CacheGeometry(512, 8, 8, associativity=4),
]

#: name -> (run_sweep kwargs, RunnerConfig kwargs)
SWEEPS = {
    "sweep_stackdist": ({}, {}),
    "sweep_vectorized": ({}, {"grid_engine": "percell"}),
    "sweep_reference_chain": ({"miss_path": {"victim_entries": 4}}, {}),
    "sweep_checked": ({}, {"engine": "checked"}),
    "sweep_sampled": ({"sample": "400,2", "warmup": 0}, {}),
}

#: legacy version -> the sweep whose first cell the legacy file holds.
LEGACY = {
    1: "sweep_vectorized",
    2: "sweep_stackdist",
    3: "sweep_reference_chain",
}

QUERY = {"suite": "pdp11", "trace": "ED", "length": LENGTH,
         "net": 1024, "block": 16, "sub": 8}

#: name -> (ServiceConfig kwargs, extra query keys)
QUERIES = {
    "serve_stackdist": ({"grid_engine": "stackdist"}, {}),
    "serve_vectorized": ({}, {}),
    "serve_reference_chain": ({}, {"miss_path": {"victim_entries": 4}}),
    "serve_checked": ({}, {"engine": "checked"}),
    "serve_sampled": ({"allow_sampling": True}, {"sample": "400,2"}),
}


def _traces():
    return [suite_trace("pdp11", name, length=LENGTH) for name in ("ED", "ROFF")]


def _sweep(name: str, path: Path, resume: bool = False) -> str:
    kwargs, config = SWEEPS[name]
    run_sweep(
        _traces(), GEOMETRIES,
        config=RunnerConfig(checkpoint=path, resume=resume, **config),
        **kwargs,
    )
    return path.read_text(encoding="utf-8")


def _serve(name: str, directory: Path) -> Dict[str, str]:
    service_kwargs, extra = QUERIES[name]
    disk = directory / f"{name}.cache.jsonl"
    export = directory / f"{name}.export.jsonl"

    async def main():
        service = SimulationService(
            ServiceConfig(batch_window=0.0, disk_cache=str(disk), **service_kwargs)
        )
        await service.start()
        try:
            query = SimQuery.from_payload(dict(QUERY, **extra), LENGTH)
            result = await service.simulate(query)
            service.cache.export_checkpoint(result.entry.fingerprint, export)
        finally:
            await service.stop()

    asyncio.run(main())
    return {
        "cache": disk.read_text(encoding="utf-8"),
        "export": export.read_text(encoding="utf-8"),
    }


def produce(directory: Path, legacy_inputs: Dict[str, str]) -> Dict[str, str]:
    """Every golden artifact, keyed by case name."""
    out: Dict[str, str] = {}
    for name in SWEEPS:
        out[name] = _sweep(name, directory / f"{name}.jsonl")
    for version, source in LEGACY.items():
        path = directory / f"legacy_v{version}.jsonl"
        path.write_text(legacy_inputs[f"legacy_v{version}_input"], encoding="utf-8")
        out[f"legacy_v{version}_resumed"] = _sweep(source, path, resume=True)
    for name in QUERIES:
        for part, text in _serve(name, directory).items():
            out[f"{name}_{part}"] = text
    return out


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def produced(golden, tmp_path_factory) -> Dict[str, str]:
    return produce(tmp_path_factory.mktemp("golden"), golden)


CASES = (
    list(SWEEPS)
    + [f"legacy_v{version}_resumed" for version in LEGACY]
    + [f"{name}_{part}" for name in QUERIES for part in ("cache", "export")]
)


@pytest.mark.parametrize("case", CASES)
def test_route_writes_the_golden_bytes(case, golden, produced):
    assert produced[case] == golden[case]


def test_golden_cases_are_complete(golden):
    inputs = {f"legacy_v{version}_input" for version in LEGACY}
    assert set(golden) == set(CASES) | inputs


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    from repro.core.misspath import MissPathConfig
    from repro.engine.batch import prepare_trace
    from repro.memory.nibble import NIBBLE_MODE_BUS
    from repro.runner.checkpoint import line_crc, sweep_fingerprint
    from repro.runner.runner import cell_key

    # The params each older format's fingerprint lacked, spelled out
    # here so the legacy inputs never depend on the code under test.
    lacked = {3: ("sample",), 2: ("sample", "miss_path"),
              1: ("sample", "miss_path", "engine")}
    with tempfile.TemporaryDirectory() as raw:
        directory = Path(raw)
        inputs: Dict[str, str] = {}
        for version, source in LEGACY.items():
            current = _sweep(source, directory / f"{source}.jsonl")
            kwargs, config = SWEEPS[source]
            prepared = [prepare_trace(trace) for trace in _traces()]
            params = dict(
                word_size=2, fetch="demand", replacement="lru",
                warmup=kwargs.get("warmup", "fill"), bus_model=NIBBLE_MODE_BUS,
                filter_writes=True, engine=config.get("engine", "auto"),
                miss_path=MissPathConfig.coerce(kwargs.get("miss_path", {})).key(),
                sample="none",
            )
            for name in lacked[version]:
                params.pop(name)
            fingerprint = sweep_fingerprint(
                [cell_key(g, t.name) for g in GEOMETRIES for t in prepared],
                [len(t) for t in prepared], **params,
            )
            header = {"kind": "header", "version": version,
                      "fingerprint": fingerprint}
            header["crc"] = line_crc(header)
            first_cell = current.splitlines(keepends=True)[1]
            inputs[f"legacy_v{version}_input"] = (
                json.dumps(header, sort_keys=True) + "\n" + first_cell
            )
        cases = directory / "cases"
        cases.mkdir()
        data = dict(inputs, **produce(cases, inputs))
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
    sys.exit(0)
