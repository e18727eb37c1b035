"""Golden bytes: every execution route writes exactly the stored records.

Each case runs one small sweep or service query that lands on one
route — a stack-distance pass, a vectorized cell, a vectorized cell
with a miss-path chain (the ``*_reference_chain`` cases keep the name of
the route chained cells took before), a checked cell, a sampled cell —
or resumes a version 1, 2 or 3 checkpoint.  The checkpoint JSONL files,
the service's WAL-store records and its checkpoint export must equal
the bytes in ``golden_routes.json``, so no change to how a route is
chosen or recorded can alter what lands on disk.  A ``*_cache`` case holds
each stored record as one JSONL line, with the per-line CRC that
checkpoints carry.

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
from repro.runner.checkpoint import line_crc
from repro.runner.runner import RunnerConfig, run_sweep
from repro.service import ServiceConfig, SimQuery, SimulationService
from repro.service.store import WalStore
from repro.workloads.suites import suite_trace

GOLDEN = Path(__file__).with_name("golden_routes.json")
LENGTH = 2000

#: Three shapes sharing (block 16, 16 sets) form one pass group; the
#: block-8 shape is alone in its group and gets a one-member pass.
GEOMETRIES = [
    CacheGeometry(256, 16, 8, associativity=1),
    CacheGeometry(512, 16, 8, associativity=2),
    CacheGeometry(1024, 16, 4, associativity=4),
    CacheGeometry(512, 8, 8, associativity=4),
]

#: name -> (run_sweep kwargs, RunnerConfig kwargs)
SWEEPS = {
    "sweep_stackdist": ({}, {}),
    "sweep_vectorized": ({}, {"engine": "vectorized"}),
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
    "serve_stackdist": ({"batch_window": 0.05}, {}),
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


#: name -> further queries sent in the same batch as ``QUERY``.  The
#: service answers a batch's queries from one pass only when two or
#: more share a (block, sets) group: this one shares (16, 16).
COMPANIONS = {
    "serve_stackdist": [{"net": 512, "assoc": 2}],
}


def _serve(name: str, directory: Path) -> Dict[str, str]:
    service_kwargs, extra = QUERIES[name]
    store_dir = directory / f"{name}.store"
    export = directory / f"{name}.export.jsonl"
    config = {"batch_window": 0.0, "store_dir": str(store_dir), **service_kwargs}

    async def main():
        service = SimulationService(ServiceConfig(**config))
        await service.start()
        try:
            payloads = [dict(QUERY, **extra)] + [
                dict(QUERY, **extra, **companion)
                for companion in COMPANIONS.get(name, [])
            ]
            result, *_ = await asyncio.gather(
                *(
                    service.simulate(SimQuery.from_payload(payload, LENGTH))
                    for payload in payloads
                )
            )
            service.cache.export_checkpoint(result.entry.fingerprint, export)
        finally:
            await service.stop()

    asyncio.run(main())
    store = WalStore(store_dir)
    lines = []
    for record in sorted(store.records(), key=lambda record: record["key"]):
        record["crc"] = line_crc(record)
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    store.close()
    return {
        "cache": "".join(lines),
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
def regenerated(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / GOLDEN.name
    _write_golden(path)
    return path


@pytest.fixture(scope="module")
def produced(regenerated) -> Dict[str, str]:
    return json.loads(regenerated.read_text(encoding="utf-8"))


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


def test_regenerating_writes_the_committed_bytes(regenerated):
    # Regeneration keeps the committed legacy inputs verbatim, so on
    # unchanged code it reproduces the golden file byte for byte.
    assert regenerated.read_bytes() == GOLDEN.read_bytes()


def _legacy_input(version: int, source: str, directory: Path) -> str:
    """A version-``version`` checkpoint holding the first cell of the
    ``source`` sweep, as a release writing that version stored it."""
    from repro.core.misspath import MissPathConfig
    from repro.engine.batch import prepare_trace
    from repro.memory.nibble import NIBBLE_MODE_BUS
    from repro.runner.checkpoint import sweep_fingerprint
    from repro.runner.runner import cell_key

    # The params each older format's fingerprint lacked, spelled out
    # here so the legacy inputs never depend on the code under test.
    lacked = {3: ("sample",), 2: ("sample", "miss_path"),
              1: ("sample", "miss_path", "engine")}
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
    header = {"kind": "header", "version": version, "fingerprint": fingerprint}
    header["crc"] = line_crc(header)
    first_cell = current.splitlines(keepends=True)[1]
    return json.dumps(header, sort_keys=True) + "\n" + first_cell


def _write_golden(out: Path = GOLDEN) -> None:
    """Regenerate the golden data into ``out``.

    A legacy input stands for a file an older release wrote, so each
    committed one is kept verbatim; only a missing one is built, from
    a sweep under the current code.
    """
    committed = (
        json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    )
    with tempfile.TemporaryDirectory() as raw:
        directory = Path(raw)
        inputs: Dict[str, str] = {}
        for version, source in LEGACY.items():
            name = f"legacy_v{version}_input"
            inputs[name] = committed.get(name) or _legacy_input(
                version, source, directory
            )
        cases = directory / "cases"
        cases.mkdir()
        data = dict(inputs, **produce(cases, inputs))
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
    sys.exit(0)
