"""Soundness of the hierarchical (chain-aware) abstract cache analysis.

The load-bearing suite mirrors ``test_abscache.py`` but covers the
acceptance matrix of ISSUE 9: all bundled programs × the chain grid
{bare, vc4, mc4, sb2x4, l2, vc4+sb2x4+l2} at words 2 and 4.  Each
combination is classified statically and then *executed* through a
cold chained cache — a single contradicted hierarchical proof (a
``chain-hit@victim`` access serviced by memory, say) fails the suite.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import CacheGeometry
from repro.staticcheck.abschain import (
    ChainSiteClass,
    classify_chain_program,
    verify_chain_classification,
    verify_classification,
)
from repro.workloads import assemble_program
from repro.workloads.assembler import assemble
from repro.workloads.programs import PROGRAMS

#: The ISSUE 9 acceptance chain grid.
CHAINS = {
    "bare": {},
    "vc4": {"victim_entries": 4},
    "mc4": {"miss_entries": 4},
    "sb2x4": {"stream_buffers": 2, "stream_depth": 4},
    "l2": {"l2_net_size": 4096},
    "vc4+sb2x4+l2": {
        "victim_entries": 4,
        "stream_buffers": 2,
        "stream_depth": 4,
        "l2_net_size": 4096,
    },
}

GEOMETRY = dict(net_size=256, block_size=16, sub_block_size=16, associativity=2)

#: A straight-line program: every block is touched once, and stream
#: buffers provably prefetch the sequential ifetch run.
STRAIGHT_SRC = """
main:
    li   r0, 7
    li   r1, data
    st   r0, r1, 0
    ld   r2, r1, 0
    add  r2, r0
    halt

.words data 0 0 0 0
"""


@pytest.mark.parametrize("word", [2, 4])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_differential_soundness(name, word):
    """No chain proof contradicted."""
    program = assemble_program(name, word)
    geometry = CacheGeometry(**GEOMETRY)
    for chain_name, miss_path in CHAINS.items():
        report = classify_chain_program(
            program, geometry, miss_path=miss_path, name=name
        )
        assert report.sites, f"{name}/{chain_name}: no sites"
        result = verify_classification(program, report, max_refs=80_000)
        assert result.ok, (
            f"{name} word={word} chain={chain_name}: "
            f"{len(result.violations)} violated proof(s) "
            f"{result.violations[:3]}"
        )
        # Airtight accounting: every replayed access is either checked
        # against a proof or counted as unclassified — never dropped.
        assert (
            result.checked + result.unclassified_accesses == result.accesses
        )
        assert result.accesses > 0
        assert report.classified_fraction > 0.0


class TestChainProofs:
    def test_stream_buffer_hit_is_proven_and_verified(self):
        """hanoi's sequential code run is a provable stream-buffer hit."""
        program = assemble_program("hanoi", 2)
        report = classify_chain_program(
            program,
            CacheGeometry(**GEOMETRY),
            miss_path=CHAINS["sb2x4"],
            name="hanoi",
        )
        assert report.counts["chain-hit@stream"] >= 1
        assert verify_classification(program, report, max_refs=80_000).ok

    def test_miss_cache_hit_is_proven_and_verified(self):
        """bubble re-misses a conflicting block while its tag is cached."""
        program = assemble_program("bubble", 2)
        report = classify_chain_program(
            program,
            CacheGeometry(512, 32, 8, associativity=4),
            miss_path=CHAINS["mc4"],
            name="bubble",
        )
        chain_hits = sum(
            count
            for key, count in report.counts.items()
            if key.startswith("chain-hit")
        )
        assert chain_hits >= 1
        assert verify_classification(program, report, max_refs=80_000).ok

    def test_bare_chain_degenerates_to_single_level_classes(self):
        program = assemble_program("fib", 2)
        report = classify_chain_program(
            program, CacheGeometry(**GEOMETRY), name="fib"
        )
        for key, count in report.counts.items():
            if key.startswith("chain-hit"):
                assert count == 0, f"bare chain proved {key}"

    def test_write_misses_bypass_the_chain(self):
        """Write misses never probe (no-allocate), so no write site may
        carry a chain-hit or memory-bound proof."""
        for name in ("bubble", "qsort", "matmul"):
            report = classify_chain_program(
                assemble_program(name, 2),
                CacheGeometry(**GEOMETRY),
                miss_path=CHAINS["vc4+sb2x4+l2"],
                name=name,
            )
            for site in report.sites:
                if site.kind == "write":
                    assert site.classification in (
                        ChainSiteClass.L1_HIT,
                        ChainSiteClass.UNCLASSIFIED,
                    ), f"{name} {site.site}: {site.classification}"


class TestChainInertLint:
    def test_stream_buffers_on_the_same_code_are_not_inert(self):
        """Sequential ifetch makes the stream buffer provably useful."""
        program = assemble(STRAIGHT_SRC, word_size=2)
        report = classify_chain_program(
            program,
            CacheGeometry(**GEOMETRY),
            miss_path={"stream_buffers": 2},
            name="straight",
        )
        assert report.counts["chain-hit@stream"] >= 1
        assert verify_classification(program, report).ok


class TestReportSchema:
    def test_to_dict_has_chain_key_and_sorted_bounds(self):
        report = classify_chain_program(
            assemble_program("fib", 2),
            CacheGeometry(**GEOMETRY),
            miss_path=CHAINS["vc4+sb2x4+l2"],
            name="fib",
        )
        payload = report.to_dict()
        assert payload["schema_version"] == 2
        assert payload["miss_path"]["key"] == "vc4+sb2x4+l2:4096/0/0@4"
        assert "bounds" not in payload
        assert payload["total_sites"] == len(payload["sites"])

    def test_json_output_is_deterministic(self):
        """Two analyses of the same inputs serialize byte-identically,
        sites in instruction order (the diff-cleanly requirement)."""
        dumps = []
        for _ in range(2):
            report = classify_chain_program(
                assemble_program("qsort", 2),
                CacheGeometry(**GEOMETRY),
                miss_path=CHAINS["l2"],
                name="qsort",
            )
            dumps.append(json.dumps(report.to_dict(), sort_keys=False))
        assert dumps[0] == dumps[1]
        sites = [s["site"] for s in report.to_dict()["sites"]]
        keys = [
            (int(s.split(":")[0]), s.split(":")[1]) for s in sites
        ]
        assert keys == sorted(keys, key=lambda k: (k[0],))

    def test_proof_rows_cover_every_chain_structure(self):
        report = classify_chain_program(
            assemble_program("fib", 2),
            CacheGeometry(**GEOMETRY),
            miss_path=CHAINS["vc4+sb2x4+l2"],
            name="fib",
        )
        rows = report.proof_rows()
        assert [row["structure"] for row in rows] == ["victim", "stream", "l2"]
        for row in rows:
            assert set(row) == {"structure", "proven_hits"}


class TestVerifierSanitize:
    def test_checked_engine_replay(self):
        """sanitize=True replays through the checked engine, which
        cross-asserts the chain conservation laws on every access."""
        program = assemble_program("sieve", 2)
        report = classify_chain_program(
            program,
            CacheGeometry(**GEOMETRY),
            miss_path=CHAINS["vc4+sb2x4+l2"],
            name="sieve",
        )
        result = verify_classification(
            program, report, max_refs=40_000, sanitize=True
        )
        assert result.ok
        assert result.sanitized

    def test_alias_is_the_same_function(self):
        assert verify_chain_classification is verify_classification

