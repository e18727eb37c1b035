"""Soundness of the abstract cache analysis (L1 and chain proofs).

The load-bearing suites are differential: every bundled program is
classified statically and then *executed* through a cold (chained)
cache, every access attributed back to its site.  A single
contradicted proof fails the suite — an ``always-hit`` (``l1_class``)
that misses, an ``always-miss`` that hits, a ``first-miss`` that misses
twice, or a ``chain-hit@victim`` access serviced by memory — and no
access is ever silently excluded from the check.  Two grids: the chain
grid {bare, vc4, mc4, sb2x4, l2, vc4+sb2x4+l2} at words 2 and 4, and a
bare-chain L1 grid covering non-sector, sector and load-forward
geometries.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import CacheGeometry
from repro.errors import ConfigurationError, StaticCheckError
from repro.staticcheck.abscache import SiteClass
from repro.staticcheck.abschain import (
    ChainSiteClass,
    classify_chain_program,
    verify_classification,
)
from repro.workloads import assemble_program
from repro.workloads.assembler import assemble
from repro.workloads.programs import PROGRAMS

#: The chain grid every program is verified under.
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

#: (net, block, sub-block, associativity, fetch) for the bare-chain L1
#: grid — one non-sector config, one sector config (sub < block), and
#: one load-forward sector config.
L1_GRID = (
    (256, 16, 16, 2, "demand"),
    (512, 32, 8, 4, "demand"),
    (512, 32, 8, 4, "load-forward"),
)

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


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_l1_differential_soundness(name):
    """No L1 proof contradicted on sector and load-forward geometries."""
    program = assemble_program(name, 2)
    for net, block, sub, assoc, fetch in L1_GRID:
        geometry = CacheGeometry(
            net_size=net, block_size=block,
            sub_block_size=sub, associativity=assoc,
        )
        report = classify_chain_program(
            program, geometry, fetch=fetch, name=name
        )
        assert report.sites, f"{name}: no sites classified"
        result = verify_classification(program, report, max_refs=80_000)
        assert result.ok, (
            f"{name} @ net={net} block={block} sub={sub} assoc={assoc} "
            f"{fetch}: {len(result.violations)} violated proof(s), e.g. "
            f"{result.violations[:3]}"
        )
        assert result.checked + result.unclassified_accesses == result.accesses
        assert result.accesses > 0
        # The analysis must actually prove things, not leave every
        # site unclassified.
        assert any(
            site.l1 is not SiteClass.UNCLASSIFIED for site in report.sites
        ), f"{name}: nothing classified"


def _forge_l1(report, pick, l1):
    """``report`` with the ``l1`` proof of every picked site replaced."""
    return dataclasses.replace(
        report,
        sites=tuple(
            dataclasses.replace(site, l1=l1) if pick(site) else site
            for site in report.sites
        ),
    )


class TestL1Proofs:
    def test_entry_ifetch_is_always_miss(self):
        # The very first instruction fetch starts from an empty cache
        # on every path: the analysis must prove it a miss.
        report = classify_chain_program(
            assemble_program("fib", 2), CacheGeometry(256, 16, 8), name="fib"
        )
        entry = next(s for s in report.sites if s.site == "0:ifetch")
        assert entry.l1 is SiteClass.ALWAYS_MISS
        assert entry.classification is ChainSiteClass.MEMORY_BOUND

    def test_write_site_l1_proof_is_replayed(self):
        """A write miss bypasses the chain, so its site has no chain
        proof; its ``l1`` proof is still checked on every access."""
        program = assemble_program("fib", 2)
        report = classify_chain_program(
            program, CacheGeometry(**GEOMETRY), name="fib"
        )
        write = next(
            site
            for site in report.sites
            if site.kind == "write"
            and site.l1 is SiteClass.ALWAYS_MISS
            and site.classification is ChainSiteClass.UNCLASSIFIED
        )
        forged = _forge_l1(report, lambda site: site is write, SiteClass.ALWAYS_HIT)
        result = verify_classification(program, forged, max_refs=80_000)
        assert not result.ok
        assert {violation[0] for violation in result.violations} == {
            write.site
        }
        assert all(
            violation[2:] == ("hit", "miss") for violation in result.violations
        )

    @pytest.mark.parametrize(
        "forged_l1, expected",
        [
            (SiteClass.ALWAYS_MISS, ("miss", "hit")),
            (SiteClass.FIRST_MISS, ("hit after first occurrence", "miss")),
        ],
        ids=["always-miss", "first-miss"],
    )
    def test_l1_proof_on_a_proofless_site_is_replayed(self, forged_l1, expected):
        """An ``l1`` proof is checked even where the chain proves nothing:
        forging one onto every proof-less site is caught."""
        program = assemble_program("fib", 2)
        report = classify_chain_program(
            program, CacheGeometry(**GEOMETRY), name="fib"
        )
        forged = _forge_l1(
            report,
            lambda site: site.l1 is SiteClass.UNCLASSIFIED
            and site.classification is ChainSiteClass.UNCLASSIFIED,
            forged_l1,
        )
        result = verify_classification(program, forged, max_refs=80_000)
        assert not result.ok
        assert {violation[2:] for violation in result.violations} == {expected}


class TestInputValidation:
    def test_word_larger_than_sub_block_is_rejected(self):
        program = assemble_program("fib", 4)
        with pytest.raises(ConfigurationError, match="sub_block_size"):
            classify_chain_program(program, CacheGeometry(256, 16, 2))

    def test_error_program_is_refused(self):
        bad = assemble("jmp 2\nhalt\n", word_size=2)
        with pytest.raises(StaticCheckError):
            classify_chain_program(bad, CacheGeometry(256, 16, 8), name="bad")

    def test_error_program_accepted_without_check(self):
        bad = assemble("jmp 2\nhalt\n", word_size=2)
        report = classify_chain_program(
            bad, CacheGeometry(256, 16, 8), name="bad", check=False
        )
        assert report.sites


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
    def test_counts_and_fraction_are_consistent(self):
        report = classify_chain_program(
            assemble_program("fib", 2),
            CacheGeometry(256, 16, 8, associativity=2),
            name="fib",
        )
        counts = report.counts
        assert sum(counts.values()) == len(report.sites)
        assert report.classified_fraction == (
            len(report.sites) - counts["unclassified"]
        ) / len(report.sites)

    def test_to_dict_schema(self):
        payload = classify_chain_program(
            assemble_program("fib", 2), CacheGeometry(256, 16, 8), name="fib"
        ).to_dict()
        assert payload["name"] == "fib"
        assert payload["geometry"]["net_size"] == 256
        for site in payload["sites"]:
            assert site["l1_class"] in {cls.value for cls in SiteClass}
            assert site["class"] in {cls.value for cls in ChainSiteClass}

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
