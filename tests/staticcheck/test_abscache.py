"""Soundness of the must/may abstract cache analysis.

The load-bearing suite is the differential one: every bundled program,
over a geometry grid covering non-sector, sector, and load-forward
configurations, is classified statically and then *executed* — the
machine trace is replayed through the concrete cache and every access
is attributed back to its site.  A single statically-proven always-hit
that misses (or always-miss that hits, or first-miss that misses
twice) fails the suite, and no access is ever silently excluded from
the check.
"""

from __future__ import annotations

import pytest

from repro.core.config import CacheGeometry
from repro.errors import ConfigurationError, StaticCheckError
from repro.staticcheck.abscache import (
    SiteClass,
    classify_program,
    predict_knee,
    verify_classification,
)
from repro.workloads import assemble_program
from repro.workloads.assembler import assemble
from repro.workloads.programs import PROGRAMS

#: (net, block, sub-block, associativity, fetch) — one non-sector
#: config, one sector config (sub < block), and one load-forward
#: sector config, as the acceptance grid requires.
GRID = (
    (256, 16, 16, 2, "demand"),
    (512, 32, 8, 4, "demand"),
    (512, 32, 8, 4, "load-forward"),
)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_differential_soundness(name):
    """No proven classification is ever contradicted by execution."""
    program = assemble_program(name, 2)
    for net, block, sub, assoc, fetch in GRID:
        geometry = CacheGeometry(
            net_size=net, block_size=block,
            sub_block_size=sub, associativity=assoc,
        )
        report = classify_program(program, geometry, fetch=fetch, name=name)
        assert report.sites, f"{name}: no sites classified"
        result = verify_classification(
            program, report, max_refs=80_000
        )
        fraction = report.unclassified_fraction
        assert result.ok, (
            f"{name} @ net={net} block={block} sub={sub} assoc={assoc} "
            f"{fetch}: {len(result.violations)} violated proof(s), e.g. "
            f"{result.violations[:3]} (unclassified fraction {fraction:.2f})"
        )
        # No silent exclusions: every replayed access is either checked
        # against a proof or counted as unclassified.
        assert result.checked + result.unclassified_accesses == result.accesses
        assert result.accesses > 0
        # The analysis must actually prove things, not classify
        # everything as unknown (fraction reported in the assert above).
        assert fraction < 1.0, f"{name}: nothing classified ({fraction})"


class TestReport:
    def test_counts_and_fraction_are_consistent(self):
        program = assemble_program("fib", 2)
        report = classify_program(
            program, CacheGeometry(256, 16, 8, associativity=2), name="fib"
        )
        counts = report.counts
        assert sum(counts.values()) == len(report.sites)
        assert report.unclassified_fraction == (
            counts["unclassified"] / len(report.sites)
        )

    def test_to_dict_schema(self):
        program = assemble_program("fib", 2)
        report = classify_program(
            program, CacheGeometry(256, 16, 8), name="fib"
        )
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["name"] == "fib"
        assert payload["geometry"]["net_size"] == 256
        assert payload["total_sites"] == len(payload["sites"])
        for site in payload["sites"]:
            assert site["class"] in {
                "always-hit", "always-miss", "first-miss", "unclassified"
            }

    def test_to_diagnostics_uses_stable_rules(self):
        program = assemble_program("fib", 2)
        report = classify_program(
            program, CacheGeometry(256, 16, 8), name="fib"
        )
        diagnostics = report.to_diagnostics()
        assert len(diagnostics) == len(report.sites)
        for diagnostic in diagnostics:
            assert diagnostic.rule.startswith("abscache-")
            assert diagnostic.source == "fib"
            assert diagnostic.location.startswith("addr 0x")
            assert not diagnostic.is_error

    def test_entry_ifetch_is_always_miss(self):
        # The very first instruction fetch starts from an empty cache
        # on every path: the analysis must prove it a miss.
        program = assemble_program("fib", 2)
        report = classify_program(
            program, CacheGeometry(256, 16, 8), name="fib"
        )
        entry = next(s for s in report.sites if s.site == "0:ifetch")
        assert entry.classification is SiteClass.ALWAYS_MISS


class TestInputValidation:
    def test_word_larger_than_sub_block_is_rejected(self):
        program = assemble_program("fib", 4)
        with pytest.raises(ConfigurationError, match="sub_block_size"):
            classify_program(program, CacheGeometry(256, 16, 2))

    def test_error_program_is_refused(self):
        bad = assemble("jmp 2\nhalt\n", word_size=2)
        with pytest.raises(StaticCheckError):
            classify_program(bad, CacheGeometry(256, 16, 8), name="bad")

    def test_error_program_accepted_without_check(self):
        bad = assemble("jmp 2\nhalt\n", word_size=2)
        report = classify_program(
            bad, CacheGeometry(256, 16, 8), name="bad", check=False
        )
        assert report.sites


class TestPredictKnee:
    NETS = (64, 128, 256, 512, 1024, 2048)

    def test_loop_program_has_a_knee(self):
        knee = predict_knee(
            assemble_program("bubble", 2), self.NETS,
            block_size=16, sub_block_size=8, associativity=4,
        )
        assert knee in self.NETS
        assert knee >= 128  # bubble's hot loop does not fit 64 bytes

    def test_knee_feeds_compare_with_sweep(self):
        from repro.staticcheck.locality import compare_with_sweep, footprint

        class Point:
            def __init__(self, net, miss):
                self.geometry = CacheGeometry(net, 16, 8, associativity=4)
                self.miss_ratio = miss

        program = assemble_program("bubble", 2)
        knee = predict_knee(
            program, self.NETS,
            block_size=16, sub_block_size=8, associativity=4,
        )
        # A curve kneeing exactly where the analysis predicts.
        points = [
            Point(net, 0.5 if net < knee else 0.05) for net in self.NETS
        ]
        comparison = compare_with_sweep(
            footprint(program, name="bubble"), points, classified_knee=knee
        )
        assert comparison.predicted_bytes == knee
        assert comparison.observed_knee_net == knee
        assert comparison.consistent

    def test_loop_free_program_has_no_knee(self):
        flat = assemble("li r0, 1\nadd r0, r0\nhalt\n", word_size=2)
        assert predict_knee(
            flat, self.NETS, block_size=16, sub_block_size=8,
        ) is None
