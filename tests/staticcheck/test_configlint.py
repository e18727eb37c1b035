"""Config-lint rule corpus: known-bad geometries with exact rule ids.

The corpus pins the rule id each defect class maps to, so service
clients and CI gates can key on them without parsing messages.
"""

import pytest

from repro.core.config import CacheGeometry
from repro.engine.batch import CellSpec
from repro.errors import StaticCheckError
from repro.staticcheck import (
    CONFIG_RULES,
    Severity,
    error_count,
    format_diagnostics,
    lint_cell,
    lint_geometry,
    lint_grid_axes,
)

#: (net, block, sub, assoc, fetch) -> the exact rule ids expected.
BAD_GEOMETRIES = [
    ((64, 16, 32, 4, None), {"geom-sub-gt-block"}),
    ((100, 16, 8, 4, None), {"geom-pow2"}),
    ((64, 16, 8, 0, None), {"geom-assoc-invalid"}),
    ((64, 16, 8, 3, None), {"geom-assoc-invalid"}),
    ((64, 128, 8, 1, None), {"geom-block-gt-net"}),
    ((64, 16, 16, 4, "load-forward"), {"fetch-lf-single-sub"}),
    ((64, 16, 16, 4, "load-forward-optimized"), {"fetch-lf-single-sub"}),
    ((64, 16, 8, 8, None), {"geom-assoc-clamped"}),
    ((0, 16, 8, 4, None), {"geom-pow2"}),
    ((64, -4, 8, 4, None), {"geom-pow2"}),
    (("1k", 16, 8, 4, None), {"geom-pow2"}),
    ((100, 16, 32, 0, None), {"geom-pow2", "geom-sub-gt-block", "geom-assoc-invalid"}),
]


class TestGeometryCorpus:
    @pytest.mark.parametrize("shape,expected", BAD_GEOMETRIES)
    def test_known_bad_shape_maps_to_exact_rules(self, shape, expected):
        net, block, sub, assoc, fetch = shape
        diagnostics = lint_geometry(net, block, sub, assoc=assoc, fetch=fetch)
        assert {d.rule for d in diagnostics} == expected

    def test_paper_shapes_are_clean(self):
        for net in (32, 64, 256, 1024, 4096):
            for block in (4, 8, 16, 32):
                if block > net:
                    continue
                assoc = min(4, net // block)
                assert lint_geometry(net, block, block // 2 or block, assoc=assoc) == []

    def test_rules_all_documented(self):
        for _, expected in BAD_GEOMETRIES:
            assert expected <= set(CONFIG_RULES)

    def test_single_sub_block_warning_severity(self):
        # table8 legitimately sweeps load-forward cells with sub == block,
        # so this must warn, never error.
        diagnostics = lint_geometry(64, 16, 16, fetch="load-forward")
        assert all(d.severity is Severity.WARNING for d in diagnostics)

    def test_assoc_clamped_is_warning(self):
        diagnostics = lint_geometry(64, 16, 8, assoc=16)
        assert [d.rule for d in diagnostics] == ["geom-assoc-clamped"]
        assert diagnostics[0].severity is Severity.WARNING


class TestCellOptions:
    def test_unknown_fetch_policy(self):
        diagnostics = lint_cell(
            {"fetch": "prefetch-all", "replacement": "lru", "warmup": "fill"}
        )
        assert [d.rule for d in diagnostics] == ["policy-unknown-fetch"]

    def test_unknown_replacement_policy(self):
        diagnostics = lint_cell(
            {"fetch": "demand", "replacement": "mru", "warmup": "fill"}
        )
        assert [d.rule for d in diagnostics] == ["policy-unknown-replacement"]

    @pytest.mark.parametrize("warmup", ["cold", -1, True, 2.5])
    def test_bad_warmup(self, warmup):
        diagnostics = lint_cell({"warmup": warmup})
        assert [d.rule for d in diagnostics] == ["sweep-bad-warmup"]

    @pytest.mark.parametrize("warmup", ["fill", 0, 500, None])
    def test_good_warmup(self, warmup):
        # None: the axis is absent, so it takes its default.
        axes = {"fetch": "demand", "replacement": "lru"}
        if warmup is not None:
            axes["warmup"] = warmup
        assert lint_cell(axes) == []

    def test_axes_mapping_tells_absent_from_null_warmup(self):
        assert lint_cell({"fetch": "demand"}) == []
        diagnostics = lint_cell({"warmup": None})
        assert [d.rule for d in diagnostics] == ["sweep-bad-warmup"]

    def test_null_fetch_is_demand(self):
        assert lint_cell({"fetch": None}) == []

    def test_chain_and_sample_findings_reported_once(self):
        # The chain is linted per L1 shape and the sample per trace
        # length, but a finding that does not depend on either is
        # reported once.
        shapes = [CacheGeometry(256, 16, 8), CacheGeometry(512, 16, 8)]
        diagnostics = lint_cell(
            {"miss_path": {"victim_entires": 4}, "sample": "4000"},
            shapes,
            [1000, 1000],
        )
        assert [d.rule for d in diagnostics] == [
            "misspath-unknown-key", "sample-interval-exceeds-trace"
        ]


class TestGridAxes:
    def test_empty_axis(self):
        diagnostics = lint_grid_axes({"net": []})
        assert [d.rule for d in diagnostics] == ["grid-axis-empty"]
        assert diagnostics[0].location == "net"

    def test_non_integer_axis_value(self):
        diagnostics = lint_grid_axes({"block": [16, "32"]})
        assert [d.rule for d in diagnostics] == ["grid-axis-type"]

    def test_none_axes_skipped(self):
        assert lint_grid_axes({"net": None, "block": [16]}) == []


class TestCheckGeometryGate:
    """``CellSpec.of`` is the gate: it raises on ``lint_cell`` errors."""

    def test_raises_with_full_diagnostics(self):
        with pytest.raises(StaticCheckError) as excinfo:
            CellSpec.of(
                None, fetch="prefetch-all", replacement="mru",
                warmup="cold", word_size=0,
            )
        rules = {d.rule for d in excinfo.value.diagnostics}
        assert rules == {
            "policy-unknown-fetch", "policy-unknown-replacement",
            "sweep-bad-warmup", "sweep-bad-word-size",
        }
        assert "policy-" in str(excinfo.value)

    def test_warnings_pass_through(self):
        diagnostics = lint_cell(
            {"fetch": "load_forward"}, [CacheGeometry(64, 16, 16)]
        )
        assert error_count(diagnostics) == 0
        assert [d.rule for d in diagnostics] == ["fetch-lf-single-sub"]
        assert CellSpec.of(CacheGeometry(64, 16, 16), fetch="load_forward")

    def test_format_orders_errors_first(self):
        diagnostics = lint_geometry(64, 16, 16, assoc=0, fetch="load-forward")
        rendered = format_diagnostics(diagnostics).splitlines()
        assert "[geom-assoc-invalid]" in rendered[0]
        assert "[fetch-lf-single-sub]" in rendered[-1]
