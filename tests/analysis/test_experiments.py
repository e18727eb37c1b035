"""Experiment-runner tests (short traces; full lengths run in benchmarks)."""

import pytest

from repro.analysis.experiments import (
    FIGURE_NETS,
    figure_experiment,
    table6_experiment,
    table7_experiment,
    table8_experiment,
)
from repro.analysis.paper_data import TABLE7, TABLE8
from repro.errors import ConfigurationError
from repro.workloads.suites import default_trace_length

LEN = 12_000  # short but long enough to warm 1 KiB caches


class TestDefaultTraceLength:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_LEN", raising=False)
        assert default_trace_length() == 100_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "5000")
        assert default_trace_length() == 5000

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_LEN", "lots")
        with pytest.raises(ConfigurationError):
            default_trace_length()
        monkeypatch.setenv("REPRO_TRACE_LEN", "0")
        with pytest.raises(ConfigurationError):
            default_trace_length()


class TestTable7Experiment:
    def test_covers_exactly_the_published_grid(self):
        points = table7_experiment("z8000", length=LEN)
        keys = {
            (p.geometry.net_size, p.geometry.block_size, p.geometry.sub_block_size)
            for p in points
        }
        assert keys == set(TABLE7["z8000"])

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            table7_experiment("cray", length=LEN)

    def test_per_trace_results_present(self):
        points = table7_experiment("s370", length=LEN)
        assert set(points[0].per_trace) == {"FGO1", "FCOMP1", "PGO1", "PGO2"}


class TestTable6Experiment:
    def test_rows_and_relative_column(self):
        rows = table6_experiment(length=30_000)
        assert [r.organization for r in rows] == ["360/85", "4-way", "8-way", "16-way"]
        assert rows[0].relative_to_sector == 1.0
        # Set-associative designs beat the sector cache decisively.
        assert rows[1].relative_to_sector < 0.6

    def test_sector_leaves_most_sub_blocks_unreferenced(self):
        rows = table6_experiment(length=30_000)
        sector = rows[0]
        # The paper found 72% never referenced; ours is the same story.
        assert sector.sub_block_utilization < 0.5


class TestTable8Experiment:
    def test_covers_published_configurations(self):
        rows = table8_experiment(length=LEN)
        keys = {
            (
                r.geometry.net_size,
                r.geometry.block_size,
                r.geometry.sub_block_size,
                r.load_forward,
            )
            for r in rows
        }
        assert keys == set(TABLE8)

    def test_load_forward_between_extremes(self):
        rows = {
            (
                r.geometry.net_size, r.geometry.block_size,
                r.geometry.sub_block_size, r.load_forward,
            ): r
            for r in table8_experiment(length=LEN)
        }
        full = rows[(256, 16, 16, False)]
        small = rows[(256, 16, 2, False)]
        forward = rows[(256, 16, 2, True)]
        assert full.miss_ratio <= forward.miss_ratio <= small.miss_ratio
        assert small.traffic_ratio <= forward.traffic_ratio <= full.traffic_ratio

    def test_redundant_loads_are_few(self):
        # Section 4.4: "few redundant loads were made".
        rows = table8_experiment(length=LEN)
        for row in rows:
            if row.load_forward:
                assert row.redundant_fraction < 0.25

    def test_labels(self):
        rows = table8_experiment(length=LEN)
        labels = {row.label for row in rows}
        assert "16,2,LF" in labels and "16,16" in labels


class TestFigureExperiment:
    def test_figure_nets_constant(self):
        assert FIGURE_NETS["part1"] == (32, 128, 512)
        assert FIGURE_NETS["part2"] == (64, 256, 1024)

    def test_grid_per_net(self):
        results = figure_experiment("pdp11", (64, 256), length=LEN)
        assert set(results) == {64, 256}
        assert all(p.geometry.net_size == 64 for p in results[64])
        # Larger caches allow more geometries.
        assert len(results[256]) > len(results[64])

    def test_word_size_limits_sub_blocks_for_32bit(self):
        results = figure_experiment("vax", (256,), length=LEN)
        assert all(p.geometry.sub_block_size >= 4 for p in results[256])
