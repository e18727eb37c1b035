"""Analysis layer: sweeps, experiments, figures, tables, comparisons."""

from repro.analysis.design import DesignGoal, DesignSearch, find_minimum_design
from repro.analysis.experiments import (
    FIGURE_NETS,
    Table6Row,
    Table8Row,
    figure_experiment,
    table6_experiment,
    table7_experiment,
    table8_experiment,
)
from repro.analysis.figures import FigureSeries, figure_series, series_to_csv
from repro.analysis.paper_data import (
    RISCII_MISS_RATIOS,
    RISCII_REMOTE_PC,
    TABLE6,
    TABLE7,
    TABLE8,
    PaperPoint,
    table7_point,
)
from repro.analysis.plotting import ascii_figure
from repro.analysis.report import ShapeReport, compare_shapes
from repro.analysis.stability import (
    StabilityPoint,
    length_sensitivity,
    max_relative_drift,
)
from repro.analysis.sweep import SweepPoint, geometry_grid, sweep
from repro.analysis.tables import format_table6, format_table7, format_table8

__all__ = [
    "DesignGoal",
    "DesignSearch",
    "find_minimum_design",
    "FIGURE_NETS",
    "Table6Row",
    "Table8Row",
    "figure_experiment",
    "table6_experiment",
    "table7_experiment",
    "table8_experiment",
    "FigureSeries",
    "figure_series",
    "RISCII_MISS_RATIOS",
    "RISCII_REMOTE_PC",
    "TABLE6",
    "TABLE7",
    "TABLE8",
    "PaperPoint",
    "table7_point",
    "ascii_figure",
    "ShapeReport",
    "compare_shapes",
    "StabilityPoint",
    "length_sensitivity",
    "max_relative_drift",
    "series_to_csv",
    "SweepPoint",
    "geometry_grid",
    "sweep",
    "format_table6",
    "format_table7",
    "format_table8",
]
