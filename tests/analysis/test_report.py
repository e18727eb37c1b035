"""Shape-comparison report tests."""

import pytest

from repro.analysis.paper_data import TABLE7, TABLE8
from repro.analysis.report import compare_shapes


class TestCompareShapes:
    def test_identical_series(self):
        series = {"a": 0.1, "b": 0.2, "c": 0.4}
        report = compare_shapes(series, dict(series))
        assert report.n == 3
        assert report.spearman == pytest.approx(1.0)
        assert report.pair_agreement == 1.0
        assert report.geometric_mean_ratio == pytest.approx(1.0)

    def test_scaled_series_keeps_perfect_rank(self):
        measured = {"a": 0.05, "b": 0.10, "c": 0.20}
        published = {"a": 0.1, "b": 0.2, "c": 0.4}
        report = compare_shapes(measured, published)
        assert report.spearman == pytest.approx(1.0)
        assert report.geometric_mean_ratio == pytest.approx(0.5)

    def test_reversed_series(self):
        measured = {"a": 1.0, "b": 2.0, "c": 3.0}
        published = {"a": 3.0, "b": 2.0, "c": 1.0}
        report = compare_shapes(measured, published)
        assert report.spearman == pytest.approx(-1.0)
        assert report.pair_agreement == 0.0

    def test_only_shared_keys_compared(self):
        report = compare_shapes({"a": 1.0, "x": 9.0}, {"a": 2.0, "y": 9.0})
        assert report.n == 1

    def test_no_shared_keys(self):
        report = compare_shapes({"a": 1.0}, {"b": 1.0})
        assert report.n == 0

    def test_single_point(self):
        report = compare_shapes({"a": 1.0}, {"a": 4.0})
        assert report.n == 1
        assert report.geometric_mean_ratio == pytest.approx(0.25)

    def test_ties_ignored_in_pair_agreement(self):
        measured = {"a": 1.0, "b": 1.0, "c": 2.0}
        published = {"a": 1.0, "b": 2.0, "c": 3.0}
        report = compare_shapes(measured, published)
        # Pair (a, b) is tied in measured and excluded.
        assert report.pair_agreement == 1.0

    def test_ratio_extremes(self):
        measured = {"a": 1.0, "b": 8.0}
        published = {"a": 2.0, "b": 2.0}
        report = compare_shapes(measured, published)
        assert report.min_ratio == pytest.approx(0.5)
        assert report.max_ratio == pytest.approx(4.0)

    def test_summary_is_one_line(self):
        report = compare_shapes({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0})
        assert "\n" not in report.summary()
        assert "spearman" in report.summary()

    def test_tuple_keys_supported(self):
        measured = {(64, 16, 8): 0.2, (64, 8, 8): 0.3}
        published = {(64, 16, 8): 0.4, (64, 8, 8): 0.5}
        assert compare_shapes(measured, published).n == 2


#: Spearman's rho between paper series, as scipy.stats.spearmanr gave
#: them before the report computed rho itself.  Every Table 7 series but
#: VAX's holds ties, so these pin the average-rank handling too.
PAPER_RHO = {
    ("table7", "pdp11", "miss~traffic"): 0.5372634875244421,
    ("table7", "s370", "miss~traffic"): 0.019707130333722508,
    ("table7", "vax", "miss~traffic"): 0.5500821018062397,
    ("table7", "z8000", "miss~traffic"): 0.7200023764150479,
    ("table7", "pdp11~s370", "miss"): 0.8803009575923392,
    ("table7", "pdp11~s370", "traffic"): 0.9418803418803419,
    ("table7", "pdp11~vax", "miss"): 0.98546761570224,
    ("table7", "pdp11~vax", "traffic"): 0.9924786324786324,
    ("table7", "pdp11~z8000", "miss"): 0.9895636362440194,
    ("table7", "pdp11~z8000", "traffic"): 0.95622331732116,
    ("table7", "s370~vax", "miss"): 0.9369098212823909,
    ("table7", "s370~vax", "traffic"): 0.9436234263820471,
    ("table7", "s370~z8000", "miss"): 0.8791843016544825,
    ("table7", "s370~z8000", "traffic"): 0.8668719379647135,
    ("table7", "vax~z8000", "miss"): 0.9813425840311626,
    ("table7", "vax~z8000", "traffic"): 0.9661408949087421,
    ("table8", "all", "miss~traffic"): -0.45454545454545453,
}


def _paper_series(table, rows, field):
    points = TABLE8 if table == "table8" else TABLE7[rows]
    return {key: getattr(point, f"{field}_ratio") for key, point in points.items()}


@pytest.mark.parametrize("table, rows, fields", sorted(PAPER_RHO))
def test_rho_on_the_paper_tables_is_unchanged(table, rows, fields):
    if "~" in fields:  # one table's miss column against its traffic column
        first, second = (_paper_series(table, rows, f) for f in fields.split("~"))
    else:  # one column of two architectures' tables
        first, second = (_paper_series(table, arch, fields) for arch in rows.split("~"))
    rho = compare_shapes(first, second).spearman
    assert rho == pytest.approx(PAPER_RHO[table, rows, fields], abs=1e-12)


def test_tied_ranks_are_averaged():
    # Ranks (1.5, 1.5, 3, 4) against (1, 2, 3, 4): rho = 4.5 / sqrt(4.5 * 5).
    report = compare_shapes(
        {"a": 1.0, "b": 1.0, "c": 2.0, "d": 3.0},
        {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0},
    )
    assert report.spearman == pytest.approx(4.5 / (4.5 * 5) ** 0.5, abs=1e-15)


def test_nan_series_reads_as_ordered():
    report = compare_shapes({"a": float("nan"), "b": 1.0}, {"a": 1.0, "b": 2.0})
    assert report.spearman == 1.0
