"""Real suite traffic: every pass member == ReferenceEngine.

The property and grid suites drive the pass engine with synthetic
streams.  This one runs suite traces (10 000 accesses, writes filtered,
as ``run_sweep`` prepares them) through :func:`plan_grid`'s pass groups
and compares every member against a reference-engine run on all 17
counters and the ratio triple, under the paper's fill warm-up and an
access-count warm-up, with and without the end-of-run flush: a pdp11
trace over the Table 7 geometries under demand fetch, and a z8000
trace over Table 8's load-forward geometries (and two with wider
sub-blocks) under both load-forward variants.
"""

from __future__ import annotations

import pytest

from repro.analysis.paper_data import TABLE7, TABLE8
from repro.core.config import CacheGeometry
from repro.engine import prepare_trace
from repro.stackdist import plan_grid, run_group_pass
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import suite_specs

from tests.stackdist.test_grid_equivalence import assert_same_stats, reference_run

LENGTH = 10_000

#: Table 8's load-forward rows plus two wider-sub-block shapes, so a
#: load-forward fill can leave several sub-blocks behind its target.
LOAD_FORWARD = sorted(
    {(n, b, s) for (n, b, s, forward) in TABLE8 if forward}
    | {(1024, 16, 4), (4096, 32, 8)}
)


def _suite_trace(suite, name):
    (spec,) = [spec for spec in suite_specs(suite) if spec.name == name]
    return prepare_trace(spec.build(LENGTH))


@pytest.fixture(scope="module")
def pdp11_ed():
    return _suite_trace("pdp11", "ED")


@pytest.fixture(scope="module")
def z8000_cpp():
    return _suite_trace("z8000", "CPP")


def _assert_passes_match(trace, suite, geometries, warmup, flush, **axes):
    word = get_architecture(suite).word_size
    grid = plan_grid(geometries, replacement="lru", warmup=warmup, **axes)
    assert grid.covered > len(geometries) // 2
    for group in grid.groups:
        got_list = run_group_pass(
            trace, group.block_size, group.num_sets, group.members,
            word_size=word, flush_at_end=flush,
        )
        for index, member, got in zip(group.geometry_indices, group.members, got_list):
            assert member.warmup == warmup
            want = reference_run(geometries[index], trace, member, word, flush)
            assert_same_stats(
                want, got, word,
                f"{geometries[index]} {member} (flush {flush})",
            )


@pytest.mark.parametrize("flush", [False, True])
@pytest.mark.parametrize("warmup", ["fill", 2500])
def test_table7_passes_match_reference(pdp11_ed, warmup, flush):
    geometries = [CacheGeometry(n, b, s) for (n, b, s) in sorted(TABLE7["pdp11"])]
    _assert_passes_match(pdp11_ed, "pdp11", geometries, warmup, flush)


@pytest.mark.parametrize("flush", [False, True])
@pytest.mark.parametrize("warmup", ["fill", 2500])
@pytest.mark.parametrize("fetch", ["load-forward", "load-forward-optimized"])
def test_load_forward_passes_match_reference(z8000_cpp, fetch, warmup, flush):
    geometries = [CacheGeometry(n, b, s) for (n, b, s) in LOAD_FORWARD]
    _assert_passes_match(z8000_cpp, "z8000", geometries, warmup, flush, fetch=fetch)
