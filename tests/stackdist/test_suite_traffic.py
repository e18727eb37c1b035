"""Real suite traffic: every Table 7 pass member == ReferenceEngine.

The property and grid suites drive the pass engine with synthetic
streams.  This one runs a pdp11 suite trace (10 000 accesses, writes
filtered, as ``run_sweep`` prepares it) through :func:`plan_grid`'s
Table 7 pass groups and compares every member against a
reference-engine run on all 17 counters, under the paper's fill
warm-up and an access-count warm-up, with and without the end-of-run
flush.
"""

from __future__ import annotations

import pytest

from repro.analysis.paper_data import TABLE7
from repro.core.config import CacheGeometry
from repro.engine import ReferenceEngine, prepare_trace
from repro.stackdist import plan_grid, run_group_pass
from repro.workloads.architectures import get_architecture
from repro.workloads.suites import suite_specs

from tests.stackdist.test_grid_equivalence import _COUNTERS

LENGTH = 10_000

REFERENCE = ReferenceEngine()


@pytest.fixture(scope="module")
def pdp11_ed():
    (spec,) = [spec for spec in suite_specs("pdp11") if spec.name == "ED"]
    return prepare_trace(spec.build(LENGTH))


@pytest.mark.parametrize("flush", [False, True])
@pytest.mark.parametrize("warmup", ["fill", 2500])
def test_table7_passes_match_reference(pdp11_ed, warmup, flush):
    word = get_architecture("pdp11").word_size
    geometries = [CacheGeometry(n, b, s) for (n, b, s) in sorted(TABLE7["pdp11"])]
    grid = plan_grid(geometries, replacement="lru", warmup=warmup)
    assert grid.covered > len(geometries) // 2
    for group in grid.groups:
        got_list = run_group_pass(
            pdp11_ed, group.block_size, group.num_sets, group.members,
            word_size=word, flush_at_end=flush,
        )
        for index, member, got in zip(group.geometry_indices, group.members, got_list):
            assert member.warmup == warmup
            want = REFERENCE.run(
                geometries[index], pdp11_ed,
                word_size=word, warmup=warmup, flush_at_end=flush,
            )
            for counter in _COUNTERS:
                assert getattr(want, counter) == getattr(got, counter), (
                    f"{counter} diverged for {geometries[index]} "
                    f"(warmup {warmup!r}, flush {flush})"
                )
