"""Unit tests for the pass-group planner (repro.stackdist.planner)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CacheGeometry
from repro.core.fetch import DemandFetch, LoadForwardFetch
from repro.core.misspath import MissPathConfig
from repro.errors import ConfigurationError
from repro.stackdist import plan_grid, trace_coverable
from repro.trace.record import Trace


def _constant_sets_grid():
    """Four geometries sharing (block=16, sets=16): one pass group."""
    return [
        CacheGeometry(
            net_size=256 * assoc, block_size=16,
            sub_block_size=4, associativity=assoc,
        )
        for assoc in (1, 2, 4, 8)
    ]


def _mixed_grid():
    """Two pass-group keys plus the constant-sets quartet."""
    return _constant_sets_grid() + [
        CacheGeometry(net_size=512, block_size=8, sub_block_size=4),
        CacheGeometry(net_size=512, block_size=8, sub_block_size=8),
    ]


def test_plan_groups_by_block_and_sets():
    plan = plan_grid(_mixed_grid())
    assert plan.covered == 6
    assert plan.fallback_indices == ()
    keys = {(g.block_size, g.num_sets) for g in plan.groups}
    assert keys == {(16, 16), (8, 16)}
    by_key = {(g.block_size, g.num_sets): g for g in plan.groups}
    assert by_key[(16, 16)].geometry_indices == (0, 1, 2, 3)
    assert by_key[(8, 16)].geometry_indices == (4, 5)


def test_members_carry_resolved_assoc_sub_and_warmup():
    plan = plan_grid(_constant_sets_grid(), warmup=100)
    (group,) = plan.groups
    assert [m.ways for m in group.members] == [1, 2, 4, 8]
    assert all(m.sub_block_size == 4 for m in group.members)
    assert all(m.warmup == 100 for m in group.members)


def test_singleton_groups_become_one_member_passes():
    grid = [CacheGeometry(512, 8, 4), CacheGeometry(1024, 16, 4)]
    plan = plan_grid(grid)
    assert plan.covered == 2
    assert plan.fallback_indices == ()
    assert [g.geometry_indices for g in plan.groups] == [(0,), (1,)]


def test_groups_run_in_block_then_set_order():
    # The passes of one block size run back to back, so they share its
    # block-order state.
    grid = [
        CacheGeometry(4096, 16, 4), CacheGeometry(512, 8, 4),
        CacheGeometry(1024, 16, 4), CacheGeometry(2048, 8, 8),
        CacheGeometry(256, 16, 16),
    ]
    plan = plan_grid(grid)
    assert [(g.block_size, g.num_sets) for g in plan.groups] == [
        (8, 16), (8, 64), (16, 4), (16, 16), (16, 64),
    ]
    assert [g.geometry_indices for g in plan.groups] == [(1,), (3,), (4,), (2,), (0,)]


def test_members_take_the_clamped_ways():
    # 64 bytes of 16-byte blocks hold 4 blocks: an 8-way request runs
    # as one 4-way set, and the pass must count misses at depth > 4.
    grid = [
        CacheGeometry(64, 16, 4, associativity=8),
        CacheGeometry(64, 16, 8, associativity=4),
    ]
    (group,) = plan_grid(grid).groups
    assert group.num_sets == 1
    assert [m.ways for m in group.members] == [4, 4]


def test_percell_mode_covers_nothing():
    # The per-cell opt-out is an explicit engine: it runs every cell.
    for engine in ("reference", "vectorized", "checked"):
        plan = plan_grid(_constant_sets_grid(), engine=engine)
        assert plan.groups == ()
        assert plan.fallback_indices == (0, 1, 2, 3)
        assert any(engine in blocker for blocker in plan.blockers)
    assert plan_grid(_constant_sets_grid(), engine="auto").covered == 4


def test_unknown_grid_engine_rejected():
    # "auto" is the one grid rule; the retired strategy names are refused.
    for grid_engine in ("warp", "stackdist", "percell", "AUTO"):
        with pytest.raises(ConfigurationError):
            plan_grid(_constant_sets_grid(), grid_engine=grid_engine)


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(replacement="fifo"), "replacement"),
        (dict(sample="100,2"), "sampled"),
        (dict(miss_path=MissPathConfig(victim_entries=2)), "miss-path"),
        (dict(engine="checked"), "checked"),
        (dict(engine="reference"), "reference"),
        (dict(sample="100,2", miss_path=MissPathConfig(victim_entries=2)),
         "miss-path"),
        (dict(injector_active=True), "injector"),
    ],
)
def test_sweep_blockers_force_fallback(kwargs, needle):
    plan = plan_grid(_constant_sets_grid(), **kwargs)
    assert plan.groups == ()
    assert plan.fallback_indices == (0, 1, 2, 3)
    assert any(needle in blocker for blocker in plan.blockers)


def test_cell_timeout_does_not_change_the_plan():
    grid = _constant_sets_grid()
    assert plan_grid(grid, cell_timeout=1.0) == plan_grid(grid)
    assert plan_grid(grid, cell_timeout=1.0).covered == 4


def test_max_cell_accesses_is_refused():
    with pytest.raises(ConfigurationError, match="max_cell_accesses was removed"):
        plan_grid(_constant_sets_grid(), max_cell_accesses=10)


def test_disabled_miss_path_does_not_block():
    plan = plan_grid(_constant_sets_grid(), miss_path=MissPathConfig())
    assert plan.covered == 4


@pytest.mark.parametrize("fetch", [None, "demand", DemandFetch()])
def test_demand_fetch_spellings_all_coverable(fetch):
    plan = plan_grid(_constant_sets_grid(), fetch=fetch)
    assert plan.covered == 4


def test_load_forward_fetch_forms_pass_groups():
    # Every fetch policy runs on a pass; each member carries the
    # sweep's fetch, spelled as CellSpec.of stores it.
    for fetch, name in (
        (LoadForwardFetch(), "load-forward"),
        (LoadForwardFetch(optimized=True), "load-forward-optimized"),
        ("load_forward", "load-forward"),
    ):
        plan = plan_grid(_constant_sets_grid(), fetch=fetch)
        assert plan.covered == 4
        assert plan.blockers == ()
        assert {m.fetch for g in plan.groups for m in g.members} == {name}
    (group,) = plan_grid(_constant_sets_grid()).groups
    assert {member.fetch for member in group.members} == {"demand"}


def test_explicit_percell_engine_blocks_auto_only():
    grid = _constant_sets_grid()
    assert plan_grid(grid, engine="auto").covered == 4
    explicit = plan_grid(grid, engine="vectorized")
    assert explicit.groups == ()
    assert explicit.blockers == ("explicit per-cell engine 'vectorized'",)
    # checked is a sanitizer: it must actually run per cell, always.
    checked = plan_grid(grid, engine="checked")
    assert checked.groups == ()
    assert any("sanitizer" in blocker for blocker in checked.blockers)


def test_trace_coverable_rejects_writes():
    reads = Trace(
        np.array([0, 8, 16], np.int64),
        np.array([0, 2, 0], np.uint8),
        np.zeros(3, np.uint8),
        name="reads",
    )
    writes = Trace(
        np.array([0, 8, 16], np.int64),
        np.array([0, 1, 0], np.uint8),
        np.zeros(3, np.uint8),
        name="writes",
    )
    assert trace_coverable(reads)
    assert not trace_coverable(writes)
    assert not trace_coverable(object())
