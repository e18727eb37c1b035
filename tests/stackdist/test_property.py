"""Property tests: one-pass stack-distance counters == ReferenceEngine.

The stack-distance engine's whole value proposition is *exact*
equality: every member cell of a pass group must be bit-identical to a
reference-engine run of the same geometry.  Hypothesis drives the
geometry axes (sets x assoc x block x sub-block), warm-up modes,
fetch policies and randomized read/ifetch streams; the assertion
compares every :class:`~repro.core.stats.CacheStats` counter and the
ratio triple a sweep cell records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheGeometry
from repro.core.fetch import FETCH_NAMES
from repro.engine import CheckedEngine
from repro.errors import ConfigurationError
from repro.stackdist import MemberSpec, run_group_pass
from repro.stackdist.engine import set_distances
from repro.trace.record import Trace

from tests.stackdist.test_grid_equivalence import assert_same_stats, reference_run


def _trace(addrs, kinds, sizes):
    return Trace(
        np.array(addrs, np.int64),
        np.array(kinds, np.uint8),
        np.array(sizes, np.uint8),
        name="prop",
    )


def _assert_members_match(
    trace, block_size, num_sets, members, word_size=2, flush_at_end=False
):
    """run_group_pass vs one ReferenceEngine run per member."""
    stats_list = run_group_pass(
        trace, block_size, num_sets, members,
        word_size=word_size, flush_at_end=flush_at_end,
    )
    assert len(stats_list) == len(members)
    for member, got in zip(members, stats_list):
        geometry = CacheGeometry(
            net_size=block_size * num_sets * member.ways,
            block_size=block_size,
            sub_block_size=member.sub_block_size,
            associativity=member.ways,
        )
        want = reference_run(geometry, trace, member, word_size, flush_at_end)
        assert_same_stats(
            want, got, word_size,
            f"member {member} (block {block_size}, sets {num_sets})",
        )


@st.composite
def _pass_group_case(draw):
    """A (trace, block, sets, members) case over the paper's axes."""
    block_size = draw(st.sampled_from([4, 8, 16, 32]))
    num_sets = draw(st.sampled_from([1, 2, 4, 16]))
    n = draw(st.integers(min_value=0, max_value=120))
    addr_space = block_size * num_sets * 24
    addrs = draw(
        st.lists(
            st.integers(min_value=0, max_value=addr_space - 1),
            min_size=n, max_size=n,
        )
    )
    kinds = draw(
        st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n)
    )
    sizes = draw(
        st.lists(st.sampled_from([0, 1, 2, 4]), min_size=n, max_size=n)
    )
    word_size = draw(st.sampled_from([1, 2]))
    subs = [
        s for s in (1, 2, 4, 8, 16) if word_size <= s <= block_size
    ]
    members = []
    # Power-of-two ways only: CacheGeometry requires a power-of-two
    # net_size = block * sets * ways.  Ways may repeat, so members
    # share residency frames, each under its own warm-up.
    for ways in draw(
        st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=5)
    ):
        warmup = draw(
            st.one_of(
                st.just("fill"),
                st.integers(min_value=0, max_value=n + 2),
            )
        )
        members.append(
            MemberSpec(
                ways=ways,
                sub_block_size=draw(st.sampled_from(subs)),
                warmup=warmup,
                fetch=draw(st.sampled_from(FETCH_NAMES)),
            )
        )
    flush = draw(st.booleans())
    return (
        _trace(addrs, kinds, sizes),
        block_size, num_sets, members, word_size, flush,
    )


@settings(max_examples=60, deadline=None)
@given(case=_pass_group_case())
def test_pass_group_matches_reference(case):
    trace, block_size, num_sets, members, word_size, flush = case
    _assert_members_match(
        trace, block_size, num_sets, members,
        word_size=word_size, flush_at_end=flush,
    )


@settings(max_examples=25, deadline=None)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=511), min_size=1, max_size=60
    ),
    ways=st.sampled_from([1, 2, 4]),
)
def test_spot_check_against_checked_engine(addrs, ways):
    """The sanitizing engine agrees too (belt and braces)."""
    trace = _trace(addrs, [0] * len(addrs), [2] * len(addrs))
    member = MemberSpec(ways=ways, sub_block_size=4)
    (got,) = run_group_pass(trace, 8, 4, [member])
    geometry = CacheGeometry(8 * 4 * ways, 8, 4, associativity=ways)
    want = CheckedEngine().run(geometry, trace, warmup="fill")
    assert want.snapshot() == got.snapshot()


def test_unknown_fetch_rejected():
    trace = _trace([0, 8], [0, 0], [0, 0])
    member = MemberSpec(ways=1, sub_block_size=4, fetch="prefetch")
    with pytest.raises(ConfigurationError, match="unknown fetch policy 'prefetch'"):
        run_group_pass(trace, 8, 2, [member])


def test_write_trace_rejected():
    trace = _trace([0, 8], [0, 1], [0, 0])
    with pytest.raises(ConfigurationError, match="read/ifetch"):
        run_group_pass(trace, 8, 2, [MemberSpec(ways=1, sub_block_size=4)])


def test_empty_trace_all_members_zero():
    trace = _trace([], [], [])
    members = [
        MemberSpec(ways=1, sub_block_size=4),
        MemberSpec(ways=4, sub_block_size=8),
    ]
    for stats in run_group_pass(trace, 8, 2, members):
        assert stats.accesses == 0
        assert stats.misses == 0


def test_addresses_too_wide_to_pack_match_reference():
    # Block numbers near 2**58 cannot share an int64 with their index,
    # so the pass sorts them with a plain stable argsort.
    rng = np.random.default_rng(11)
    addrs = (1 << 62) + rng.integers(0, 4096, size=300) * 2
    trace = _trace(addrs.tolist(), rng.choice([0, 2], size=300).tolist(), [2] * 300)
    members = [MemberSpec(ways=ways, sub_block_size=4) for ways in (1, 2, 4)]
    _assert_members_match(trace, 16, 4, members, flush_at_end=True)


def test_set_distances_reads_narrow_integer_dtypes():
    # int32 block numbers that differ only in high bits: arithmetic in
    # their own width would wrap them onto each other.
    rng = np.random.default_rng(5)
    pool = rng.choice(256, size=64, replace=False).astype(np.int64) << 23
    blocks = pool[rng.integers(0, 64, size=300)]
    sets = (blocks >> 23) % 4
    stacks: dict = {}
    want = []
    for block, s in zip(blocks.tolist(), sets.tolist()):
        stack = stacks.setdefault(s, [])
        want.append(stack.index(block) + 1 if block in stack else 0)
        if block in stack:
            stack.remove(block)
        stack.insert(0, block)
    got = set_distances(blocks.astype(np.int32), sets.astype(np.int32))
    assert got.dtype == np.int64
    assert got.tolist() == want
