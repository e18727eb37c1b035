"""Grid equivalence: 220 combos, stackdist == reference.

Mirrors ``tests/engine/test_equivalence.py``'s randomized sweep, but on
the stack-distance engine's coverable subset (LRU, any fetch policy,
read/ifetch traces): 4 chunks x 55 seeded combos, each simulated once
through :func:`repro.stackdist.run_group_pass` — grouped with sibling
associativities sharing the (block, sets) pair, exactly as the planner
would batch them, each member under its own fetch policy — and once
per member through the :class:`~repro.engine.ReferenceEngine`,
asserting every counter equal and the three ratios a sweep cell
records bit-identical.

About one combo in five runs a long trace (thousands of accesses of
loops and ping-pong between a few blocks), so distance windows run
long and residencies straddle the warm-up boundary.

A second, 80-combo series plans its groups with :func:`plan_grid`
from geometries whose ways repeat (1 and 2 among them), some asked for
more ways than a one-set cache has blocks (so the geometry clamps
them), and then gives each member its own warm-up and fetch: members
share a residency frame only when both their ways and their warm-up
end agree, and the distance walk trusts short reuses only up to the
smallest member's ways.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import CacheGeometry
from repro.core.fetch import FETCH_NAMES, make_fetch
from repro.engine import ReferenceEngine
from repro.memory.nibble import NIBBLE_MODE_BUS
from repro.runner.runner import _ratios
from repro.stackdist import MemberSpec, plan_grid, run_group_pass
from repro.trace.record import Trace

REFERENCE = ReferenceEngine()

_COUNTERS = (
    "accesses",
    "misses",
    "block_misses",
    "sub_block_misses",
    "accesses_by_kind",
    "misses_by_kind",
    "bytes_accessed",
    "bytes_fetched",
    "redundant_bytes_fetched",
    "transaction_words",
    "evictions",
    "evicted_sub_blocks_referenced",
    "evicted_sub_blocks_total",
    "writebacks",
    "bytes_written_back",
    "bytes_written_through",
    "prefetches",
)


def assert_same_stats(want, got, word_size, where):
    """Every counter equal, and the ratio triple a sweep cell records
    bit-identical: the nibble-mode ratio sums the transaction histogram
    in its dict order, so equal counters alone do not pin it."""
    for counter in _COUNTERS:
        assert getattr(want, counter) == getattr(got, counter), (
            f"{counter} diverged for {where}: reference "
            f"{getattr(want, counter)!r} != stackdist {getattr(got, counter)!r}"
        )
    assert _ratios(got, NIBBLE_MODE_BUS, word_size) == _ratios(
        want, NIBBLE_MODE_BUS, word_size
    ), f"ratios diverged for {where}"


def reference_run(geometry, trace, member, word_size, flush_at_end):
    """The reference engine on one pass member's cell."""
    return REFERENCE.run(
        geometry, trace,
        fetch=make_fetch(member.fetch),
        word_size=word_size,
        warmup=member.warmup,
        flush_at_end=flush_at_end,
    )


def _readonly_trace(rng, n, addr_space, max_size, spanning):
    """Sequential ifetch runs + random reads — no writes (coverable)."""
    addrs, kinds, sizes = [], [], []
    pc = rng.randrange(addr_space)
    for _ in range(n):
        if rng.random() < 0.5:
            if rng.random() < 0.6:
                pc += rng.choice((0, 0, 2, 2, 4))
            else:
                pc = rng.randrange(addr_space)
            addrs.append(pc % addr_space)
            kinds.append(2)
            sizes.append(rng.choice((0, 2)))
        else:
            addrs.append(rng.randrange(addr_space))
            kinds.append(0)
            sizes.append(
                rng.choice((0, 1, 2, 4) + ((max_size,) if spanning else ()))
            )
    return Trace(
        np.array(addrs, np.int64),
        np.array(kinds, np.uint8),
        np.array(sizes, np.uint8),
        name="rnd",
    )


def _long_trace(rng, n, addr_space, max_size):
    """Loops over a few hot blocks and ping-pong between two of them,
    broken by sequential ifetch runs and random reads."""
    hot = [rng.randrange(addr_space) for _ in range(rng.randint(2, 24))]
    ping, pong = rng.sample(hot, 2)
    addrs, kinds, sizes = [], [], []
    pc = rng.randrange(addr_space)
    pattern = rng.choice(("loop", "pingpong"))
    for t in range(n):
        roll = rng.random()
        if roll < 0.6:
            if pattern == "loop":
                addr = hot[t % len(hot)] + rng.choice((0, 2))
            else:
                addr = ping if t % 2 else pong
            kind = 0
        elif roll < 0.85:
            pc += rng.choice((0, 2, 2, 4))
            addr, kind = pc, 2
        else:
            addr, kind = rng.randrange(addr_space), 0
        if rng.random() < 0.01:
            pattern = "pingpong" if pattern == "loop" else "loop"
        addrs.append(addr % addr_space)
        kinds.append(kind)
        sizes.append(rng.choice((0, 0, 2, 4, max_size)))
    return Trace(
        np.array(addrs, np.int64),
        np.array(kinds, np.uint8),
        np.array(sizes, np.uint8),
        name="long",
    )


def _random_group(rng):
    """One (trace, block, sets, members, word, flush) pass-group combo."""
    block = rng.choice((4, 8, 16, 32))
    num_sets = rng.choice((1, 2, 4, 8, 32))
    word = rng.choice([w for w in (1, 2, 4) if w <= block])
    subs = [s for s in (1, 2, 4, 8, 16) if word <= s <= block]
    long_run = rng.random() < 0.2
    n = rng.randint(1000, 4000) if long_run else rng.choice((0, 1, 5, 50, 400))
    members = []
    for ways in rng.sample((1, 2, 4, 8, 256), k=rng.randint(1, 3)):
        members.append(
            MemberSpec(
                ways=ways,
                sub_block_size=rng.choice(subs),
                warmup=rng.choice(("fill", 0, 1, n // 2, n, n + 3)),
                fetch=rng.choice(FETCH_NAMES),
            )
        )
    if long_run:
        trace = _long_trace(rng, n, rng.choice((256, 4096, 65536)), 13)
    else:
        trace = _readonly_trace(
            rng, n, rng.choice((64, 256, 4096)), 13,
            spanning=rng.random() < 0.5,
        )
    return trace, block, num_sets, members, word, rng.random() < 0.3


@pytest.mark.parametrize("chunk", range(4))
def test_randomized_grid_equivalence(chunk):
    """220 randomized pass groups, exact counter equality per member."""
    rng = random.Random(7000 + chunk)
    for _ in range(55):
        trace, block, num_sets, members, word, flush = _random_group(rng)
        got_list = run_group_pass(
            trace, block, num_sets, members,
            word_size=word, flush_at_end=flush,
        )
        for member, got in zip(members, got_list):
            geometry = CacheGeometry(
                net_size=block * num_sets * member.ways,
                block_size=block,
                sub_block_size=member.sub_block_size,
                associativity=member.ways,
            )
            want = reference_run(geometry, trace, member, word, flush)
            assert_same_stats(
                want, got, word,
                f"{geometry} member {member} over {trace!r} "
                f"(word {word}, flush {flush})",
            )


def _mixed_group(rng):
    """A planned group whose members repeat ways and mix warm-ups."""
    block = rng.choice((4, 8, 16, 32))
    num_sets = rng.choice((1, 1, 2, 4, 8))
    word = rng.choice([w for w in (1, 2, 4) if w <= block])
    subs = [s for s in (1, 2, 4, 8, 16) if word <= s <= block]
    long_run = rng.random() < 0.3
    n = rng.randint(1000, 3000) if long_run else rng.choice((5, 50, 400))
    geometries = []
    for _ in range(rng.randint(2, 5)):
        ways = rng.choice((1, 1, 2, 2, 4, 8))
        # A one-set cache asked for more ways than it has blocks runs
        # at its block count: the clamp.
        asked = ways * rng.choice((1, 2, 4)) if num_sets == 1 else ways
        geometries.append(
            CacheGeometry(
                net_size=block * num_sets * ways,
                block_size=block,
                sub_block_size=rng.choice(subs),
                associativity=asked,
            )
        )
    (group,) = plan_grid(geometries).groups
    members = [
        replace(
            member,
            warmup=rng.choice(("fill", "fill", 0, 1, n // 3, n // 2, n)),
            fetch=rng.choice(FETCH_NAMES),
        )
        for member in group.members
    ]
    if long_run:
        trace = _long_trace(rng, n, rng.choice((256, 4096)), 13)
    else:
        trace = _readonly_trace(rng, n, rng.choice((64, 256)), 13, spanning=True)
    return trace, geometries, block, num_sets, members, word, rng.random() < 0.3


@pytest.mark.parametrize("chunk", range(2))
def test_mixed_member_groups(chunk):
    """80 planned groups with repeated ways, clamped geometries and
    per-member warm-ups: exact counter equality per member."""
    rng = random.Random(9100 + chunk)
    for _ in range(40):
        trace, geometries, block, num_sets, members, word, flush = _mixed_group(rng)
        got_list = run_group_pass(
            trace, block, num_sets, members, word_size=word, flush_at_end=flush,
        )
        for geometry, member, got in zip(geometries, members, got_list):
            assert member.ways == geometry.ways
            want = reference_run(geometry, trace, member, word, flush)
            assert_same_stats(
                want, got, word,
                f"{geometry} member {member} of {members} over {trace!r} "
                f"(word {word}, flush {flush})",
            )
