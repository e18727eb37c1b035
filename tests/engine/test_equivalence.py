"""Differential equivalence: vectorized and checked must match reference.

This suite is the engine layer's contract.  Every test simulates the
same (geometry, trace, policies, warmup) on the reference loop, the
vectorized engine and the checked engine, and asserts that every
:class:`~repro.core.stats.CacheStats` counter — including the by-kind
splits and the transaction-words histogram — is *equal*, not
approximately equal.  The checked engine also asserts every cache
invariant and conservation law after each access, so the grid is the
sanitizer's full pass as well.  The randomized sweep covers well over
200 distinct combinations drawn from a seeded generator, so a
semantics drift in any engine fails deterministically.  Each
comparison is repeated through the miss-path :data:`CHAINS`, pinning
the chained engines to the chained reference loop on
``MissPathStats`` as well.
"""

from __future__ import annotations

import dataclasses
import random
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import CacheGeometry
from repro.core.fetch import DemandFetch, LoadForwardFetch
from repro.core.misspath import MissPathConfig
from repro.core.replacement import (
    FIFOReplacement,
    LRUReplacement,
    RandomReplacement,
)
from repro.core.write import WritePolicy
from repro.engine import CheckedEngine, ReferenceEngine, TraceView, VectorizedEngine
from repro.engine.batch import CellSpec, execute_cell, prepare_trace
from repro.engine.kernels import mru_hits
from repro.trace.filters import reads_only
from repro.trace.record import AccessType, Trace
from repro.workloads.suites import suite_trace

REFERENCE = ReferenceEngine()
VECTORIZED = VectorizedEngine()
#: The engines every comparison holds to :data:`REFERENCE`.
CANDIDATES = (VECTORIZED, CheckedEngine())

#: Every comparison also replays every engine through these chains: an
#: empty (disabled) one and a small full one.  Chained candidate runs
#: must equal chained reference runs, ``MissPathStats`` included, and
#: the chain must never move an L1 counter away from the bare run.
CHAINS = (
    MissPathConfig(),
    MissPathConfig(
        victim_entries=2,
        miss_entries=2,
        stream_buffers=2,
        stream_depth=2,
        l2_net_size=2048,
    ),
)

#: Every CacheStats counter an engine can produce.
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


def _assert_counters(expected, actual, what):
    for counter in _COUNTERS:
        assert getattr(expected, counter) == getattr(actual, counter), (
            f"{counter} diverged for {what}: "
            f"{getattr(expected, counter)!r} != {getattr(actual, counter)!r}"
        )


def assert_identical(geometry, trace, **kwargs):
    """Run every engine, bare and chained, and compare every counter
    exactly; returns the bare reference stats."""
    seed = kwargs.pop("replacement_seed", None)

    def run(engine, miss_path=None):
        run_kwargs = dict(kwargs)
        if seed is not None:
            # A fresh, identically-seeded policy per run: the comparison
            # covers the RNG stream, not just the aggregate counts.
            run_kwargs["replacement"] = RandomReplacement(seed=seed)
        return engine.run(geometry, trace, miss_path=miss_path, **run_kwargs)

    what = f"{geometry} over {trace!r} ({kwargs})"
    ref = run(REFERENCE)
    for engine in CANDIDATES:
        _assert_counters(ref, run(engine), f"{engine.name}, {what}")
    for miss_path in CHAINS:
        chained = run(REFERENCE, miss_path)
        _assert_counters(ref, chained, f"bare vs chain {miss_path.key()}, {what}")
        if miss_path.enabled:
            assert chained.misspath.demand_misses == (
                ref.block_misses + ref.sub_block_misses
            )
        else:
            assert chained.misspath is None
        for engine in CANDIDATES:
            got = run(engine, miss_path)
            where = f"{engine.name} chain {miss_path.key()}, {what}"
            _assert_counters(chained, got, where)
            assert got.misspath == chained.misspath, (
                f"MissPathStats diverged for {where}: "
                f"{chained.misspath!r} != {got.misspath!r}"
            )
    return ref


def _random_trace(rng, n, addr_space, max_size, spanning):
    """A synthetic trace mixing sequential ifetch runs and random data."""
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
            kinds.append(rng.choice((0, 0, 1)))
            sizes.append(
                rng.choice((0, 1, 2, 4) + ((max_size,) if spanning else ()))
            )
    return Trace(
        np.array(addrs, np.int64),
        np.array(kinds, np.uint8),
        np.array(sizes, np.uint8),
        name="rnd",
    )


def _random_combo(rng):
    """One random (geometry, trace, policies, warmup) combination."""
    while True:
        net = rng.choice((32, 64, 128, 256, 1024))
        block = rng.choice((4, 8, 16, 32))
        if block > net:
            continue
        sub = rng.choice([s for s in (1, 2, 4, 8, 16) if s <= block])
        assoc = rng.choice((1, 2, 4, 256))
        word = rng.choice([w for w in (1, 2, 4) if w <= sub])
        try:
            geometry = CacheGeometry(
                net_size=net, block_size=block,
                sub_block_size=sub, associativity=assoc,
            )
        except Exception:
            continue
        break
    n = rng.choice((0, 1, 5, 50, 400))
    trace = _random_trace(
        rng, n, rng.choice((64, 256, 4096)), 13, spanning=rng.random() < 0.5
    )
    replacement_cls = rng.choice(
        (LRUReplacement, FIFOReplacement, RandomReplacement)
    )
    kwargs = dict(
        fetch=rng.choice((DemandFetch(), LoadForwardFetch())),
        write_policy=rng.choice(list(WritePolicy)),
        word_size=word,
        warmup=rng.choice(("fill", 0, 1, n // 2, n, n + 3)),
        flush_at_end=rng.random() < 0.3,
    )
    if replacement_cls is RandomReplacement:
        kwargs["replacement_seed"] = rng.randrange(1 << 16)
    else:
        kwargs["replacement"] = replacement_cls()
    return geometry, trace, kwargs


@pytest.mark.parametrize("chunk", range(4))
def test_randomized_equivalence(chunk):
    """220+ randomized combos, exact counter equality on each."""
    rng = random.Random(1000 + chunk)
    for _ in range(55):
        geometry, trace, kwargs = _random_combo(rng)
        assert_identical(geometry, trace, **kwargs)


def test_real_workload_equivalence(z8000_grep_trace):
    for geometry in (
        CacheGeometry(64, 8, 4),
        CacheGeometry(256, 16, 8, associativity=2),
        CacheGeometry(1024, 16, 8),
    ):
        assert_identical(geometry, z8000_grep_trace)
    # The engines' headline input: read-only pdp11 ED on the paper's
    # 1024 B, 16,8 4-way cache.
    pdp11_ed = reads_only(suite_trace("pdp11", "ED", length=8_000))
    assert_identical(CacheGeometry(1024, 16, 8), pdp11_ed)


def test_traceview_input_matches_trace_input(tiny_trace, small_geometry):
    direct = VECTORIZED.run(small_geometry, tiny_trace)
    viewed = VECTORIZED.run(small_geometry, TraceView.of(tiny_trace))
    assert direct.snapshot() == viewed.snapshot()
    assert direct.transaction_words == viewed.transaction_words


def test_empty_trace(small_geometry):
    empty = Trace([], [], [], name="empty")
    stats = assert_identical(small_geometry, empty)
    assert stats.accesses == 0


def test_warmup_boundaries(tiny_trace, small_geometry):
    n = len(tiny_trace)
    for warmup in (0, 1, n - 1, n, n + 1, "fill"):
        assert_identical(small_geometry, tiny_trace, warmup=warmup)


def test_write_back_dirty_eviction(random_trace):
    geometry = CacheGeometry(64, 8, 4, associativity=1)
    stats = assert_identical(
        geometry, random_trace,
        write_policy=WritePolicy.WRITE_BACK, flush_at_end=True,
    )
    assert stats.writebacks > 0  # the combo actually exercised the path


def test_spanning_accesses_hit_both_paths(small_geometry):
    # Accesses that cross block boundaries take the engines' scalar
    # multi-block paths; keep a dense fixed case for exact coverage.
    trace = Trace(
        [0, 12, 12, 28, 30, 60, 60, 2],
        [0, 0, 0, 2, 0, 1, 0, 2],
        [8, 12, 12, 2, 20, 6, 6, 2],
        name="span",
    )
    stats = assert_identical(small_geometry, trace, warmup=0)
    assert stats.accesses == len(trace)


def test_random_replacement_stream_parity(random_trace):
    # Same seed, same victim sequence — the vectorized engine must
    # consume the policy RNG exactly as the reference loop does.
    geometry = CacheGeometry(128, 16, 8, associativity=4)
    assert_identical(
        geometry, random_trace, replacement_seed=7, warmup=0,
        flush_at_end=True,
    )


def test_load_forward_redundant_bytes(z8000_grep_trace):
    geometry = CacheGeometry(256, 16, 4, associativity=2)
    stats = assert_identical(
        geometry, z8000_grep_trace, fetch=LoadForwardFetch()
    )
    assert stats.bytes_fetched > 0


# -- Skipped set-local MRU hits ------------------------------------------
#
# The vectorized engine walks only the run heads that can change cache
# state: a read whose set's previous head touched the same block and
# whose sub-blocks earlier reads of that stretch already needed is left
# to the access counters.  Each case below is a shape where skipping
# one head too many changes a counter.

R, W, I = int(AccessType.READ), int(AccessType.WRITE), int(AccessType.IFETCH)


def _trace(*accesses, name="mru"):
    addrs, kinds, sizes = zip(*accesses)
    return Trace(list(addrs), list(kinds), list(sizes), name=name)


def _skipped(geometry, trace, word_size=2):
    """The run heads the vectorized engine leaves unwalked, by index."""
    view = TraceView.of(trace)
    sets, tags = view.set_and_tag(geometry)
    needed, span, starts = view.demand(geometry, word_size)
    skip = mru_hits(starts, sets, tags, trace.kinds, needed, span)
    return starts[skip].tolist()


def test_a_spill_into_the_set_restarts_its_stretch():
    # Direct-mapped, 4 sets of 16 B.  The read at 56 spans blocks 3 and
    # 4; block 4 maps to set 0 and evicts block 0 mid-stretch, so the
    # reads of block 0 after it miss again.
    geometry = CacheGeometry(64, 16, 8, associativity=1)
    trace = _trace((0, R, 2), (8, R, 2), (0, R, 2), (56, R, 16),
                   (0, R, 2), (8, R, 2), (0, R, 2))
    assert _skipped(geometry, trace) == [2, 6]
    stats = assert_identical(geometry, trace, warmup=0)
    assert stats.misses == 5


def test_a_spanning_read_is_walked_even_when_its_first_block_is_mru():
    # The read at 14 needs sub-block 1 of block 0, which the read at 8
    # brought in; its spill into block 1 still has to run.
    geometry = CacheGeometry(64, 16, 8, associativity=1)
    trace = _trace((0, R, 2), (8, R, 2), (14, R, 4), (16, R, 2), (8, R, 2))
    assert _skipped(geometry, trace) == []
    stats = assert_identical(geometry, trace, warmup=0)
    assert stats.misses == 3


def test_a_one_set_span_spills_into_its_own_set():
    # One set of two ways: the span needs sub-block 1 of block 0, then
    # fills block 1, so block 0 is no longer MRU and the read at 8 that
    # follows must be walked to make it MRU again before block 2's fill.
    geometry = CacheGeometry(32, 16, 8, associativity=2)
    assert geometry.num_sets == 1
    trace = _trace((0, R, 2), (8, R, 2), (14, R, 4), (8, R, 2),
                   (32, R, 2), (16, R, 2), (0, R, 2))
    assert _skipped(geometry, trace) == []
    for replacement in (LRUReplacement, FIFOReplacement):
        assert_identical(geometry, trace, warmup=0, replacement=replacement())
    direct = CacheGeometry(16, 16, 8, associativity=1)
    assert_identical(direct, trace, warmup=0)


#: Reads that hit their set's MRU block (indices 2, 3, 6 and 7 are
#: skipped heads), a repeated read run and a repeated write run.
_WARMUP_TRACE = _trace(
    (0, R, 2), (8, R, 2), (0, R, 2), (8, R, 2), (16, I, 2), (16, I, 2),
    (0, R, 2), (8, R, 2), (8, W, 2), (8, W, 2), (8, W, 2), (0, R, 2),
    (32, R, 2), (0, R, 2),
)


def test_an_integer_warmup_on_a_skipped_head():
    geometry = CacheGeometry(64, 16, 8, associativity=1)
    skipped = _skipped(geometry, _WARMUP_TRACE)
    assert {2, 3, 6, 7} <= set(skipped)
    for write_policy in WritePolicy:
        for warmup in range(len(_WARMUP_TRACE) + 2):
            assert_identical(
                geometry, _WARMUP_TRACE, warmup=warmup,
                write_policy=write_policy,
            )


def test_a_fill_warmup_followed_by_skipped_hits():
    # Two 1-way sets: the read at 16 fills the cache, so counting starts
    # with its repeat; of the hits after it, only the first reads of
    # sub-block 1 (at 24 and at 8) are walked.
    geometry = CacheGeometry(32, 16, 8, associativity=1)
    trace = _trace((0, R, 2), (16, R, 2), (16, R, 2), (24, R, 2),
                   (16, R, 2), (24, R, 2), (0, R, 2), (8, R, 2), (0, R, 2))
    assert _skipped(geometry, trace) == [4, 5, 6, 8]
    stats = assert_identical(geometry, trace, warmup="fill")
    assert (stats.accesses, stats.misses) == (7, 2)


def test_no_allocate_write_misses_then_reads_of_the_block():
    # Without allocation the write run misses; the first read of the
    # block after it must be walked (no earlier read needed it) and
    # fetch.  The write to block 4 ends the stretch (an allocating
    # policy evicts block 0 there), so the last read is walked too.
    geometry = CacheGeometry(64, 16, 8, associativity=1)
    trace = _trace((0, W, 2), (0, W, 2), (0, W, 2), (0, R, 2), (0, R, 4),
                   (2, W, 2), (0, R, 2), (8, R, 2), (64, W, 2), (0, R, 2))
    assert _skipped(geometry, trace) == [4, 6]
    for write_policy in WritePolicy:
        assert_identical(geometry, trace, warmup=0, write_policy=write_policy)


class _LeastFrequentlyUsed(LRUReplacement):
    """Evicts the way with the fewest hits since its fill: a repeated
    hit changes state, so it must declare ``idempotent_hits`` False."""

    name = "lfu"
    idempotent_hits = False

    def __init__(self):
        self.hits = 0

    def new_set(self, ways):
        return [0] * ways

    def on_fill(self, state, way):
        state[way] = 1

    def on_hit(self, state, way):
        self.hits += 1
        state[way] += 1

    def victim(self, state):
        return state.index(min(state))


def test_a_non_idempotent_policy_walks_every_access():
    # Two sets of four ways.  Each round rereads block 0 (index 2 is a
    # head LRU would skip, a hit LFU must count) and cycles four more
    # blocks of set 0 through it, so the counts pick the victims.
    geometry = CacheGeometry(128, 16, 8, associativity=4)
    trace = _trace(*[(0, R, 2), (8, R, 2), (0, R, 2), (32, R, 2),
                     (64, R, 2), (96, R, 2), (128, R, 2)] * 20)
    assert _skipped(geometry, trace)
    assert_identical(geometry, trace, warmup=0, replacement=_LeastFrequentlyUsed())
    hits = {}
    for engine in (REFERENCE, VECTORIZED):
        policy = _LeastFrequentlyUsed()
        engine.run(geometry, trace, warmup=0, replacement=policy)
        hits[engine.name] = policy.hits
    assert hits["vectorized"] == hits["reference"] > 0


def test_most_run_heads_of_pdp11_ed_are_skipped():
    # The engines' headline input: every read that stays in its set's
    # MRU block is left to the counters.
    geometry = CacheGeometry(1024, 16, 8)
    trace = reads_only(suite_trace("pdp11", "ED", length=8_000))
    heads = len(TraceView.of(trace).demand(geometry, 2)[2])
    assert len(_skipped(geometry, trace)) >= heads / 2


# -- Wide blocks --------------------------------------------------------
#
# From 63 sub-blocks per block a needed mask no longer fits an int64.
# Each case runs under a wall-clock limit: a wrapped mask once sent the
# vectorized engine's fetch planning into an endless loop that no
# deadline check could reach.


@contextmanager
def _time_limit(seconds):
    """Raise in the body, instead of hanging, once ``seconds`` pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("block, sub, word_size", [
    (128, 2, 2), (64, 1, 1),  # 64 sub-blocks per block
    (256, 2, 2), (128, 1, 1),  # 128 sub-blocks per block
])
@pytest.mark.parametrize("filter_writes", [True, False])
@pytest.mark.parametrize("fetch, replacement", [
    ("demand", "lru"), ("load-forward", "fifo"),
])
def test_wide_blocks_match_reference_through_execute_cell(
    block, sub, word_size, filter_writes, fetch, replacement
):
    prepared = prepare_trace(
        suite_trace("pdp11", "ED", length=3000), filter_writes
    )
    for net in (512, 1024):
        spec = CellSpec(
            CacheGeometry(net, block, sub), fetch=fetch,
            replacement=replacement, word_size=word_size,
        )
        with _time_limit(10):
            expected, _ = execute_cell(
                prepared, dataclasses.replace(spec, engine="reference")
            )
            actual, path = execute_cell(prepared, spec, time.monotonic() + 10)
        assert path == "vectorized"
        _assert_counters(expected, actual, f"{spec.geometry}, {spec}")
        assert actual.to_dict() == expected.to_dict()
