"""The block-state memo: a reused pass equals a fresh one, bit for bit.

:func:`repro.stackdist.run_group_pass` keeps the block-order state of
its last (trace, block size, word size) in a one-slot memo, so the
passes of one block size at several set counts share it.  Each case
below runs passes that may hit that memo and compares every counter,
``transaction_words`` order included, with a pass that starts from an
empty slot.
"""

from __future__ import annotations

import threading

import numpy as np

import repro.stackdist.engine as engine
from repro.core.stats import CacheStats
from repro.stackdist import MemberSpec, run_group_pass
from repro.trace.record import Trace

_FIELDS = (
    "accesses", "misses", "block_misses", "sub_block_misses",
    "accesses_by_kind", "misses_by_kind", "bytes_accessed",
    "bytes_fetched", "redundant_bytes_fetched", "evictions",
    "evicted_sub_blocks_referenced", "evicted_sub_blocks_total",
)

MEMBERS = (
    MemberSpec(ways=1, sub_block_size=2),
    MemberSpec(ways=2, sub_block_size=4, warmup=40),
    MemberSpec(ways=4, sub_block_size=2, fetch="load-forward"),
    MemberSpec(ways=4, sub_block_size=8, warmup=0),
)


def _bits(stats: CacheStats) -> tuple:
    """Every counter, with the transaction histogram in its dict order."""
    return tuple(getattr(stats, name) for name in _FIELDS) + (
        list(stats.transaction_words.items()),
    )


def _trace(seed: int, n: int = 600) -> Trace:
    """Reads and ifetches over a few hundred bytes, with size-0 accesses
    (their width is the word size) and unaligned ones."""
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(0, 384, size=n).astype(np.int64),
        rng.choice(np.array([0, 2], np.uint8), size=n),
        rng.choice(np.array([0, 0, 1, 2, 4], np.uint8), size=n),
        name=f"memo{seed}",
    )


def _run(trace, block, sets, word=2, members=MEMBERS):
    return [
        _bits(s)
        for s in run_group_pass(trace, block, sets, members, word_size=word)
    ]


def _fresh(trace, block, sets, word=2, members=MEMBERS):
    """A pass that cannot reuse any earlier state."""
    engine._last_blocks = None
    out = _run(trace, block, sets, word, members)
    engine._last_blocks = None
    return out


def test_passes_share_the_block_state_of_one_block_size():
    trace = _trace(1)
    engine._last_blocks = None
    run_group_pass(trace, 8, 2, MEMBERS)
    state = engine._last_blocks[3]
    run_group_pass(trace, 8, 16, MEMBERS)
    assert engine._last_blocks[3] is state
    run_group_pass(trace, 16, 16, MEMBERS)
    assert engine._last_blocks[3] is not state


def test_set_counts_of_one_trace_match_fresh_passes():
    trace = _trace(2)
    shapes = [(8, sets) for sets in (1, 2, 4, 16, 64)] + [(16, 1), (16, 8)]
    want = [_fresh(trace, block, sets) for block, sets in shapes]
    got = [_run(trace, block, sets) for block, sets in shapes]
    assert got == want


def test_word_size_is_part_of_the_key():
    trace = _trace(3)
    members = [MemberSpec(ways=2, sub_block_size=4)]
    want = {
        word: _fresh(trace, 4, 4, word, members) for word in (1, 2, 4)
    }
    assert want[1] != want[4]  # size-0 accesses are a word wide
    for word in (1, 4, 2, 1):
        assert _run(trace, 4, 4, word, members) == want[word]


def test_a_different_trace_object_with_equal_arrays():
    trace = _trace(4)
    want = _fresh(trace, 8, 4)
    _run(trace, 8, 2)
    twin = Trace(
        trace.addrs.copy(), trace.kinds.copy(), trace.sizes.copy(),
        name=trace.name,
    )
    assert _run(twin, 8, 4) == want
    assert _run(trace, 8, 4) == want


def test_interleaved_traces():
    a, b = _trace(5), _trace(6)
    want_a = _fresh(a, 8, 4)
    want_b = _fresh(b, 8, 4)
    assert want_a != want_b
    assert _run(a, 8, 4) == want_a
    assert _run(b, 8, 4) == want_b
    assert _run(a, 8, 4) == want_a


def test_threads_over_two_traces_at_once():
    traces = [_trace(7, n=3000), _trace(8, n=3000)]
    shapes = [(8, 1), (8, 4), (8, 32), (16, 2), (16, 8), (32, 4)]
    want = {
        (i, shape): _fresh(trace, *shape)
        for i, trace in enumerate(traces)
        for shape in shapes
    }
    barrier = threading.Barrier(2)
    failures = []
    passes = []

    def worker(i):
        try:
            barrier.wait()
            for _ in range(4):
                for shape in shapes:
                    if _run(traces[i], *shape) != want[(i, shape)]:
                        failures.append((i, shape))
                    passes.append(i)
        except Exception as exc:  # a thread's exception would be lost
            failures.append((i, repr(exc)))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert len(passes) == 2 * 4 * len(shapes)
