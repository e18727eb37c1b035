"""Fetch policies: demand fetch and load-forward.

On a miss, the fetch policy decides which sub-blocks of the referenced
block to bring in:

* :class:`DemandFetch` — load only the missing sub-blocks the access
  needs (the paper's default; "all cache fetches were done on demand").
* :class:`LoadForwardFetch` — load the target sub-block *and every
  subsequent sub-block of the same block* (Section 4.4), a limited
  prefetch exploiting the forward bias of reference streams.  The
  paper's simple scheme does not remember which sub-blocks are already
  resident and so performs occasional *redundant loads*; pass
  ``optimized=True`` for the more complex variant that skips
  already-valid sub-blocks.

A policy returns a :class:`FetchPlan`: the mask of sub-blocks to
validate, the memory transactions to issue (each a contiguous run of
sub-blocks, which matters for the nibble-mode cost model), and the mask
of redundantly fetched sub-blocks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.block import mask_of_range
from repro.errors import ConfigurationError

#: Every policy's name, as :func:`make_fetch` spells it.
FETCH_NAMES = ("demand", "load-forward", "load-forward-optimized")

__all__ = [
    "FETCH_NAMES",
    "FetchPlan",
    "FetchPolicy",
    "DemandFetch",
    "LoadForwardFetch",
    "make_fetch",
    "contiguous_runs",
]


@dataclass(frozen=True)
class FetchPlan:
    """What one miss fetches.

    Attributes:
        fetch_mask: Sub-blocks to load and mark valid (may include
            already-valid sub-blocks under redundant load-forward).
        transactions: Lengths, in sub-blocks, of the contiguous memory
            transactions issued.
        redundant_mask: Sub-blocks in ``fetch_mask`` that were already
            valid (redundant bus traffic).
    """

    fetch_mask: int
    transactions: Tuple[int, ...]
    redundant_mask: int = 0


def contiguous_runs(mask: int) -> Tuple[int, ...]:
    """Lengths of maximal runs of set bits in ``mask``, low bit first.

    >>> contiguous_runs(0b1101)
    (1, 2)
    """
    runs: List[int] = []
    run = 0
    while mask:
        if mask & 1:
            run += 1
        elif run:
            runs.append(run)
            run = 0
        mask >>= 1
    if run:
        runs.append(run)
    return tuple(runs)


class FetchPolicy(ABC):
    """Interface for miss-time fetch planning."""

    name: str = "abstract"

    @abstractmethod
    def plan(
        self,
        needed_missing: int,
        first_needed: int,
        valid_mask: int,
        sub_blocks_per_block: int,
    ) -> FetchPlan:
        """Plan the fetch for one miss.

        Args:
            needed_missing: Mask of sub-blocks the access needs that
                are currently invalid (non-zero; otherwise it was a
                hit and no plan is requested).
            first_needed: Index of the lowest missing needed sub-block
                — the load-forward target.
            valid_mask: Sub-blocks already valid in the block.
            sub_blocks_per_block: Sub-block count of the geometry.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class DemandFetch(FetchPolicy):
    """Fetch exactly the missing sub-blocks the access touches."""

    name = "demand"

    def plan(
        self,
        needed_missing: int,
        first_needed: int,
        valid_mask: int,
        sub_blocks_per_block: int,
    ) -> FetchPlan:
        return FetchPlan(
            fetch_mask=needed_missing,
            transactions=contiguous_runs(needed_missing),
        )


class LoadForwardFetch(FetchPolicy):
    """Fetch from the target sub-block through the end of the block.

    Args:
        optimized: If True, skip sub-blocks that are already valid
            (possibly splitting the fetch into several transactions);
            if False (the paper's scheme, and the Z80,000's), re-fetch
            them and count the redundant traffic.
    """

    def __init__(self, optimized: bool = False) -> None:
        self.optimized = optimized
        self.name = "load-forward-optimized" if optimized else "load-forward"

    def plan(
        self,
        needed_missing: int,
        first_needed: int,
        valid_mask: int,
        sub_blocks_per_block: int,
    ) -> FetchPlan:
        forward = mask_of_range(first_needed, sub_blocks_per_block - 1)
        if self.optimized:
            fetch = forward & ~valid_mask
            return FetchPlan(
                fetch_mask=fetch,
                transactions=contiguous_runs(fetch),
            )
        return FetchPlan(
            fetch_mask=forward,
            transactions=(sub_blocks_per_block - first_needed,),
            redundant_mask=forward & valid_mask,
        )


def make_fetch(name: str) -> FetchPolicy:
    """Build a fetch policy by name.

    Accepted names: ``demand``, ``load-forward``,
    ``load-forward-optimized``.

    Raises:
        ConfigurationError: For an unknown name.
    """
    key = name.lower().replace("_", "-")
    if key == "demand":
        return DemandFetch()
    if key == "load-forward":
        return LoadForwardFetch(optimized=False)
    if key == "load-forward-optimized":
        return LoadForwardFetch(optimized=True)
    raise ConfigurationError(
        f"unknown fetch policy {name!r}; choose from {list(FETCH_NAMES)}"
    )
