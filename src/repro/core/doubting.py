"""Frontier-based, level-synchronous doubting engine (vectorized Algorithm 2).

The paper's range query doubts each dyadic block of the query top-down: probe
the block's prefix, and on a positive recursively probe its two children until
a full root-to-leaf positive path survives or every branch dies.
:class:`~repro.core.rosetta.Rosetta` walks that recursion one Bloom probe at
a time when a range covers few dyadic intervals; this module is the other
kernel, for the one job it wins — one wide range against one filter stack.

At each height, the surviving candidate prefixes of all the range's dyadic
intervals are collected into one flat NumPy array and resolved with **one
bulk Bloom probe per level**.  Work is sliced into rounds of at most
:data:`CHUNK_LEAVES` covered keys, so an oversized range (or the
single-level design of §2.4, where every key of the range is its own
frontier node) never materializes gigabytes, and a range resolved positive
in an early round skips the rest of its intervals, mirroring the sequential
early exit at round granularity.

One range's cover blocks are disjoint, so no prefix enters a level twice and
nothing needs deduplicating.  Reported probe counts are the bulk probes
actually issued: every level's frontier, survivors included (no
per-interval early exit inside a round), so they differ from the walk's for
the same range while the verdict never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bloom import BloomFilter, base_hash_arrays

__all__ = ["CHUNK_LEAVES", "FrontierResult", "doubt_frontier"]

#: Cap on keys covered per round; bounds frontier memory and sets the
#: early-exit granularity for oversized ranges.
CHUNK_LEAVES = 1 << 16


@dataclass
class FrontierResult:
    """Outcome of one frontier sweep."""

    #: ``True`` = the range may be non-empty.
    answer: bool
    #: Bloom probes issued: frontier nodes on charged levels, all rounds.
    probes: int
    #: Dyadic intervals pulled into a round.
    intervals: int
    #: Number of bulk Bloom-probe invocations issued.
    bulk_probe_calls: int


def _decompose_chunk(
    cursor: int, high: int, max_height: int, max_leaves: int
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Greedy dyadic decomposition of ``[cursor, high]``, budget-limited.

    Returns ``(segments, new_cursor, leaves_taken)`` where each segment is
    ``(height, first_prefix, count)`` describing ``count`` consecutive blocks
    of size ``2^height``.  Segment order (and block order within a segment)
    matches :func:`repro.core.dyadic.decompose` exactly; runs of full-height
    blocks in the middle of an oversized range are emitted as one segment so
    a huge span never costs a Python iteration per block.  Always makes
    progress: at least one block is emitted even if it overshoots the budget.
    """
    segments: list[tuple[int, int, int]] = []
    leaves = 0
    while cursor <= high and leaves < max_leaves:
        remaining = high - cursor + 1
        align = max_height if cursor == 0 else min(
            max_height, (cursor & -cursor).bit_length() - 1
        )
        fit = remaining.bit_length() - 1
        height = min(align, fit)
        if height == max_height:
            # Aligned full-height run: take as many blocks as budget and
            # range allow in one go.
            block = 1 << max_height
            n_fit = remaining >> max_height
            n_budget = max(1, -(-(max_leaves - leaves) // block))
            n = min(n_fit, n_budget)
            segments.append((max_height, cursor >> max_height, n))
            cursor += n << max_height
            leaves += n << max_height
        else:
            segments.append((height, cursor >> height, 1))
            cursor += 1 << height
            leaves += 1 << height
    return segments, cursor, leaves


def doubt_frontier(
    levels: Sequence[BloomFilter], low: int, high: int
) -> FrontierResult:
    """Resolve one range doubt against one stack, level-synchronously.

    Parameters
    ----------
    levels:
        The Bloom-filter stack of one Rosetta instance, leaf level first.
    low, high:
        Inclusive bounds with ``0 <= low <= high < 2^64`` (validation and
        clamping are the caller's job).
    """
    max_height = len(levels) - 1
    found = False
    intervals = probes = bulk_probe_calls = 0
    cursor = low
    while cursor <= high and not found:
        segments, cursor, _ = _decompose_chunk(
            cursor, high, max_height, CHUNK_LEAVES
        )
        # This round's roots by height: each segment is a run of
        # consecutive prefixes.
        roots: dict[int, list[np.ndarray]] = {}
        for height, first_prefix, count in segments:
            run = np.uint64(first_prefix) + np.arange(count, dtype=np.uint64)
            roots.setdefault(height, []).append(run)
            intervals += count

        # -- Level-synchronous descent, top height to leaves.
        frontier = np.zeros(0, dtype=np.uint64)
        for height in range(max(roots), -1, -1):
            if height in roots:
                frontier = np.concatenate([frontier, *roots[height]])
            if len(frontier) == 0:
                continue

            # Nodes on an always-positive level survive for free (and are
            # never charged).
            if not levels[height].is_always_positive:
                survivors = levels[height].survivors_hashed(
                    *base_hash_arrays(frontier)
                )
                probes += len(frontier)
                bulk_probe_calls += 1
                frontier = frontier[survivors]

            if height > 0:
                shifted = frontier << np.uint64(1)
                frontier = np.empty(2 * len(shifted), dtype=np.uint64)
                frontier[0::2] = shifted
                frontier[1::2] = shifted | np.uint64(1)
            else:
                found = len(frontier) > 0

    return FrontierResult(
        answer=found,
        probes=probes,
        intervals=intervals,
        bulk_probe_calls=bulk_probe_calls,
    )
