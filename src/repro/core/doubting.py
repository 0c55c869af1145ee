"""Frontier-based, level-synchronous doubting engine (vectorized Algorithm 2).

The paper's range query doubts each dyadic block of the query top-down: probe
the block's prefix, and on a positive recursively probe its two children until
a full root-to-leaf positive path survives or every branch dies.
:class:`~repro.core.rosetta.Rosetta` walks that recursion one Bloom probe at
a time when a call covers few dyadic intervals; this module is the other
kernel, for the one job it wins — many queries, or one wide query, against
one filter stack.

At each height, the surviving candidate prefixes — across all dyadic
intervals of a query and across all queries of the batch — are collected into
flat NumPy arrays and resolved with **one bulk Bloom probe per level**:

* *positional dedup* — a prefix shared by several queries (or several
  intervals) is hashed and probed once per level;
* *ownership tracking* — every frontier node carries the index of the query
  it descends from, so per-query verdicts fall out of one vectorized scatter;
* *chunked expansion* — work is sliced into rounds of at most
  :data:`CHUNK_LEAVES` covered keys, so an oversized range (or the
  single-level design of §2.4, where every key of the range is its own
  frontier node) never materializes gigabytes, and a query resolved positive
  in an early round skips the rest of its intervals, mirroring the
  sequential early exit at round granularity.

Reported probe counts are the bulk probes actually issued: unique prefixes
per level, every level's survivors included (no per-interval early exit
inside a round), so they differ from the walk's for the same queries while
the verdicts never do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bloom import BloomFilter, base_hash_arrays

__all__ = ["CHUNK_LEAVES", "FrontierResult", "doubt_frontier"]

#: Cap on keys covered per round; bounds frontier memory and sets the
#: early-exit granularity for oversized ranges.
CHUNK_LEAVES = 1 << 16

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass
class FrontierResult:
    """Per-call outcome of one frontier sweep."""

    #: One verdict per query (``True`` = range may be non-empty).
    answers: np.ndarray
    #: Bloom probes issued: unique prefixes per level, over all rounds.
    probes: int
    #: Dyadic intervals pulled into a round, over all queries.
    intervals: int
    #: Number of bulk Bloom-probe invocations issued.
    bulk_probe_calls: int


def _decompose_chunk_reference(
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

    This is the original scalar walk, kept as the oracle for the closed-form
    :func:`_decompose_chunk` (the parity tests compare the two bit for bit).
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


#: Per-height shift/mask tables for the closed-form decomposition, keyed by
#: the clamped tree height (at most 64 entries, built once per height seen).
_CLIMB_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _climb_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _CLIMB_TABLES.get(top)
    if cached is None:
        heights = np.arange(1, top, dtype=np.uint64)
        masks = (np.uint64(1) << heights) - np.uint64(1)
        cached = _CLIMB_TABLES[top] = (heights, masks)
    return cached


def _decompose_chunk(
    cursor: int, high: int, max_height: int, max_leaves: int
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Budget-limited dyadic decomposition of ``[cursor, high]``.

    Dispatches between the scalar greedy walk and the closed form: the
    closed form computes the entire cover at once, so it only wins when
    the cover is needed in full (no budget cut) and the climbs are tall
    enough to amortize the NumPy dispatch overhead.  Budget-cut calls
    (where the walk early-exits) and short trees stay scalar.  Batches of
    full-span queries go through :func:`_decompose_batch` instead, which
    amortizes that overhead across the whole round.
    """
    if max_height >= 48 and high - cursor < max_leaves:
        return _decompose_chunk_closed(cursor, high, max_height, max_leaves)
    return _decompose_chunk_reference(cursor, high, max_height, max_leaves)


def _decompose_chunk_closed(
    cursor: int, high: int, max_height: int, max_leaves: int
) -> tuple[list[tuple[int, int, int]], int, int]:
    """Closed-form dyadic decomposition of ``[cursor, high]``, budget-limited.

    Bit-for-bit replacement for :func:`_decompose_chunk_reference`.  The
    greedy largest-aligned-block walk produces exactly the canonical dyadic
    cover, which has a closed form: with ``l_h = ceil(cursor / 2**h)`` and
    ``r_h = floor((high + 1) / 2**h)``, the cover holds

    * a *left-climb* block ``(h, l_h)`` at every height ``h < max_height``
      where ``l_h`` is odd and ``l_h < r_h`` (ascending heights, in cursor
      order);
    * a *middle run* of ``r_H - l_H`` full-height blocks at
      ``H = max_height``;
    * a *right-climb* block ``(h, r_h - 1)`` at every height where ``r_h``
      is odd and a block still fits after the left climb
      (``r_h > l_h + (l_h odd)``), descending heights.

    Both sequences are evaluated for all heights at once with two NumPy
    expressions instead of a per-block loop; only the final budget trim
    stays scalar.  Height 0 and the middle run use Python ints so a
    ``2**64 - 1`` bound never overflows ``uint64`` arithmetic.
    """
    if cursor > high or max_leaves <= 0:
        return [], cursor, 0
    ordered: list[tuple[int, int, int]] = []
    if cursor & 1 and max_height > 0:
        ordered.append((0, cursor, 1))
    # Heights above 64 can never emit a climb block for sub-2**64 bounds
    # (l_h is at most 1 there, and r_h can never exceed it by 2); height 64
    # itself fires only for the full-domain query, handled below.
    top = min(max_height, 64)
    right_blocks: list[tuple[int, int]] = []
    if top > 1:
        heights, masks = _climb_tables(top)
        start = np.uint64(cursor)
        stop = np.uint64(high)
        lo = (start >> heights) + ((start & masks) != 0)
        hi = (stop >> heights) + ((stop & masks) == masks)
        odd = np.uint64(1)
        lo_odd = (lo & odd) != 0
        left_idx = np.nonzero(lo_odd & (lo < hi))[0]
        right_idx = np.nonzero(
            ((hi & odd) != 0) & (hi > lo + lo_odd)
        )[0]
        if left_idx.size:
            ordered.extend(
                (h + 1, p, 1)
                for h, p in zip(
                    left_idx.tolist(), lo[left_idx].tolist()
                )
            )
        if right_idx.size:
            right_blocks = list(
                zip(right_idx.tolist(), hi[right_idx].tolist())
            )
    mid_low = (cursor + (1 << max_height) - 1) >> max_height
    mid_high = (high + 1) >> max_height
    if mid_high > mid_low:
        ordered.append((max_height, mid_low, mid_high - mid_low))
    if max_height > 64 and cursor == 0 and high == int(_U64_MAX):
        # Full 64-bit domain under a taller tree: r_64 = 1 (odd), l_64 = 0,
        # so the canonical cover is exactly one height-64 block — and
        # nothing else can coexist with it.
        ordered.append((64, 0, 1))
    for idx, bound in reversed(right_blocks):
        ordered.append((idx + 1, bound - 1, 1))
    if (
        max_height > 0
        and high & 1 == 0
        and high >= cursor + (cursor & 1)
    ):
        ordered.append((0, high, 1))

    # Budget trim, same rules as the greedy walk: whole blocks always land
    # (the first may overshoot), only a middle run is count-truncated.
    segments: list[tuple[int, int, int]] = []
    leaves = 0
    for height, first, count in ordered:
        if leaves >= max_leaves:
            break
        if count > 1:
            block = 1 << height
            budgeted = max(1, -(-(max_leaves - leaves) // block))
            count = min(count, budgeted)
        segments.append((height, first, count))
        leaves += count << height
    return segments, cursor + leaves, leaves


def _decompose_batch(
    cursors: Sequence[int], highs: Sequence[int], tops: Sequence[int]
) -> list[list[tuple[int, int, int]]]:
    """Closed-form dyadic covers for many full ranges at once.

    Returns, per query, the same segment list as
    ``_decompose_chunk(cursor, high, top, span)`` with an unconstraining
    budget — the whole cover, in cursor order.  The left/right climb
    formulas of :func:`_decompose_chunk_closed` are evaluated for every
    query simultaneously on a ``(queries, heights)`` matrix, which is what
    amortizes NumPy's per-call overhead: this is the hot path of the round
    assembly in :func:`doubt_frontier`, where per-query scalar walks used
    to dominate the whole batch sweep.

    Callers guarantee ``cursor <= high`` and ``0 <= top < 64`` per query.
    """
    count = len(cursors)
    cur = np.array(cursors, dtype=np.uint64)
    high = np.array(highs, dtype=np.uint64)
    top = np.array(tops, dtype=np.uint64)
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]

    odd = np.uint64(1)
    has_leaf_level = top > 0
    left0 = ((cur & odd) != 0) & has_leaf_level
    for i in np.nonzero(left0)[0].tolist():
        out[i].append((0, cursors[i], 1))

    hmax = int(top.max())
    if hmax > 1:
        heights, masks = _climb_tables(hmax)
        lo = (cur[:, None] >> heights) + ((cur[:, None] & masks) != 0)
        hi = (high[:, None] >> heights) + ((high[:, None] & masks) == masks)
        valid = heights[None, :] < top[:, None]
        lo_odd = (lo & odd) != 0
        left = lo_odd & (lo < hi) & valid
        right = ((hi & odd) != 0) & (hi > lo + lo_odd) & valid
        qi, hidx = np.nonzero(left)
        if qi.size:
            for i, h, prefix in zip(
                qi.tolist(), hidx.tolist(), lo[qi, hidx].tolist()
            ):
                out[i].append((h + 1, prefix, 1))

    # Middle runs, via the same overflow-safe ceil/floor tricks.  The one
    # remaining wrap — ``high + 1`` for a height-0 tree ending at the
    # uint64 maximum — is patched per row with Python ints.
    top_masks = (np.uint64(1) << top) - odd
    mid_low = (cur >> top) + ((cur & top_masks) != 0)
    mid_high = (high >> top) + ((high & top_masks) == top_masks)
    wrapped = (top == 0) & (high == _U64_MAX)
    for i in np.nonzero(wrapped)[0].tolist():
        out[i].append((0, cursors[i], (1 << 64) - cursors[i]))
    mid = np.nonzero((mid_high > mid_low) & ~wrapped)[0]
    if mid.size:
        for i, first, stop in zip(
            mid.tolist(), mid_low[mid].tolist(), mid_high[mid].tolist()
        ):
            out[i].append((tops[i], first, stop - first))

    if hmax > 1:
        # Right climb, descending heights: flip the columns so nonzero's
        # row-major order yields tallest-first within each query.
        qi, flipped = np.nonzero(right[:, ::-1])
        if qi.size:
            width = right.shape[1]
            cols = width - 1 - flipped
            for i, col, bound in zip(
                qi.tolist(), cols.tolist(), hi[qi, cols].tolist()
            ):
                out[i].append((col + 1, bound - 1, 1))

    right0 = (
        ((high & odd) == 0)
        & has_leaf_level
        & (high >= cur + (cur & odd))
    )
    for i in np.nonzero(right0)[0].tolist():
        out[i].append((0, highs[i], 1))
    return out


def doubt_frontier(
    levels: Sequence[BloomFilter],
    lows: Sequence[int],
    highs: Sequence[int],
) -> FrontierResult:
    """Resolve a batch of range doubts against one stack, level-synchronously.

    Parameters
    ----------
    levels:
        The Bloom-filter stack of one Rosetta instance, leaf level first.
    lows, highs:
        Inclusive query bounds; every query must satisfy
        ``0 <= low <= high < 2^64`` (validation and clamping are the
        caller's job).
    """
    max_height = len(levels) - 1
    num_queries = len(lows)
    answers = np.zeros(num_queries, dtype=bool)
    intervals = 0
    probes = 0
    bulk_probe_calls = 0

    cursors = list(lows)
    pending = deque(range(num_queries))

    while pending:
        # -- Round assembly: pull intervals (in query order, left to right)
        #    until the leaf budget is spent.  Queries whose whole remaining
        #    span fits the budget are decomposed together with one batched
        #    closed-form evaluation (per-query scalar walks used to
        #    dominate the sweep); only the budget-boundary query falls back
        #    to the scalar, early-exiting walk.  Segments stay scalar
        #    triples here; they are materialized into arrays once per level
        #    below.  A query already answered positive by an earlier round
        #    is dropped: that is the early exit.
        budget_left = CHUNK_LEAVES
        round_segments: list[tuple[int, list[tuple[int, int, int]]]] = []
        batched: list[int] = []
        while pending:
            q = pending[0]
            if answers[q]:
                pending.popleft()
                continue
            span = highs[q] - cursors[q] + 1
            if max_height >= 64 or span > budget_left:
                break
            batched.append(q)
            budget_left -= span
            pending.popleft()
        if batched:
            covers = _decompose_batch(
                [cursors[q] for q in batched],
                [highs[q] for q in batched],
                [max_height] * len(batched),
            )
            round_segments.extend(zip(batched, covers))
        while pending and budget_left > 0:
            q = pending[0]
            if answers[q]:
                pending.popleft()
                continue
            segments, cursors[q], used = _decompose_chunk(
                cursors[q], highs[q], max_height, budget_left
            )
            budget_left -= used
            round_segments.append((q, segments))
            if cursors[q] > highs[q]:
                pending.popleft()

        seg_lists: dict[int, tuple[list[int], list[int], list[int]]] = {}
        for q, segments in round_segments:
            for height, first_prefix, count in segments:
                lists = seg_lists.get(height)
                if lists is None:
                    lists = ([], [], [])
                    seg_lists[height] = lists
                lists[0].append(first_prefix)
                lists[1].append(count)
                lists[2].append(q)
                intervals += count
        if not seg_lists:
            continue

        # -- Level-synchronous descent, top height to leaves.
        carry_prefix = np.zeros(0, dtype=np.uint64)
        carry_owner = np.zeros(0, dtype=np.int64)
        for height in range(max(seg_lists), -1, -1):
            lists = seg_lists.get(height)
            if lists is None:
                prefixes, owners = carry_prefix, carry_owner
            else:
                firsts = np.array(lists[0], dtype=np.uint64)
                counts = np.array(lists[1], dtype=np.int64)
                seg_owners = np.array(lists[2], dtype=np.int64)
                if int(counts.max()) == 1:
                    root_prefix, root_owner = firsts, seg_owners
                else:
                    # Expand (first, count) runs: repeat each first and add
                    # its within-run offset.
                    starts = np.cumsum(counts) - counts
                    offsets = (
                        np.arange(int(counts.sum()), dtype=np.int64)
                        - np.repeat(starts, counts)
                    ).astype(np.uint64)
                    root_prefix = np.repeat(firsts, counts) + offsets
                    root_owner = np.repeat(seg_owners, counts)
                prefixes = np.concatenate([carry_prefix, root_prefix])
                owners = np.concatenate([carry_owner, root_owner])
            if len(prefixes) == 0:
                continue

            # Nodes on an always-positive level survive for free (and are
            # never charged).
            if not levels[height].is_always_positive:
                unique, inverse = np.unique(prefixes, return_inverse=True)
                survivors = levels[height].survivors_hashed(
                    *base_hash_arrays(unique)
                )
                mask = np.zeros(len(unique), dtype=bool)
                mask[survivors] = True
                alive = mask[inverse]
                prefixes, owners = prefixes[alive], owners[alive]
                probes += len(unique)
                bulk_probe_calls += 1

            if height > 0:
                shifted = prefixes << np.uint64(1)
                carry_prefix = np.empty(2 * len(prefixes), dtype=np.uint64)
                carry_prefix[0::2] = shifted
                carry_prefix[1::2] = shifted | np.uint64(1)
                carry_owner = np.repeat(owners, 2)
            else:
                answers[owners] = True

    return FrontierResult(
        answers=answers,
        probes=probes,
        intervals=intervals,
        bulk_probe_calls=bulk_probe_calls,
    )
