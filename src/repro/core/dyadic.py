"""Dyadic interval decomposition over an implicit segment tree.

Rosetta translates a range query ``[low, high]`` into probes over *dyadic
ranges*: intervals of the form ``[p * 2^r, (p+1) * 2^r - 1]`` whose members
all share the binary prefix ``p`` of length ``L - r`` (``L`` = key width in
bits).  Any range of size ``R`` decomposes into at most ``2*log2(R)`` maximal
dyadic ranges; together the prefixes form the nodes of an implicit segment
tree (paper §2.1–2.2).

The decomposition here is the standard greedy one: repeatedly peel off the
largest aligned block that starts at ``low`` and fits in the range.  A
``max_height`` cap limits block size to ``2^max_height``, which is how
Rosetta restricts itself to its bottom ``max_height + 1`` Bloom-filter levels
when the maximum query size is bounded (paper §3.1) — and, at
``max_height=0``, degenerates into the single-level per-key probing mode of
§2.4.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.errors import FilterQueryError

__all__ = [
    "DyadicInterval",
    "clamp_to_domain",
    "count_intervals",
    "decompose",
]


class DyadicInterval(NamedTuple):
    """A dyadic block ``[low, low + 2^height - 1]`` with its prefix identity.

    ``prefix`` is the integer value of the shared binary prefix and
    ``height`` the block's level above the leaves, so ``prefix`` has
    ``L - height`` significant bits for key width ``L``.
    """

    prefix: int
    height: int

    @property
    def size(self) -> int:
        """Number of keys covered: ``2^height``."""
        return 1 << self.height

    def low(self) -> int:
        """Smallest key in the block."""
        return self.prefix << self.height

    def high(self) -> int:
        """Largest key in the block."""
        return ((self.prefix + 1) << self.height) - 1


def clamp_to_domain(
    low: int, high: int, key_bits: int
) -> tuple[int, int] | None:
    """Intersect ``[low, high]`` with the key domain ``[0, 2^key_bits)``:
    the filters', the store's and the shard router's one answer for an
    out-of-domain bound.  ``None`` when the range lies wholly outside the
    domain; an inverted range is a caller error and raises.
    """
    if low > high:
        raise FilterQueryError(f"invalid range: low={low} > high={high}")
    low, high = max(low, 0), min(high, (1 << key_bits) - 1)
    return (low, high) if low <= high else None


def decompose(low: int, high: int, max_height: int) -> Iterator[DyadicInterval]:
    """Yield maximal dyadic intervals covering ``[low, high]``, left to right.

    Parameters
    ----------
    low, high:
        Inclusive query bounds, ``0 <= low <= high``.
    max_height:
        Largest permitted block height; blocks never exceed ``2^max_height``
        keys.  Must be >= 0.

    Yields
    ------
    DyadicInterval
        Non-overlapping blocks whose union is exactly ``[low, high]``.
    """
    if low < 0:
        raise ValueError(f"low must be non-negative, got {low}")
    if high < low:
        raise ValueError(f"empty range: low={low} > high={high}")
    if max_height < 0:
        raise ValueError(f"max_height must be >= 0, got {max_height}")

    cursor = low
    while cursor <= high:
        remaining = high - cursor + 1
        # Largest aligned block: limited by the alignment of `cursor`
        # (its trailing zeros), by what still fits, and by the cap.
        align = max_height if cursor == 0 else min(
            max_height, (cursor & -cursor).bit_length() - 1
        )
        fit = remaining.bit_length() - 1
        height = min(align, fit)
        yield DyadicInterval(prefix=cursor >> height, height=height)
        cursor += 1 << height


def count_intervals(low: int, high: int, max_height: int) -> int:
    """How many intervals :func:`decompose` yields, without yielding them.

    O(1) in the range width.  With ``stop = high + 1``: when a multiple of
    ``2^max_height`` lies in ``[low, stop]`` the cover is the full-height
    blocks between the outermost such multiples plus the two ragged ends;
    otherwise the range sits inside one full-height block and splits at the
    multiple of the largest power of two it contains.  Either way a ragged
    end that touches an aligned boundary costs one block per set bit of its
    length.
    """
    stop = high + 1
    first = -(-low >> max_height)
    last = stop >> max_height
    if first <= last:
        return (
            (last - first)
            + ((first << max_height) - low).bit_count()
            + (stop - (last << max_height)).bit_count()
        )
    split_bit = (low ^ stop).bit_length() - 1
    split = (stop >> split_bit) << split_bit
    return (split - low).bit_count() + (stop - split).bit_count()
