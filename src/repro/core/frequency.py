"""Access-frequency model for Rosetta's segment-tree levels (paper §2.3–2.4).

To decide how much memory each Bloom-filter level deserves, Rosetta models
how often a node at each level is probed.  Levels are indexed by *height*
``r`` above the leaves (``r = 0`` is the full-key level).  If every range
query of size ``R`` is issued once, the paper derives the per-node access
frequency ``g(r)`` (Eq. 1–2):

.. math::

    g(r) = \\sum_{0 \\le c \\le \\lfloor\\log R\\rfloor - r} g(r + c, R - 1)

where the single-level term ``g(x, R-1)`` is 1 for ``x`` below
``floor(log2 R)``, ``(R - 2^x + 1)/2^x`` at ``x == floor(log2 R)``, and 0
above.  Intuitively, a query's dyadic decomposition touches one boundary node
per level below its largest block, plus a fractional number of top blocks.

The *variable-level* strategy of §2.4 re-weights each level by the cumulative
frequency of itself and every level above it, which shifts memory toward the
bottom levels: ``w(B_r) = sum_{r <= s <= floor(log R)} g(s)``.

A workload rarely has a single range size; :func:`weighted_frequencies`
averages ``g`` over an observed histogram of range sizes, which is what the
adaptive tuner (:mod:`repro.core.tuning`) feeds the allocator at compaction
time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "floor_log2",
    "single_level_term",
    "access_frequencies",
    "cumulative_weights",
    "weighted_frequencies",
]


def floor_log2(value: int) -> int:
    """Return ``floor(log2(value))`` for a positive integer."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return value.bit_length() - 1


def single_level_term(x: int, range_size: int) -> float:
    """The paper's ``g(x, R-1)`` term (Eq. 2) for one level ``x``."""
    if x < 0:
        raise ValueError(f"level height must be >= 0, got {x}")
    top = floor_log2(range_size)
    if x < top:
        return 1.0
    if x == top:
        return (range_size - (1 << x) + 1) / (1 << x)
    return 0.0


def access_frequencies(range_size: int) -> list[float]:
    """Per-level access frequencies ``g(r)`` for queries of one size (Eq. 1).

    Returns ``g[r]`` for ``r`` in ``0 .. floor(log2 range_size)``; index 0 is
    the leaf (full-key) level.
    """
    if range_size < 1:
        raise ValueError(f"range_size must be >= 1, got {range_size}")
    top = floor_log2(range_size)
    return [
        sum(single_level_term(r + c, range_size) for c in range(top - r + 1))
        for r in range(top + 1)
    ]


def cumulative_weights(frequencies: Sequence[float]) -> list[float]:
    """Variable-level weights: each level plus everything above it (§2.4).

    ``w[r] = sum(frequencies[r:])`` — the suffix sum from that height upward.
    """
    weights: list[float] = []
    running = 0.0
    for freq in reversed(frequencies):
        running += freq
        weights.append(running)
    weights.reverse()
    return weights


def weighted_frequencies(
    range_size_histogram: Mapping[int, float], max_height: int
) -> list[float]:
    """Average ``g(r)`` over an observed distribution of range sizes.

    Parameters
    ----------
    range_size_histogram:
        Maps range size -> observed count (or probability mass).  Sizes are
        clamped into ``[1, 2^(max_height)]``; larger queries still exercise
        every kept level at its cap.
    max_height:
        Height of the tallest kept level (so the result has
        ``max_height + 1`` entries).

    Returns
    -------
    list[float]
        ``g[r]`` averaged over the histogram, normalized by total mass.
        Uniform weights are returned for an empty histogram, which makes the
        optimized allocator degrade gracefully to uniform allocation.
    """
    if max_height < 0:
        raise ValueError(f"max_height must be >= 0, got {max_height}")
    for range_size, mass in range_size_histogram.items():
        if range_size < 1 or mass < 0:
            raise ValueError(
                f"invalid histogram entry: size={range_size}, mass={mass}"
            )
    size = max_height + 1
    total_mass = float(sum(range_size_histogram.values()))
    if total_mass <= 0.0:
        return [1.0] * size

    averaged = [0.0] * size
    cap = 1 << max_height
    for range_size, mass in range_size_histogram.items():
        clamped = min(range_size, cap)
        for r, freq in enumerate(access_frequencies(clamped)):
            averaged[r] += mass * freq
    return [value / total_mass for value in averaged]
