"""Memory allocation across Rosetta's Bloom-filter levels (paper §2.3–2.4).

Given a total memory budget ``M`` (bits), the number of keys ``n``, and the
number of kept levels (``max_height + 1``), these strategies decide how many
bits each level's Bloom filter receives.  Levels are indexed by height ``r``
above the leaves: ``r = 0`` is the full-key level that also serves point
queries.

Strategies
----------
``uniform``
    Equal bits per level (the naive baseline the paper argues against).
``equilibrium``
    The first-cut solution of §2.3: the leaf level gets FPR ``eps`` and every
    other level gets ``1 / (2 - eps)`` so that each subtree's compounded FPR
    equals ``eps``; ``eps`` is solved numerically to hit the budget.  This is
    the variant with the 1.44-approximation space guarantee (§3.1).
``optimized``
    The workload-aware allocation of Eq. 3–4: bits proportional to
    ``ln(g(r)/C)`` where ``g`` is the access-frequency model, with negative
    allocations clamped to zero and the remainder re-balanced (water-filling).
``variable``
    §2.4's variable-level filter: same solver but driven by cumulative
    weights ``w(B_r) = sum_{s >= r} g(s)``, which pushes bits toward the
    bottom levels and can empty out upper levels entirely.
``single``
    §2.4's single-level extreme: the entire budget in the leaf filter; range
    queries then probe every key in the range.
``hybrid``
    The paper's workload rule: ``single`` when small ranges (<= 16) dominate
    the observed histogram, else ``variable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core import frequency
from repro.core.bloom import bits_for_fpr
from repro.errors import AllocationError

_BETA = math.log(2.0) ** 2

#: Range size at or below which the paper's hybrid rule prefers single-level.
HYBRID_SMALL_RANGE_CUTOFF = 16

STRATEGIES = ("uniform", "equilibrium", "optimized", "variable", "single", "hybrid")

__all__ = ["LevelAllocation", "allocate", "STRATEGIES", "HYBRID_SMALL_RANGE_CUTOFF"]


@dataclass(frozen=True)
class LevelAllocation:
    """The outcome of an allocation: bits per level plus provenance.

    ``bits_per_level[r]`` is the Bloom-filter size (bits) at height ``r``;
    index 0 is the leaf (full-key) level.
    """

    bits_per_level: tuple[int, ...]
    strategy: str
    weights: tuple[float, ...] = field(default=())


def allocate(
    strategy: str,
    *,
    num_keys: int,
    total_bits: int,
    max_height: int,
    range_size_histogram: Mapping[int, float] | None = None,
) -> LevelAllocation:
    """Split ``total_bits`` across ``max_height + 1`` levels.

    Parameters
    ----------
    strategy:
        One of :data:`STRATEGIES`.
    num_keys:
        Number of keys the filter will index (the paper's ``n``; per the §2.3
        footnote each level is modelled as holding ``n`` items).
    total_bits:
        Total memory budget ``M`` in bits.
    max_height:
        Tallest kept level; the allocation covers heights ``0..max_height``.
    range_size_histogram:
        Observed range-size distribution.  Required only to *specialise* the
        workload-aware strategies; when omitted they assume every query has
        the maximum size ``2^max_height``.
    """
    if strategy not in STRATEGIES:
        raise AllocationError(
            f"unknown allocation strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if num_keys < 0:
        raise AllocationError(f"num_keys must be non-negative, got {num_keys}")
    if total_bits < 0:
        raise AllocationError(f"total_bits must be non-negative, got {total_bits}")
    if max_height < 0:
        raise AllocationError(f"max_height must be >= 0, got {max_height}")

    num_levels = max_height + 1
    if num_keys == 0 or total_bits == 0:
        return LevelAllocation(
            bits_per_level=(0,) * num_levels, strategy=strategy
        )

    if strategy == "hybrid":
        strategy = _resolve_hybrid(range_size_histogram)

    if strategy == "single":
        bits = [0] * num_levels
        bits[0] = total_bits
        return LevelAllocation(bits_per_level=tuple(bits), strategy="single")

    if strategy == "uniform":
        return _finalize([total_bits / num_levels] * num_levels, "uniform")

    if strategy == "equilibrium":
        return _allocate_equilibrium(num_keys, total_bits, num_levels)

    weights = _model_weights(strategy, max_height, range_size_histogram)
    raw = _water_fill(weights, num_keys, total_bits)
    return _finalize(raw, strategy, weights=weights)


# ----------------------------------------------------------------------
# Strategy internals
# ----------------------------------------------------------------------

def _resolve_hybrid(histogram: Mapping[int, float] | None) -> str:
    """Pick single vs variable from the observed range-size mix (§2.4)."""
    if not histogram:
        return "variable"
    total = float(sum(histogram.values()))
    if total <= 0:
        return "variable"
    small = sum(
        mass for size, mass in histogram.items()
        if size <= HYBRID_SMALL_RANGE_CUTOFF
    )
    return "single" if small / total > 0.5 else "variable"


def _model_weights(
    strategy: str, max_height: int, histogram: Mapping[int, float] | None
) -> tuple[float, ...]:
    """Per-level probe weights for the workload-aware strategies."""
    if histogram:
        freqs = frequency.weighted_frequencies(histogram, max_height)
    else:
        freqs = frequency.access_frequencies(1 << max_height)
    if strategy == "variable":
        freqs = frequency.cumulative_weights(freqs)
    return tuple(freqs)


def _allocate_equilibrium(
    num_keys: int, total_bits: int, num_levels: int
) -> LevelAllocation:
    """First-cut FPR equilibrium (§2.3): solve for the leaf FPR ``eps``.

    The leaf level is sized for FPR ``eps`` and every non-terminal level for
    ``1/(2 - eps)``; total memory is monotone decreasing in ``eps``, so a
    binary search pins the budget.
    """

    def total_for(eps: float) -> int:
        non_terminal_fpr = 1.0 / (2.0 - eps)
        leaf = bits_for_fpr(num_keys, eps)
        upper = bits_for_fpr(num_keys, non_terminal_fpr)
        return leaf + (num_levels - 1) * upper

    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = math.sqrt(lo * hi)  # geometric: eps spans many decades
        if total_for(mid) > total_bits:
            lo = mid
        else:
            hi = mid
    eps = hi
    non_terminal_fpr = 1.0 / (2.0 - eps)
    raw = [float(bits_for_fpr(num_keys, non_terminal_fpr))] * num_levels
    raw[0] = float(bits_for_fpr(num_keys, eps))
    # Scale to use exactly the budget (the discrete solve may undershoot).
    scale_base = sum(raw)
    if scale_base > 0:
        raw = [value * total_bits / scale_base for value in raw]
    return _finalize(raw, "equilibrium")


def _water_fill(
    weights: Sequence[float], num_keys: int, total_bits: int
) -> list[float]:
    """Solve Eq. 3 with non-negativity by iterative water-filling.

    The unconstrained optimum is ``M_r = (n / ln^2 2) * ln(w_r / C)`` with
    ``C`` fixed by the budget (Eq. 4).  Whenever a level solves negative, the
    paper zeroes it and re-balances; repeating until feasible is exactly the
    KKT-correct water-filling for this objective.
    """
    active = [r for r, w in enumerate(weights) if w > 0.0]
    bits = [0.0] * len(weights)
    if not active:
        # No level is ever probed under the model; fall back to the leaf so
        # point queries remain protected.
        bits[0] = float(total_bits)
        return bits

    while active:
        h = len(active)
        log_weights = {r: math.log(weights[r]) for r in active}
        ln_c = (sum(log_weights.values()) / h) - (total_bits * _BETA) / (
            num_keys * h
        )
        solved = {r: (num_keys / _BETA) * (log_weights[r] - ln_c) for r in active}
        negative = [r for r, m in solved.items() if m < 0.0]
        if not negative:
            for r, m in solved.items():
                bits[r] = m
            return bits
        # Drop the most-starved levels and re-solve with the full budget
        # spread over the survivors.
        active = [r for r in active if r not in set(negative)]

    # Every level solved negative (tiny budgets): give it all to the most
    # frequently probed level.
    best = max(range(len(weights)), key=lambda r: weights[r])
    bits[best] = float(total_bits)
    return bits


def _finalize(
    raw: Sequence[float], strategy: str, weights: tuple[float, ...] = ()
) -> LevelAllocation:
    """Round to integer bits, steering rounding drift into the leaf level."""
    total = round(sum(raw))
    ints = [int(value) for value in raw]
    drift = total - sum(ints)
    ints[0] = max(0, ints[0] + drift)
    return LevelAllocation(
        bits_per_level=tuple(ints), strategy=strategy, weights=weights
    )
