"""Analytical models from the paper's theory section (§3).

These functions predict Rosetta's behaviour from first principles; the
``benchmarks/bench_theory.py`` suite compares them against measurements.

* :func:`goswami_lower_bound_bits` — the information-theoretic lower bound of
  Goswami et al. [44] that §3.1 compares against.
* :func:`rosetta_memory_bound_bits` — the ``1.44 * n * log2(R / eps)`` bound
  achieved by the first-cut equilibrium allocation.
* :func:`compound_subtree_fpr` / :func:`predict_range_fpr` — exact doubt-FPR
  recursion over a level-FPR profile, generalising the §2.3 equilibrium
  identity ``phi * (2 - eps) = 1``.
* :func:`catalan_probe_distribution` / :func:`expected_probes_per_interval` /
  :func:`expected_range_probe_cost` — the Catalan-number probe-count
  analysis of §3.2 for empty ranges.
* :func:`nonuniform_theta` / :func:`expected_range_probe_cost_nonuniform` —
  the same bound for unequal per-level FPRs (§3.2).
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "goswami_lower_bound_bits",
    "rosetta_memory_bound_bits",
    "compound_subtree_fpr",
    "predict_range_fpr",
    "catalan_probe_distribution",
    "expected_probes_per_interval",
    "expected_range_probe_cost",
    "expected_range_probe_cost_nonuniform",
    "nonuniform_theta",
]


def goswami_lower_bound_bits(num_keys: int, max_range: int, fpr: float) -> float:
    """Goswami et al. space lower bound: ``n log(R^(1-O(eps))/eps) - O(n)``.

    We evaluate the dominant term with the ``O(eps)`` exponent correction and
    subtract one bit per key for the ``O(n)`` slack, which makes this a
    conservative (small) bound suitable for "within a constant factor"
    comparisons.
    """
    _check_common(num_keys, max_range, fpr)
    if num_keys == 0:
        return 0.0
    dominant = num_keys * math.log2(max_range ** (1.0 - fpr) / fpr)
    return max(0.0, dominant - num_keys)


def rosetta_memory_bound_bits(num_keys: int, max_range: int, fpr: float) -> float:
    """§3.1's achieved bound: ``log2(e) * n * log2(R / eps) ~= 1.44 n log(R/eps)``."""
    _check_common(num_keys, max_range, fpr)
    if num_keys == 0:
        return 0.0
    return math.log2(math.e) * num_keys * math.log2(max_range / fpr)


def compound_subtree_fpr(level_fprs: Sequence[float]) -> float:
    """Doubt FPR of a subtree whose root sits at the top of ``level_fprs``.

    ``level_fprs[r]`` is the raw Bloom FPR at height ``r`` (leaf first).  For
    an *empty* dyadic range, a doubt at height ``h`` goes positive iff its
    own filter fires AND at least one child subtree doubt survives:

    ``f(0) = p_0``;  ``f(h) = p_h * (1 - (1 - f(h-1))^2)``.

    At the §2.3 equilibrium (``p_h = 1/(2 - eps)`` above a leaf at ``eps``)
    this recursion is stationary: ``f(h) = eps`` at every height.
    """
    if not level_fprs:
        raise ValueError("level_fprs must be non-empty")
    fpr = _checked_fpr(level_fprs[0])
    for raw in level_fprs[1:]:
        p = _checked_fpr(raw)
        fpr = p * (1.0 - (1.0 - fpr) ** 2)
    return fpr


def predict_range_fpr(
    level_fprs: Sequence[float], range_size: int, alignment: int = 1
) -> float:
    """Predicted FPR of an empty range query of ``range_size`` keys.

    Decomposes the concrete range ``[alignment, alignment + range_size - 1]``
    into dyadic intervals (the default ``alignment=1`` is maximally
    misaligned, i.e. the adversarial 2-intervals-per-level case) and
    compounds the per-interval subtree doubt FPRs: ``1 - prod(1 - f_i)``.
    """
    if range_size < 1:
        raise ValueError(f"range_size must be >= 1, got {range_size}")
    if alignment < 0:
        raise ValueError(f"alignment must be >= 0, got {alignment}")
    from repro.core.dyadic import decompose

    max_height = len(level_fprs) - 1
    miss_probability = 1.0
    for interval in decompose(alignment, alignment + range_size - 1, max_height):
        subtree = compound_subtree_fpr(level_fprs[: interval.height + 1])
        miss_probability *= 1.0 - subtree
    return 1.0 - miss_probability


def catalan_probe_distribution(fpr: float, max_terms: int = 256) -> list[float]:
    """``P_i``: probability that a doubt cascade sees exactly ``i`` positives.

    From §3.2: the probes form a binary tree with ``i`` positive internal
    nodes and ``i + 1`` negative leaves, so ``P_i = C_i * p^i * (1-p)^(i+1)``
    with ``C_i`` the i-th Catalan number.  Computed for the idealised
    infinite-depth Rosetta with uniform per-level FPR ``p``.
    """
    p = _checked_fpr(fpr)
    probabilities: list[float] = []
    catalan = 1.0
    for i in range(max_terms):
        probabilities.append(catalan * (p ** i) * ((1.0 - p) ** (i + 1)))
        catalan = catalan * 2 * (2 * i + 1) / (i + 2)
    return probabilities


def expected_probes_per_interval(fpr: float, max_terms: int = 256) -> float:
    """Expected Bloom probes for one dyadic interval of an empty range.

    ``E = sum_i P_i * (2i + 1)``; converges for ``p < 1/2`` and is bounded by
    ``O(1/theta^2)`` with ``p = 0.5 - theta`` (§3.2).
    """
    return sum(
        probability * (2 * i + 1)
        for i, probability in enumerate(catalan_probe_distribution(fpr, max_terms))
    )


def nonuniform_theta(level_fprs: Sequence[float]) -> float:
    """§3.2's θ' for unequal per-level FPRs.

    With ``p_max = max(p_i)`` and ``p_min = min(p_i)``, the doubt cascade
    stays subcritical when ``p_max (1 - p_min) < 1/4``; then
    ``θ' = sqrt(1/4 - p_max (1 - p_min))`` plays the role of θ in the
    ``O(log R / θ'^2)`` probe bound.  Raises when the condition fails
    (the paper's analysis does not apply there).
    """
    if not level_fprs:
        raise ValueError("level_fprs must be non-empty")
    p_max = max(_checked_fpr(p) for p in level_fprs)
    p_min = min(level_fprs)
    product = p_max * (1.0 - p_min)
    if product >= 0.25:
        raise ValueError(
            f"p_max*(1-p_min) = {product:.4f} >= 1/4: the subcritical probe "
            "bound does not apply to this FPR profile"
        )
    return math.sqrt(0.25 - product)


def expected_range_probe_cost_nonuniform(
    level_fprs: Sequence[float], range_size: int, max_terms: int = 256
) -> float:
    """§3.2 non-uniform bound: probes for an empty range, unequal FPRs.

    Uses the paper's substitution ``P_i <= C_i p_max^i (1-p_min)^{i+1}``;
    equivalently the uniform machinery evaluated at the effective
    ``p_eff = 1/2 - θ'`` with θ' from :func:`nonuniform_theta`.
    """
    theta_prime = nonuniform_theta(level_fprs)
    effective_fpr = max(1e-12, 0.5 - theta_prime)
    return expected_range_probe_cost(effective_fpr, range_size, max_terms)


def expected_range_probe_cost(
    fpr: float, range_size: int, max_terms: int = 256
) -> float:
    """Expected total probes for an empty range of ``range_size`` keys.

    Multiplies the per-interval expectation by the maximal dyadic interval
    count ``2 * ceil(log2 R)`` — the §3.2 conclusion that the expected cost
    is ``O(log R / theta^2)``.
    """
    if range_size < 1:
        raise ValueError(f"range_size must be >= 1, got {range_size}")
    intervals = 1 if range_size == 1 else 2 * math.ceil(math.log2(range_size))
    return intervals * expected_probes_per_interval(fpr, max_terms)


def _check_common(num_keys: int, max_range: int, fpr: float) -> None:
    if num_keys < 0:
        raise ValueError(f"num_keys must be >= 0, got {num_keys}")
    if max_range < 1:
        raise ValueError(f"max_range must be >= 1, got {max_range}")
    _checked_fpr(fpr)


def _checked_fpr(fpr: float) -> float:
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"FPR must be in (0, 1), got {fpr}")
    return float(fpr)
