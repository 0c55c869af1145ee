"""Key/query distributions used across the paper's experiments (§5).

The paper generates keys and query anchor points from *uniform* and
*normal* distributions over a 64-bit domain.  All samplers here are
deterministic given a seed and vectorized via NumPy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "uniform_keys",
    "normal_keys",
    "sample_distinct",
]


def uniform_keys(
    count: int, key_bits: int, seed: int = 0, rng: np.random.Generator | None = None
) -> np.ndarray:
    """``count`` uniform draws from ``[0, 2^key_bits)`` (with repeats)."""
    _check(count, key_bits)
    rng = rng if rng is not None else np.random.default_rng(seed)
    if key_bits <= 63:
        return rng.integers(0, 1 << key_bits, size=count, dtype=np.uint64)
    # Compose 64-bit draws for wider domains (returned as uint64 pairs is
    # overkill here; the paper's domain is 64-bit).
    return rng.integers(0, 1 << 63, size=count, dtype=np.uint64) << np.uint64(1)


def normal_keys(
    count: int,
    key_bits: int,
    seed: int = 0,
    mean_fraction: float = 0.5,
    std_fraction: float = 0.1,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Normally distributed keys — the paper's *skewed* key set (Fig. 5(C)).

    Keys cluster around ``mean_fraction`` of the domain with standard
    deviation ``std_fraction`` of the domain; draws are clamped into range.
    Clustering produces the prefix collisions that hurt trie culling.
    """
    _check(count, key_bits)
    if std_fraction <= 0:
        raise WorkloadError(f"std_fraction must be positive, got {std_fraction}")
    rng = rng if rng is not None else np.random.default_rng(seed)
    domain = float(1 << key_bits)
    raw = rng.normal(mean_fraction * domain, std_fraction * domain, size=count)
    clipped = np.clip(raw, 0, domain - 1)
    return clipped.astype(np.uint64)


def sample_distinct(count: int, key_bits: int, seed: int = 0) -> np.ndarray:
    """``count`` *distinct* uniform keys, sorted (the loaded key set).

    Oversamples and deduplicates; the 2^key_bits domain must comfortably
    exceed ``count``.
    """
    _check(count, key_bits)
    if count > (1 << key_bits) // 2:
        raise WorkloadError(
            f"cannot draw {count} distinct keys from a 2^{key_bits} domain"
        )
    rng = np.random.default_rng(seed)
    keys = np.unique(uniform_keys(int(count * 1.2) + 16, key_bits, rng=rng))
    while len(keys) < count:
        extra = uniform_keys(count, key_bits, rng=rng)
        keys = np.unique(np.concatenate([keys, extra]))
    return keys[:count]


def _check(count: int, key_bits: int) -> None:
    if count < 0:
        raise WorkloadError(f"count must be >= 0, got {count}")
    if not 1 <= key_bits <= 128:
        raise WorkloadError(f"key_bits must be in [1, 128], got {key_bits}")
