"""Key-set generation and value synthesis for loading the store.

Bundles the distribution samplers into "give me a dataset" helpers: a
distinct key set from a named distribution plus deterministic values of a
configurable size (the paper uses 512-byte values over 64-bit keys).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.distributions import normal_keys, sample_distinct

__all__ = ["Dataset", "generate_dataset", "synthesize_value"]


@dataclass(frozen=True)
class Dataset:
    """A loaded key set plus its generation parameters."""

    keys: np.ndarray  # sorted distinct uint64 keys
    key_bits: int
    distribution: str
    seed: int
    value_size: int

    def __len__(self) -> int:
        return len(self.keys)


def synthesize_value(key: int, value_size: int) -> bytes:
    """A deterministic value for ``key``: the key echoed + filler bytes.

    Values are verifiable (the key is recoverable from the first 8 bytes),
    which integration tests use to detect cross-key corruption.
    """
    if value_size < 8:
        raise WorkloadError(f"value_size must be >= 8, got {value_size}")
    header = (key & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    filler = bytes((key + i) & 0xFF for i in range(min(value_size - 8, 32)))
    if value_size - 8 > 32:
        filler = (filler * ((value_size - 8) // len(filler) + 1))[: value_size - 8]
    return header + filler


def generate_dataset(
    num_keys: int,
    key_bits: int = 64,
    distribution: str = "uniform",
    seed: int = 0,
    value_size: int = 64,
) -> Dataset:
    """Generate a distinct, sorted key set from a named distribution.

    ``distribution`` is ``uniform`` or ``normal`` (the paper's skewed set);
    normal draws are deduplicated, so very tight distributions may yield
    slightly fewer distinct keys than requested at small domains.
    """
    if distribution == "uniform":
        keys = sample_distinct(num_keys, key_bits, seed=seed)
    elif distribution == "normal":
        rng = np.random.default_rng(seed)
        keys = np.unique(normal_keys(int(num_keys * 1.1) + 16, key_bits, rng=rng))
        while len(keys) < num_keys:
            extra = normal_keys(num_keys, key_bits, rng=rng)
            keys = np.unique(np.concatenate([keys, extra]))
        keys = keys[:num_keys]
    else:
        raise WorkloadError(f"unknown distribution {distribution!r}")
    return Dataset(
        keys=keys,
        key_bits=key_bits,
        distribution=distribution,
        seed=seed,
        value_size=value_size,
    )
