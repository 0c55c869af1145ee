"""Hash functions used by the probabilistic filters.

All filters in this library hash *byte strings* or *unsigned integers* through
a small family of 64-bit mixers.  Two properties matter:

* **Determinism across processes** — Python's built-in ``hash`` is salted per
  process, so we implement our own mixers (splitmix64 and an FNV-1a/xxhash
  style avalanche) that are stable, seedable, and fast enough in pure Python.
* **Cheap k-fold hashing** — Bloom filters need ``k`` hash values per key.  We
  use the standard Kirsch–Mitzenmacher double-hashing scheme
  ``h_i(x) = h1(x) + i * h2(x) (mod m)``, which preserves the asymptotic FPR
  of k independent hashes while costing only two base hashes.

Vectorized variants operating on NumPy ``uint64`` arrays are provided for the
bulk construction path, where Rosetta inserts millions of prefixes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

__all__ = [
    "splitmix64",
    "hash_bytes",
    "hash_int",
    "double_hash_indexes",
    "splitmix64_array",
    "bloom_indexes_array",
    "mix_salt",
    "mix_salt_array",
    "derive_filter_salt",
]


def splitmix64(value: int) -> int:
    """Mix a 64-bit integer through the splitmix64 finalizer.

    This is the avalanche function from Vigna's splitmix64 generator; it is a
    bijection on 64-bit integers with excellent diffusion, and is the standard
    cheap mixer for integer-keyed Bloom filters.
    """
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def hash_int(value: int, seed: int = 0) -> int:
    """Hash an unsigned integer (any width) to 64 bits with a seed.

    Values wider than 64 bits are folded 64 bits at a time so that arbitrarily
    long binary prefixes (Rosetta hashes prefixes up to the key length) remain
    well distributed.
    """
    h = splitmix64(seed ^ 0x2545F4914F6CDD1D)
    v = value
    if v < 0:
        raise ValueError("hash_int requires a non-negative integer")
    while True:
        h = splitmix64(h ^ (v & _MASK64))
        v >>= 64
        if v == 0:
            return h


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """Hash a byte string to 64 bits using an FNV-1a core + splitmix finalize.

    Stable across processes and platforms, unlike built-in ``hash``.
    """
    h = (0xCBF29CE484222325 ^ splitmix64(seed)) & _MASK64
    for chunk_start in range(0, len(data) - 7, 8):
        word = int.from_bytes(data[chunk_start : chunk_start + 8], "little")
        h = ((h ^ word) * 0x100000001B3) & _MASK64
        h = splitmix64(h)
    tail_start = len(data) - (len(data) % 8)
    for byte in data[tail_start:]:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    # Mix in the length so prefixes of each other don't collide trivially.
    return splitmix64(h ^ len(data))


def mix_salt(value: int, salt: int) -> int:
    """Re-key a 64-bit hash with a salt; ``salt == 0`` is the identity.

    Filters apply this *after* their base hash so salted and unsalted
    instances can share one base-hash computation (the array kernels hash
    each item once and re-key it per filter).  Salt 0 reproduces
    the historical unsalted hash bit-for-bit, which keeps pre-salting
    serialized filters loadable and parity suites meaningful.
    """
    if salt == 0:
        return value
    return splitmix64(value ^ salt)


def mix_salt_array(values: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized :func:`mix_salt` over a ``uint64`` array."""
    if salt == 0:
        return values
    return splitmix64_array(values ^ np.uint64(salt))


def derive_filter_salt(seed: int, file_number: int, generation: int = 0) -> int:
    """Per-SST filter salt from the store seed, the SST file number and the
    filter's generation.

    ``seed == 0`` disables salting entirely (returns 0).  Otherwise the
    salt is a nonzero splitmix64 mix of seed and file number, so every
    compaction output — which always gets a fresh file number — re-keys
    its filters and any false positives an adversary learned go stale.
    ``generation`` counts the in-place rebuilds of one file's filter (a
    quarantined run keeps its file and gets a new filter): generation 0 is
    the filter written into the file, and each later one is re-keyed
    again.
    """
    if seed == 0:
        return 0
    salt = splitmix64(splitmix64(seed) ^ (file_number & _MASK64))
    if generation:
        salt = splitmix64(salt ^ generation)
    return salt or 1


def double_hash_indexes(h1: int, h2: int, k: int, num_bits: int) -> Iterable[int]:
    """Yield ``k`` bit positions via Kirsch–Mitzenmacher double hashing.

    ``h2`` is forced odd so the probe sequence cycles through all ``num_bits``
    residues when ``num_bits`` is a power of two, and never degenerates to a
    single position.
    """
    h2 |= 1
    pos = h1
    for _ in range(k):
        yield pos % num_bits
        pos = (pos + h2) & _MASK64


# ----------------------------------------------------------------------
# Vectorized variants (bulk insert/probe paths)
# ----------------------------------------------------------------------

def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        z = (values + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def bloom_indexes_array(
    hashes1: np.ndarray, hashes2: np.ndarray, k: int, num_bits: int
) -> np.ndarray:
    """Compute a ``(len(hashes1), k)`` matrix of Bloom bit positions.

    The double-hashing recurrence matches :func:`double_hash_indexes` exactly,
    so scalar and vectorized insert/probe paths agree bit-for-bit.
    """
    h2 = hashes2 | np.uint64(1)
    out = np.empty((len(hashes1), k), dtype=np.uint64)
    pos = hashes1.copy()
    nbits = np.uint64(num_bits)
    with np.errstate(over="ignore"):
        for i in range(k):
            out[:, i] = pos % nbits
            pos = pos + h2
    return out
