"""Standard Bloom filter, the building block of Rosetta.

A Rosetta instance (see :mod:`repro.core.rosetta`) is a stack of these, one
per binary-prefix length.  The filter accepts integer items (binary prefixes
are represented as non-negative Python ints, paired externally with their
length) or byte strings, hashes them with the stable mixers from
:mod:`repro.core.hashing`, and spreads ``k`` probes via double hashing.

A filter constructed with ``num_bits == 0`` is a degenerate *always-positive*
filter.  Rosetta's memory-allocation strategies legitimately assign zero bits
to some levels (Eq. 3 of the paper clamps negative allocations to zero); such
levels must never prune, so membership queries on them return ``True``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.bitarray import BitArray
from repro.core.hashing import (
    bloom_indexes_array,
    double_hash_indexes,
    hash_bytes,
    hash_int,
    mix_salt,
    mix_salt_array,
    splitmix64,
    splitmix64_array,
)
from repro.errors import FilterBuildError, FilterQueryError, SerializationError

_SEED1 = 0x9AE16A3B2F90404F
_SEED2 = 0xC3A5C85C97CB3127

# hash_int's seed stage, computed once: for an item below 2^64,
# hash_int(item, seed) == splitmix64(item ^ stage).  Both probe kernels (the
# scalar one in BloomFilter.may_contain, the vector one in base_hash_arrays)
# start from these.
_H1_STAGE = splitmix64(_SEED1 ^ 0x2545F4914F6CDD1D)
_H2_STAGE = splitmix64(_SEED2 ^ 0x2545F4914F6CDD1D)

# splitmix64's constants, for the copy of it inlined in BloomFilter.may_contain.
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LN2 = math.log(2.0)

#: Largest probe group the per-item loop answers faster than the NumPy
#: kernel.  Measured on the ledger's filter shape (the leaf of a 2 k-key run
#: at 22 bits/key: 12 k bits, k = 4), both kernels timed back to back on the
#: same group; scalar time over vector time:
#:
#:   items          1     8    16    32    36    40    44    48    52    56    64
#:   half present  .05   .23   .48   .80  1.00  1.02  1.17  1.34  1.20  1.43  1.53
#:   all absent    .04   .21   .38   .70   .74   .82   .95   .97  1.04  1.12  1.20
#:
#: The vector kernel costs a flat ~70 us for 1..72 items; the scalar probe
#: ~1.8 us an item in a half-present group and ~1.4 us in an all-absent one
#: (an absent item stops at its first clear bit), so they cross at 36-40 and
#: at ~50 items and the constant sits between the two.  LSM point reads sit
#: far to either side: a ``get`` is a group of one and a 32-key ``multi_get``
#: over ~28 SSTs makes groups of ~3 keys, bulk ``multi_get`` groups hold
#: hundreds.
SCALAR_PROBE_MAX = 44

__all__ = [
    "BloomFilter",
    "SCALAR_PROBE_MAX",
    "base_hash_arrays",
    "optimal_num_hashes",
    "bits_for_fpr",
    "fpr_for_bits",
]


def base_hash_arrays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two 64-bit base hashes of each value, vectorized.

    Every :class:`BloomFilter` derives its ``k`` probe positions from the
    same two seeded splitmix64 stages, so these hashes are *filter
    independent*: a batch engine probing many filters (one per LSM run) can
    evaluate them once per distinct prefix and reuse them against every
    filter via :meth:`BloomFilter.survivors_hashed`.  This is the only
    place array base hashes are computed (insert and probe both call it).
    """
    values = np.asarray(values, dtype=np.uint64)
    return (
        splitmix64_array(values ^ np.uint64(_H1_STAGE)),
        splitmix64_array(values ^ np.uint64(_H2_STAGE)),
    )


def optimal_num_hashes(bits_per_key: float) -> int:
    """Return the FPR-optimal number of hash functions for a bits/key budget.

    The classic result ``k = (m/n) ln 2``, rounded to the nearest positive
    integer.
    """
    if bits_per_key <= 0:
        return 1
    return max(1, round(bits_per_key * _LN2))


def bits_for_fpr(num_keys: int, fpr: float) -> int:
    """Memory (bits) for a Bloom filter over ``num_keys`` keys at target FPR.

    Uses the standard approximation ``m = -n ln(p) / (ln 2)^2``.  An FPR of
    1.0 (or more) needs no memory at all.
    """
    if num_keys < 0:
        raise ValueError(f"num_keys must be non-negative, got {num_keys}")
    if fpr <= 0.0:
        raise ValueError(f"target FPR must be positive, got {fpr}")
    if fpr >= 1.0 or num_keys == 0:
        return 0
    return math.ceil(-num_keys * math.log(fpr) / (_LN2 * _LN2))


def fpr_for_bits(num_keys: int, num_bits: int) -> float:
    """Expected FPR of an optimally-hashed Bloom filter with ``num_bits``."""
    if num_keys <= 0:
        return 0.0
    if num_bits <= 0:
        return 1.0
    return math.exp(-(num_bits / num_keys) * _LN2 * _LN2)


class BloomFilter:
    """A seedable, serializable Bloom filter over ints and byte strings.

    Parameters
    ----------
    num_bits:
        Size of the bit array.  Zero produces an always-positive filter.
    num_hashes:
        Number of double-hashed probes per item (``k``).
    salt:
        Optional 64-bit re-keying salt applied on top of the base hashes
        (:func:`~repro.core.hashing.mix_salt`).  Zero — the default — is
        the identity and reproduces the historical unsalted filter
        bit-for-bit.  Salting defends against adversaries replaying
        learned false positives: rebuilding with a fresh salt re-keys
        every probe position.

    Examples
    --------
    >>> bf = BloomFilter.from_keys_and_bits([3, 6, 7], num_bits=64)
    >>> bf.may_contain(6)
    True
    """

    __slots__ = (
        "_bits", "_view", "_num_bits", "_num_hashes", "_num_items", "_salt",
    )

    def __init__(self, num_bits: int, num_hashes: int, salt: int = 0) -> None:
        if num_hashes < 1:
            raise FilterBuildError(f"num_hashes must be >= 1, got {num_hashes}")
        if not 0 <= salt < 1 << 64:
            raise FilterBuildError(f"salt must be a 64-bit value, got {salt}")
        self._adopt(BitArray(num_bits))
        self._num_hashes = int(num_hashes)
        self._num_items = 0
        self._salt = int(salt)

    def _adopt(self, bits: BitArray) -> None:
        """Take ``bits`` as the payload; keep what the probe reads per call
        (its live byte view and its size) one attribute load away."""
        self._bits = bits
        self._view = bits.byte_view()
        self._num_bits = bits.num_bits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_keys_and_bits(
        cls, keys, num_bits: int, num_hashes: int | None = None, salt: int = 0
    ):
        """Build a filter sized at ``num_bits`` holding all of ``keys``."""
        keys = list(keys)
        if num_hashes is None:
            bits_per_key = num_bits / len(keys) if keys else 1.0
            num_hashes = optimal_num_hashes(bits_per_key)
        bf = cls(num_bits, num_hashes, salt=salt)
        for key in keys:
            bf.add(key)
        return bf

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_bits(self) -> int:
        """Size of the backing bit array in bits."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Number of hash probes per item."""
        return self._num_hashes

    @property
    def num_items(self) -> int:
        """Number of items added so far."""
        return self._num_items

    @property
    def salt(self) -> int:
        """The re-keying salt (0 for a legacy unsalted filter)."""
        return self._salt

    @property
    def is_always_positive(self) -> bool:
        """``True`` for a zero-bit filter, which can never prune."""
        return self._num_bits == 0

    def size_in_bits(self) -> int:
        """Memory used by the filter payload, in bits."""
        return self._num_bits

    def expected_fpr(self) -> float:
        """Estimate the FPR from the current fill ratio: ``fill^k``."""
        if self.is_always_positive:
            return 1.0
        return self._bits.fill_ratio() ** self._num_hashes

    def fill_ratio(self) -> float:
        """Actual fraction of set bits (popcount ratio; 0.0 when bit-less)."""
        if self.is_always_positive:
            return 0.0
        return self._bits.fill_ratio()

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _base_hashes(self, item) -> tuple[int, int]:
        """The two salted base hashes of any item, by the reference mixers.

        What :meth:`add` uses for every item and :meth:`may_contain` for
        the items its inlined arithmetic does not cover (``bytes``, integers
        past 64 bits, NumPy integers) — and what the tests hold that
        arithmetic to, bit for bit.
        """
        if isinstance(item, (int, np.integer)):
            h1, h2 = hash_int(int(item), _SEED1), hash_int(int(item), _SEED2)
        elif isinstance(item, (bytes, bytearray, memoryview)):
            data = bytes(item)
            h1, h2 = hash_bytes(data, _SEED1), hash_bytes(data, _SEED2)
        else:
            raise TypeError(
                f"BloomFilter items must be int or bytes, got {type(item)!r}"
            )
        return mix_salt(h1, self._salt), mix_salt(h2, self._salt)

    def _salted_arrays(
        self, h1: np.ndarray, h2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-key :func:`base_hash_arrays` output with this filter's salt.

        The only place array hashes meet the salt (the scalar twin is
        :meth:`_base_hashes`), so insert and probe cannot drift apart.
        """
        return mix_salt_array(h1, self._salt), mix_salt_array(h2, self._salt)

    # ------------------------------------------------------------------
    # Mutation / queries
    # ------------------------------------------------------------------
    def _positions(self, item):
        """The ``k`` bit positions of ``item``, from the reference pieces."""
        h1, h2 = self._base_hashes(item)
        return double_hash_indexes(h1, h2, self._num_hashes, self._num_bits)

    def add(self, item) -> None:
        """Insert an item (int or bytes)."""
        self._num_items += 1
        if self.is_always_positive:
            return
        for pos in self._positions(item):
            self._bits.set(pos)

    def add_many_ints(self, values: np.ndarray) -> None:
        """Vectorized insert of a ``uint64`` array of integer items.

        Must agree bit-for-bit with repeated :meth:`add` calls for values
        below 2**64 (enforced by tests).
        """
        values = np.asarray(values, dtype=np.uint64)
        self._num_items += len(values)
        if self.is_always_positive or len(values) == 0:
            return
        h1, h2 = self._salted_arrays(*base_hash_arrays(values))
        indexes = bloom_indexes_array(h1, h2, self._num_hashes, self.num_bits)
        self._bits.set_many(indexes.ravel())

    def may_contain(self, item) -> bool:
        """Return ``False`` only if the item is definitely absent.

        The scalar probe kernel: for an ``int`` below ``2^64`` — every
        probe the LSM read path and Algorithm 2's walk issue — the whole
        probe is this one function body.  It walks exactly the positions
        :meth:`_positions` yields (``hash_int`` with its seed stage
        precomputed, ``mix_salt``, ``double_hash_indexes``, all inlined),
        reads each bit from the bit array's byte view, and stops at the
        first clear bit, which usually is the first one, so the second base
        hash is only computed for items that survive it.  Everything else
        (``bytes``, wider integers, NumPy integers) takes the reference
        pieces themselves.
        """
        num_bits = self._num_bits
        if not num_bits:
            return True
        if type(item) is not int or not 0 <= item <= _MASK64:
            bits = self._bits
            return all(bits.test(pos) for pos in self._positions(item))
        salt = self._salt
        view = self._view
        z = ((item ^ _H1_STAGE) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        pos = z ^ (z >> 31)
        if salt:
            z = ((pos ^ salt) + _GOLDEN) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            pos = z ^ (z >> 31)
        bit = pos % num_bits
        if not view[bit >> 3] >> (bit & 7) & 1:
            return False
        z = ((item ^ _H2_STAGE) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        step = z ^ (z >> 31)
        if salt:
            z = ((step ^ salt) + _GOLDEN) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            step = z ^ (z >> 31)
        step |= 1
        for _ in range(self._num_hashes - 1):
            pos = (pos + step) & _MASK64
            bit = pos % num_bits
            if not view[bit >> 3] >> (bit & 7) & 1:
                return False
        return True

    def __contains__(self, item) -> bool:
        return self.may_contain(item)

    def contains_batch(self, items, item_bits: int = 64) -> list[bool]:
        """One verdict per integer item — the single batched probe entry.

        Agrees with :meth:`may_contain` element-wise.  Every item must lie
        in ``[0, 2^item_bits)``; the check runs once, here, before any
        probe, and raises :class:`~repro.errors.FilterQueryError`.

        Which kernel answers is decided by the input alone: groups of at
        most :data:`SCALAR_PROBE_MAX` items (and items too wide for
        ``uint64``) take the per-item loop, larger groups the vector
        kernel (:meth:`survivors_hashed`).
        """
        count = len(items)
        if count <= SCALAR_PROBE_MAX or item_bits > 64:
            limit = 1 << item_bits
            for item in items:
                if not 0 <= item < limit:
                    raise FilterQueryError(
                        f"item {item} outside [0, 2^{item_bits})"
                    )
            return list(map(self.may_contain, items))
        try:
            values = np.asarray(items, dtype=np.uint64)
            in_domain = item_bits == 64 or not int(values.max()) >> item_bits
        except OverflowError:  # a negative item, or one past 2^64
            in_domain = False
        if not in_domain:
            raise FilterQueryError(f"items must lie in [0, 2^{item_bits})")
        verdicts = np.zeros(count, dtype=bool)
        verdicts[self.survivors_hashed(*base_hash_arrays(values))] = True
        return verdicts.tolist()

    def survivors_hashed(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Indexes of the items that may be present — the vector kernel.

        ``h1``/``h2`` are the :func:`base_hash_arrays` outputs; the probe
        recurrence matches :func:`~repro.core.hashing.double_hash_indexes`
        bit for bit, so verdicts agree with :meth:`may_contain` exactly.
        The candidate set is narrowed after every hash round, so later
        rounds only touch survivors of the earlier ones (most absent items
        die on the first bit test at typical fill ratios).

        The base hashes stay filter independent even under salting: the
        salt is mixed in here, per filter, so a batch engine can still
        hash every candidate once and reuse it against differently-salted
        runs.
        """
        count = len(h1)
        if self.is_always_positive:
            return np.arange(count, dtype=np.int64)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        h1, h2 = self._salted_arrays(h1, h2)
        alive = np.arange(count, dtype=np.int64)
        pos = h1.astype(np.uint64, copy=True)
        step = h2 | np.uint64(1)
        num_bits = np.uint64(self.num_bits)
        with np.errstate(over="ignore"):
            for probe in range(self._num_hashes):
                hits = self._bits.test_many(pos % num_bits)
                alive = alive[hits]
                if probe == self._num_hashes - 1 or len(alive) == 0:
                    break
                pos = pos[hits] + step[hits]
                step = step[hits]
        return alive

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "BloomFilter") -> "BloomFilter":
        """A filter answering positive for anything either input would.

        Bloom filters of identical geometry (size and hash count) union by
        OR-ing their bit arrays; the result behaves exactly like a filter
        built over the combined key sets (same hash positions), at the
        combined fill ratio.
        """
        if (
            other.num_bits != self.num_bits
            or other.num_hashes != self._num_hashes
        ):
            raise FilterBuildError(
                "can only union Bloom filters of identical geometry "
                f"({self.num_bits}/{self._num_hashes} vs "
                f"{other.num_bits}/{other.num_hashes})"
            )
        if other.salt != self._salt:
            raise FilterBuildError(
                "can only union Bloom filters with identical salts "
                f"({self._salt:#x} vs {other.salt:#x}): differently-salted "
                "filters map the same key to different bit positions"
            )
        merged = BloomFilter(self.num_bits, self._num_hashes, salt=self._salt)
        merged._bits.union_with(self._bits)
        merged._bits.union_with(other._bits)
        merged._num_items = self._num_items + other._num_items
        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    #: Legacy unsalted format; still written when ``salt == 0`` so stores
    #: that never enable salting produce byte-identical filter blocks.
    _MAGIC = b"RBF1"
    #: Salted format: an 8-byte little-endian salt follows the item count.
    _MAGIC_SALTED = b"RBF2"

    def to_bytes(self) -> bytes:
        """Serialize to bytes (magic, k, item count, [salt], bit payload)."""
        header = (
            self._num_hashes.to_bytes(4, "little")
            + self._num_items.to_bytes(8, "little")
        )
        if self._salt == 0:
            return self._MAGIC + header + self._bits.to_bytes()
        return (
            self._MAGIC_SALTED
            + header
            + self._salt.to_bytes(8, "little")
            + self._bits.to_bytes()
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "BloomFilter":
        """Reconstruct a filter from :meth:`to_bytes` output.

        Accepts both the legacy unsalted ``RBF1`` layout and the salted
        ``RBF2`` layout, so filter blocks written before salting existed
        keep loading.
        """
        magic = payload[:4]
        if magic not in (cls._MAGIC, cls._MAGIC_SALTED):
            raise SerializationError("bad BloomFilter magic")
        num_hashes = int.from_bytes(payload[4:8], "little")
        num_items = int.from_bytes(payload[8:16], "little")
        offset = 16
        salt = 0
        if magic == cls._MAGIC_SALTED:
            if len(payload) < 24:
                raise SerializationError("truncated salted BloomFilter payload")
            salt = int.from_bytes(payload[16:24], "little")
            if salt == 0:
                raise SerializationError(
                    "salted BloomFilter payload carries a zero salt"
                )
            offset = 24
        bf = cls.__new__(cls)
        bf._adopt(BitArray.from_bytes(payload[offset:]))
        bf._num_hashes = num_hashes
        bf._num_items = num_items
        bf._salt = salt
        return bf

    def __repr__(self) -> str:
        return (
            f"BloomFilter(num_bits={self.num_bits}, k={self._num_hashes}, "
            f"items={self._num_items})"
        )
