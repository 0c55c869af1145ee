"""The scalar probe kernel and the pre-order walk against a brute-force oracle.

``BloomFilter.may_contain`` inlines its hash arithmetic and reads bits from
a byte view; ``Rosetta._walk`` is an explicit-stack loop.  Neither may be
its own oracle.  The reference here is Algorithm 2 written the slow,
obvious way — recursive doubting over ``dyadic.decompose`` — probing with
the library's unfused pieces (``hash_int``/``hash_bytes`` + ``mix_salt`` +
``double_hash_indexes`` + ``BitArray.test``), and §2.2.1's tightening as a
recursive leftmost / rightmost search over the materialised interval list.
The product must return the reference's verdict (or window) and charge the
reference's ``bloom_probes`` and ``dyadic_intervals``, query for query.
"""

import random
from bisect import bisect_left, bisect_right

import pytest

from repro.core.allocation import LevelAllocation
from repro.core.bitarray import BitArray
from repro.core.bloom import SCALAR_PROBE_MAX, BloomFilter
from repro.core.dyadic import DyadicInterval, count_intervals, decompose
from repro.core.hashing import (
    double_hash_indexes,
    hash_bytes,
    hash_int,
    mix_salt,
)
from repro.core.rosetta import WALK_MAX_INTERVALS, Rosetta
from repro.errors import FilterQueryError

# The two base-hash seeds are part of the filter format (a serialized
# filter is only readable with them), so the oracle spells them out.
SEED1 = 0x9AE16A3B2F90404F
SEED2 = 0xC3A5C85C97CB3127

U64_MAX = (1 << 64) - 1
WIDE_ITEM = (0xDEADBEEF << 64) | 0x0123456789ABCDEF  # 96 bits
EDGE_ITEMS = [0, 1, U64_MAX, 1 << 64, WIDE_ITEM]
SALTS = [0, 0xA5A5F00D, U64_MAX]


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def reference_positions(item, salt: int, num_hashes: int, num_bits: int):
    base = hash_bytes if isinstance(item, bytes) else hash_int
    return list(
        double_hash_indexes(
            mix_salt(base(item, SEED1), salt),
            mix_salt(base(item, SEED2), salt),
            num_hashes,
            num_bits,
        )
    )


def reference_probe(bloom: BloomFilter, item) -> bool:
    """Every bit of ``item`` set, read one ``BitArray.test`` at a time."""
    bits = bloom._bits  # noqa: SLF001 - the stored bits are the ground truth
    return all(
        [
            bits.test(pos)
            for pos in reference_positions(
                item, bloom.salt, bloom._num_hashes, bloom.num_bits
            )
        ]
    )


class ReferenceWalk:
    """Recursive Algorithm 2 over a Rosetta's level stack, with charges."""

    def __init__(self, rosetta: Rosetta) -> None:
        self.levels = rosetta.levels
        self.max_height = rosetta.max_height
        self.probes = 0
        self.intervals = 0

    def _probe(self, prefix: int, height: int) -> bool:
        level = self.levels[height]
        if level.num_bits == 0:
            return True  # a level without bits never prunes and costs nothing
        self.probes += 1
        return reference_probe(level, prefix)

    def _doubt(self, prefix: int, height: int, budget) -> bool:
        if budget is not None and self.probes >= budget:
            return True
        if not self._probe(prefix, height):
            return False
        if height == 0:
            return True
        return self._doubt(prefix << 1, height - 1, budget) or self._doubt(
            (prefix << 1) | 1, height - 1, budget
        )

    def query(self, low: int, high: int, budget=None) -> tuple[bool, int, int]:
        """``(verdict, bloom_probes, dyadic_intervals)`` of one range query."""
        self.probes = self.intervals = 0
        verdict = False
        for interval in decompose(low, high, self.max_height):
            self.intervals += 1
            if self._doubt(interval.prefix, interval.height, budget):
                verdict = True
                break
        return verdict, self.probes, self.intervals

    def _extreme(self, prefix: int, height: int, from_high: bool):
        """The smallest (``from_high``: largest) leaf under a node whose
        whole root-to-leaf path survives, or None."""
        if not self._probe(prefix, height):
            return None
        if height == 0:
            return prefix
        children = [prefix << 1, (prefix << 1) | 1]
        for child in reversed(children) if from_high else children:
            leaf = self._extreme(child, height - 1, from_high)
            if leaf is not None:
                return leaf
        return None

    def first_leaf(self, intervals, from_high: bool = False):
        """The first surviving leaf met searching ``intervals`` in order."""
        for interval in intervals:
            leaf = self._extreme(interval.prefix, interval.height, from_high)
            if leaf is not None:
                return leaf
        return None

    def tighten(self, low: int, high: int):
        """``(window, bloom_probes, dyadic_intervals)`` of §2.2.1: the
        leftmost surviving leaf searched from the low end, the rightmost
        from the high end, every interval of the range charged once."""
        self.probes = 0
        intervals = list(decompose(low, high, self.max_height))
        self.intervals = len(intervals)
        first = self.first_leaf(intervals)
        if first is None:
            return None, self.probes, self.intervals
        last = self.first_leaf(reversed(intervals), from_high=True)
        return (first, last), self.probes, self.intervals


def _as_is(answer):
    return answer


def charged(rosetta: Rosetta, issue, answer=bool) -> tuple[object, int, int]:
    probes, intervals = rosetta.stats.bloom_probes, rosetta.stats.dyadic_intervals
    verdict = answer(issue(rosetta))
    return (
        verdict,
        rosetta.stats.bloom_probes - probes,
        rosetta.stats.dyadic_intervals - intervals,
    )


# ----------------------------------------------------------------------
# One Bloom probe
# ----------------------------------------------------------------------
def _probe_items(rng: random.Random, stored: list) -> list:
    return (
        EDGE_ITEMS
        + stored
        + [rng.getrandbits(64) for _ in range(300)]
        + [rng.getrandbits(96) for _ in range(20)]
    )


@pytest.mark.parametrize("salt", SALTS)
@pytest.mark.parametrize("num_hashes", [1, 2, 7])
@pytest.mark.parametrize("num_bits", [1, 7, 64, 100, 1021, 4099])
def test_probe_and_add_follow_the_reference_positions(num_bits, num_hashes, salt):
    """Sizes off the byte and word grid included: the last, partial byte of
    the view must address the same bits ``BitArray.test`` does."""
    rng = random.Random(num_bits * 31 + num_hashes)
    stored = EDGE_ITEMS + [rng.getrandbits(64) for _ in range(num_bits // 12)]
    bloom = BloomFilter(num_bits, num_hashes, salt=salt)
    expected = BitArray(num_bits)
    for item in stored:
        bloom.add(item)
        for pos in reference_positions(item, salt, num_hashes, num_bits):
            expected.set(pos)
    assert bloom._bits == expected  # noqa: SLF001
    for item in _probe_items(rng, stored):
        assert bloom.may_contain(item) == reference_probe(bloom, item), item
    assert all(bloom.may_contain(item) for item in stored)


@pytest.mark.parametrize("salt", SALTS)
def test_bytes_items_keep_their_path(salt):
    rng = random.Random(5)
    stored = [b"", b"A", b"rosetta", bytes(range(17)), rng.randbytes(64)]
    bloom = BloomFilter(509, 3, salt=salt)
    for item in stored:
        bloom.add(item)
    probes = stored + [rng.randbytes(rng.randrange(1, 24)) for _ in range(200)]
    for item in probes:
        assert bloom.may_contain(item) == reference_probe(bloom, item), item
        assert bloom.may_contain(bytearray(item)) == reference_probe(bloom, item)
    assert all(bloom.may_contain(item) for item in stored)


@pytest.mark.parametrize("salt", SALTS)
def test_probe_sees_bits_set_after_its_first_use(salt):
    """The byte view is live: ``add``, ``add_many_ints`` and a
    ``from_bytes`` round trip all show through it."""
    rng = random.Random(9)
    bloom = BloomFilter(2039, 4, salt=salt)
    late = [rng.getrandbits(64) for _ in range(60)] + EDGE_ITEMS
    assert not any(bloom.may_contain(item) for item in late)  # view in use
    for item in late[:30]:
        bloom.add(item)
        assert bloom.may_contain(item)
    bloom.add_many_ints([item for item in late[30:] if item <= U64_MAX])
    for item in late:
        if item <= U64_MAX or item in late[:30]:
            assert bloom.may_contain(item), item

    loaded = BloomFilter.from_bytes(bloom.to_bytes())
    fresh = rng.getrandbits(64)
    loaded.add(fresh)  # a deserialized filter's view is just as live
    assert loaded.may_contain(fresh)
    for subject in (bloom, loaded):
        for item in _probe_items(rng, late):
            assert subject.may_contain(item) == reference_probe(subject, item)


def test_serialized_bytes_are_what_the_reference_positions_spell():
    """Bit ``i`` of the payload is bit ``i & 7`` of body byte ``i >> 3``."""
    bloom = BloomFilter(203, 3, salt=0x5EED)
    items = [0, 1, U64_MAX, 12345678901234567890]
    body = bytearray((203 + 63) // 64 * 8)
    for item in items:
        bloom.add(item)
        for pos in reference_positions(item, 0x5EED, 3, 203):
            body[pos >> 3] |= 1 << (pos & 7)
    assert bloom.to_bytes().endswith((203).to_bytes(8, "little") + bytes(body))


# ----------------------------------------------------------------------
# Algorithm 2's walk
# ----------------------------------------------------------------------
def _with_bitless_level(rosetta: Rosetta, height: int) -> Rosetta:
    """The same filter with one level's bits taken away (always positive)."""
    levels = list(rosetta.levels)
    levels[height] = BloomFilter(0, 1, salt=rosetta.salt)
    allocation = LevelAllocation(
        bits_per_level=tuple(level.num_bits for level in levels),
        strategy="holed",
    )
    return Rosetta(rosetta.key_bits, levels, allocation, rosetta.num_keys)


def _shapes():
    rng = random.Random(0xACE)
    keys32 = rng.sample(range(1 << 32), 600)
    keys64 = [0, 1, 2, U64_MAX - 1, U64_MAX] + [
        rng.getrandbits(64) for _ in range(400)
    ]
    keys96 = [0, (1 << 96) - 1, WIDE_ITEM] + [
        rng.getrandbits(96) for _ in range(200)
    ]
    for salt in (0, 0xA5A5F00D):
        tag = "salted" if salt else "unsalted"
        equilibrium = Rosetta.build(
            keys32, key_bits=32, bits_per_key=10.0, max_range=64,
            strategy="equilibrium", salt=salt,
        )
        yield f"equilibrium-32-{tag}", equilibrium, keys32
        yield (
            f"holed-middle-32-{tag}", _with_bitless_level(equilibrium, 3), keys32
        )
        yield f"variable-64-{tag}", Rosetta.build(
            keys64, key_bits=64, bits_per_key=22.0, max_range=64,
            strategy="variable", salt=salt,
        ), keys64
        yield f"uniform-96-{tag}", Rosetta.build(
            keys96, key_bits=96, bits_per_key=12.0, max_range=16,
            strategy="uniform", salt=salt,
        ), keys96
    loaded = Rosetta.from_bytes(equilibrium.to_bytes())
    yield "from-bytes-32", loaded, keys32


SHAPES = {name: (rosetta, keys) for name, rosetta, keys in _shapes()}


def _queries(rosetta: Rosetta, keys: list[int], rng: random.Random):
    """Empty ranges, ranges near a key, ranges wider than ``max_range``,
    and ranges hugging both ends of the domain."""
    top = (1 << rosetta.key_bits) - 1
    span = 1 << rosetta.max_height
    out = [(0, 0), (0, 1), (top, top), (top - 1, top), (0, 3 * span), (top - 3 * span, top)]
    for _ in range(150):
        low = rng.randrange(top - 8 * span)
        out.append((low, low + rng.randrange(8 * span)))
    for key in rng.sample(keys, 60):
        low = max(0, key - rng.randrange(2 * span))
        out.append((low, min(top, low + rng.randrange(1, 4 * span))))
    for _ in range(5):  # dozens of full-height blocks: outlasts any budget
        low = rng.randrange(top - 64 * span)
        out.append((low, low + 60 * span))
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_walk_answers_and_charges_like_the_reference(shape):
    rosetta, keys = SHAPES[shape]
    reference = ReferenceWalk(rosetta)
    rng = random.Random(shape)
    served_by_walk = 0
    for low, high in _queries(rosetta, keys, rng):
        want = reference.query(low, high)
        assert charged(rosetta, lambda r: r._walk(low, high, None)) == want
        if (
            rosetta.key_bits > 64
            or count_intervals(low, high, rosetta.max_height) <= WALK_MAX_INTERVALS
        ):
            served_by_walk += 1
            got = charged(rosetta, lambda r: r.may_contain_range(low, high))
            assert got == want, (low, high)
    assert served_by_walk > 100


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tightening_windows_and_charges_like_the_reference(shape):
    rosetta, keys = SHAPES[shape]
    reference = ReferenceWalk(rosetta)
    stored = sorted(keys)
    rng = random.Random(shape)
    windows = 0
    for low, high in _queries(rosetta, keys, rng):
        want = reference.tighten(low, high)
        got = charged(rosetta, lambda r: r.tightened_range(low, high), _as_is)
        assert got == want, (low, high)
        window = want[0]
        assert (window is not None) == reference.query(low, high)[0]
        if window is not None:
            windows += 1
            assert low <= window[0] <= window[1] <= high
            inside = stored[bisect_left(stored, low) : bisect_right(stored, high)]
            assert all(window[0] <= key <= window[1] for key in inside)
    assert windows > 50


def test_tightening_the_whole_domain_costs_by_the_answer():
    """The full 64-bit domain is 2^58 full-height blocks: the two searches
    must start at its ends, not from a list of them."""
    rng = random.Random(64)
    keys = [rng.getrandbits(64) for _ in range(400)]
    rosetta = Rosetta.build(keys, key_bits=64, bits_per_key=22.0, max_range=64)
    height = rosetta.max_height
    blocks = 1 << (64 - height)
    reference = ReferenceWalk(rosetta)
    want = (
        reference.first_leaf(decompose(0, U64_MAX, height)),
        reference.first_leaf(
            (DyadicInterval(p, height) for p in range(blocks - 1, -1, -1)),
            from_high=True,
        ),
    )
    assert want[0] <= min(keys) and want[1] >= max(keys)
    got = charged(rosetta, lambda r: r.tightened_range(0, U64_MAX), _as_is)
    assert got == (want, reference.probes, blocks)
    assert reference.probes < 10_000


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_no_false_negative_for_stored_keys(shape):
    rosetta, keys = SHAPES[shape]
    top = (1 << rosetta.key_bits) - 1
    for key in keys:
        assert rosetta.may_contain(key)
        assert rosetta.may_contain_range(key, key)
        assert rosetta.may_contain_range(max(0, key - 5), min(top, key + 9))
    assert all(rosetta.may_contain_each(keys[:5]))
    assert all(rosetta.may_contain_each(keys))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_point_entries_probe_the_leaf_like_the_reference(shape):
    rosetta, keys = SHAPES[shape]
    rng = random.Random(shape)
    leaf = rosetta.levels[0]
    probes = keys[:40] + [rng.getrandbits(rosetta.key_bits) for _ in range(200)]
    want = [reference_probe(leaf, key) for key in probes]
    before = rosetta.stats.bloom_probes
    assert [rosetta.may_contain(key) for key in probes] == want
    assert rosetta.may_contain_each(probes) == want
    assert rosetta.may_contain_each(probes[:3]) == want[:3]
    assert rosetta.stats.bloom_probes - before == 2 * len(probes) + 3


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("budget", [1, 2, 5, 9, 40])
def test_budget_gives_up_at_exactly_the_reference_probe(shape, budget):
    rosetta, keys = SHAPES[shape]
    reference = ReferenceWalk(rosetta)
    rng = random.Random(f"{shape}/{budget}")
    exhausted = 0
    for low, high in _queries(rosetta, keys, rng):
        want = reference.query(low, high, budget)
        unbounded = reference.query(low, high)
        if unbounded[1] > budget:
            # Ran out: positive, and not one probe past the budget.
            assert want[0] and want[1] == budget
            exhausted += 1
        else:
            assert want == unbounded
        got = charged(
            rosetta, lambda r: r.may_contain_range(low, high, probe_budget=budget)
        )
        assert got == want, (low, high)
    assert exhausted > 0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_out_of_domain_items_raise_before_any_probe(shape, monkeypatch):
    rosetta, keys = SHAPES[shape]
    beyond = 1 << rosetta.key_bits
    group = list(range(SCALAR_PROBE_MAX + 4))  # a vector-side group too

    def probed(*_args, **_kwargs):
        raise AssertionError("a probe ran before the domain check")

    monkeypatch.setattr(BloomFilter, "may_contain", probed)
    monkeypatch.setattr(BloomFilter, "survivors_hashed", probed)
    before = rosetta.stats.bloom_probes
    for bad in (-1, beyond):
        for issue in (
            lambda: rosetta.may_contain(bad),
            lambda: rosetta.may_contain_each([keys[0], bad]),
            lambda: rosetta.may_contain_each(group + [bad]),
            lambda: rosetta.levels[0].contains_batch(
                [keys[0], bad], rosetta.key_bits
            ),
        ):
            with pytest.raises(FilterQueryError):
                issue()
    assert rosetta.stats.bloom_probes == before
