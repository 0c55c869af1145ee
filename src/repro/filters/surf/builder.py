"""Culled-trie construction for SuRF [74].

SuRF stores the *minimum-length unique prefixes* of its keys: the trie over
all keys is culled at the shallowest depth where each key is distinguishable
from every other key.  For sorted unique keys this depth is computable
locally — one byte past the longer of the longest-common-prefixes with the
two neighbours.

A key that is a proper prefix of its successor cannot be distinguished by
any of its own bytes; it receives a *terminator* edge (SuRF's ``$``-label /
prefix-key mechanism).  We map byte labels to ``symbol = byte + 1`` and give
the terminator symbol 0, so terminators sort before all byte labels and
lexicographic trie order equals byte-string order.

The output is a level-order edge listing (:class:`CulledTrie`) consumed by
the LOUDS-Dense and LOUDS-Sparse encoders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import FilterBuildError

#: Symbol reserved for the end-of-key terminator edge; sorts first.
TERM_SYMBOL = 0

#: Size of the symbol alphabet (terminator + 256 byte values).
ALPHABET = 257

__all__ = ["CulledTrie", "TrieLevel", "build_culled_trie", "TERM_SYMBOL", "ALPHABET"]


@dataclass
class TrieLevel:
    """All edges at one trie depth, in level order.

    Parallel arrays: ``labels[i]`` is the edge symbol, ``has_child[i]``
    whether the edge leads to an internal node, ``louds[i]`` whether the edge
    is the first of its parent node.  ``leaf_key_ids`` lists, for leaf edges
    only (in position order), the index of the source key they represent.
    """

    labels: list[int] = field(default_factory=list)
    has_child: list[bool] = field(default_factory=list)
    louds: list[bool] = field(default_factory=list)
    leaf_key_ids: list[int] = field(default_factory=list)

    @property
    def num_edges(self) -> int:
        """Edges at this level."""
        return len(self.labels)

    @property
    def num_nodes(self) -> int:
        """Nodes at this level (counted via LOUDS start bits)."""
        return sum(self.louds)


@dataclass
class CulledTrie:
    """Level-order representation of the culled trie.

    ``cull_depths[i]`` is the culled prefix length in *bytes* for key ``i``
    (a terminator leaf has depth ``len(key)`` with an extra terminator edge).
    """

    levels: list[TrieLevel]
    num_keys: int
    cull_depths: list[int]

    @property
    def num_edges(self) -> int:
        """Total edges across all levels."""
        return sum(level.num_edges for level in self.levels)

    def leaf_key_ids_in_order(self) -> list[int]:
        """Key ids of every leaf edge in global (level, position) order."""
        ids: list[int] = []
        for level in self.levels:
            ids.extend(level.leaf_key_ids)
        return ids


def longest_common_prefix(a: bytes, b: bytes) -> int:
    """Length in bytes of the longest common prefix of ``a`` and ``b``."""
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


def cull_depths(keys: list[bytes]) -> list[int]:
    """Per-key minimum unique prefix length (bytes), for sorted unique keys.

    A result equal to ``len(key) + 1`` signals a terminator leaf: the key is
    a proper prefix of a neighbour and needs the ``$`` edge.
    """
    depths: list[int] = []
    for index, key in enumerate(keys):
        lcp = 0
        if index > 0:
            lcp = max(lcp, longest_common_prefix(key, keys[index - 1]))
        if index + 1 < len(keys):
            lcp = max(lcp, longest_common_prefix(key, keys[index + 1]))
        depths.append(min(lcp + 1, len(key) + 1))
    return depths


def _leaf_symbols(key: bytes, depth: int) -> tuple[int, ...]:
    """The culled prefix of ``key`` as a symbol tuple (terminator-aware)."""
    if depth <= len(key):
        return tuple(byte + 1 for byte in key[:depth])
    return tuple(byte + 1 for byte in key) + (TERM_SYMBOL,)


def build_culled_trie(keys: list[bytes]) -> CulledTrie:
    """Build the culled trie of ``keys`` (sorted, unique byte strings).

    Runs a breadth-first grouping over the sorted leaf prefixes: a queue
    entry is a slice of keys sharing a prefix of the current depth; the
    distinct next symbols of the slice become the node's edges.
    """
    if not keys:
        return CulledTrie(levels=[], num_keys=0, cull_depths=[])
    for index in range(1, len(keys)):
        if keys[index - 1] >= keys[index]:
            raise FilterBuildError("keys must be sorted and unique byte strings")
    if any(len(key) == 0 for key in keys):
        raise FilterBuildError("empty keys are not supported")

    depths = cull_depths(keys)
    prefixes = [_leaf_symbols(key, depth) for key, depth in zip(keys, depths)]

    levels: list[TrieLevel] = []
    # Queue entries: (start, end, depth) — keys[start:end] share their first
    # `depth` symbols.  BFS order makes appends land in level order.
    queue: deque[tuple[int, int, int]] = deque([(0, len(keys), 0)])
    while queue:
        start, end, depth = queue.popleft()
        while len(levels) <= depth:
            levels.append(TrieLevel())
        level = levels[depth]
        first_edge_of_node = True
        cursor = start
        while cursor < end:
            symbol = prefixes[cursor][depth]
            group_end = cursor
            while group_end < end and prefixes[group_end][depth] == symbol:
                group_end += 1
            is_leaf = (
                group_end - cursor == 1 and len(prefixes[cursor]) == depth + 1
            )
            level.labels.append(symbol)
            level.has_child.append(not is_leaf)
            level.louds.append(first_edge_of_node)
            first_edge_of_node = False
            if is_leaf:
                level.leaf_key_ids.append(cursor)
            else:
                queue.append((cursor, group_end, depth + 1))
            cursor = group_end

    return CulledTrie(levels=levels, num_keys=len(keys), cull_depths=depths)
