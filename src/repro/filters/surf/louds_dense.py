"""LOUDS-Dense encoding of the upper trie levels (SuRF's fast region).

Each node is encoded as two 257-bit bitmaps (one bit per symbol in the
terminator-extended alphabet): ``labels`` marks which out-edges exist and
``has_child`` marks which of those lead to internal nodes.  Bitmaps are kept
as arbitrary-precision Python ints, which makes "smallest set bit >= s"
queries a couple of shifts.

Navigation is rank-based: children are numbered by counting set
``has_child`` bits in (node, symbol) order, which — because every non-root
node has exactly one parent edge — equals the global level-order node
numbering.  Leaf edges are numbered the same way over ``labels & ~has_child``
to index the suffix (value) array.

Memory accounting follows SuRF: 2 x 256 bits of bitmap + 1 prefix-key bit
per node (the terminator bit plays the prefix-key role).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SerializationError
from repro.filters.surf.builder import ALPHABET, TrieLevel

_MASK_BYTES = (ALPHABET + 7) // 8  # 33 bytes per 257-bit mask

__all__ = ["LoudsDense"]


class LoudsDense:
    """Bitmap-per-node encoding of trie levels ``[0, cutoff)``.

    Node ids are global level-order ids (root = 0); this region always
    contains a contiguous prefix of those ids.
    """

    __slots__ = ("_label_masks", "_child_masks", "_cum_children", "_cum_leaves")

    def __init__(self, label_masks: list[int], child_masks: list[int]) -> None:
        self._label_masks = label_masks
        self._child_masks = child_masks
        children = [mask.bit_count() for mask in child_masks]
        leaves = [
            (label & ~child).bit_count()
            for label, child in zip(label_masks, child_masks)
        ]
        self._cum_children = np.concatenate(
            ([0], np.cumsum(children, dtype=np.int64))
        ) if child_masks else np.zeros(1, dtype=np.int64)
        self._cum_leaves = np.concatenate(
            ([0], np.cumsum(leaves, dtype=np.int64))
        ) if label_masks else np.zeros(1, dtype=np.int64)

    @classmethod
    def from_levels(cls, levels: list[TrieLevel]) -> "LoudsDense":
        """Encode trie levels (level order) into per-node bitmaps."""
        label_masks: list[int] = []
        child_masks: list[int] = []
        for level in levels:
            label_mask = 0
            child_mask = 0
            for position, symbol in enumerate(level.labels):
                if level.louds[position] and position > 0:
                    label_masks.append(label_mask)
                    child_masks.append(child_mask)
                    label_mask = 0
                    child_mask = 0
                label_mask |= 1 << symbol
                if level.has_child[position]:
                    child_mask |= 1 << symbol
            if level.labels:
                label_masks.append(label_mask)
                child_masks.append(child_mask)
        return cls(label_masks, child_masks)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Nodes encoded in this region."""
        return len(self._label_masks)

    @property
    def num_leaves(self) -> int:
        """Total leaf edges (value slots) in this region."""
        return int(self._cum_leaves[-1])

    # ------------------------------------------------------------------
    # Navigation primitives
    # ------------------------------------------------------------------
    def has_label(self, node: int, symbol: int) -> bool:
        """Does ``node`` have an out-edge labelled ``symbol``?"""
        return bool((self._label_masks[node] >> symbol) & 1)

    def has_child(self, node: int, symbol: int) -> bool:
        """Does the edge ``(node, symbol)`` lead to an internal node?"""
        return bool((self._child_masks[node] >> symbol) & 1)

    def smallest_label_ge(self, node: int, symbol: int) -> int | None:
        """Smallest edge symbol of ``node`` that is >= ``symbol``."""
        remaining = self._label_masks[node] >> symbol
        if remaining == 0:
            return None
        return symbol + (remaining & -remaining).bit_length() - 1

    def child_id(self, node: int, symbol: int) -> int:
        """Global level-order id of the child along ``(node, symbol)``.

        Valid only when :meth:`has_child` is true.  Children are numbered
        ``1 + rank`` of the has-child bit in (node, symbol) order; ids that
        overflow this region's node count belong to the sparse region.
        """
        below = self._child_masks[node] & ((1 << symbol) - 1)
        return int(self._cum_children[node]) + below.bit_count() + 1

    def leaf_value_index(self, node: int, symbol: int) -> int:
        """Value-slot index of the leaf edge ``(node, symbol)``."""
        leaf_mask = self._label_masks[node] & ~self._child_masks[node]
        below = leaf_mask & ((1 << symbol) - 1)
        return int(self._cum_leaves[node]) + below.bit_count()

    # ------------------------------------------------------------------
    # Accounting / serialization
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """SuRF's dense cost: 2*256 bitmap bits + 1 prefix-key bit per node."""
        return self.num_nodes * (2 * 256 + 1)

    def to_bytes(self) -> bytes:
        """Serialize: node count + fixed-width mask pairs."""
        parts = [self.num_nodes.to_bytes(8, "little")]
        for label, child in zip(self._label_masks, self._child_masks):
            parts.append(label.to_bytes(_MASK_BYTES, "little"))
            parts.append(child.to_bytes(_MASK_BYTES, "little"))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "LoudsDense":
        """Reconstruct from :meth:`to_bytes` output."""
        if len(payload) < 8:
            raise SerializationError("truncated LoudsDense header")
        num_nodes = int.from_bytes(payload[:8], "little")
        expected = 8 + num_nodes * 2 * _MASK_BYTES
        if len(payload) != expected:
            raise SerializationError(
                f"LoudsDense payload is {len(payload)} bytes, expected {expected}"
            )
        label_masks: list[int] = []
        child_masks: list[int] = []
        offset = 8
        for _ in range(num_nodes):
            label_masks.append(
                int.from_bytes(payload[offset : offset + _MASK_BYTES], "little")
            )
            offset += _MASK_BYTES
            child_masks.append(
                int.from_bytes(payload[offset : offset + _MASK_BYTES], "little")
            )
            offset += _MASK_BYTES
        return cls(label_masks, child_masks)

    def __repr__(self) -> str:
        return f"LoudsDense(nodes={self.num_nodes}, leaves={self.num_leaves})"
