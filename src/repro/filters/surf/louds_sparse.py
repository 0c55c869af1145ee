"""LOUDS-Sparse encoding of the lower trie levels (SuRF's compact region).

Three parallel structures over all edges in level order:

* ``labels`` — the edge symbols (one ~byte each; we use uint16 to admit the
  terminator symbol),
* ``has_child`` — bit per edge: internal vs leaf,
* ``louds`` — bit per edge: 1 iff the edge is the first of its node.

Node ``s`` (sparse-local numbering, level order) owns the contiguous edge
range ``[select1(louds, s+1), select1(louds, s+2))``.  The child of the edge
at position ``p`` is sparse node ``roots + rank1(has_child, p+1) - 1`` where
``roots`` is the number of sparse nodes whose parent lives in the dense
region.  Leaf edges index the value (suffix) array by
``p - rank1(has_child, p)``.

Memory accounting follows SuRF: 10 bits per edge (8 label + 1 has-child +
1 LOUDS).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SerializationError
from repro.filters.surf.bitvector import RankBitVector
from repro.filters.surf.builder import TrieLevel

__all__ = ["LoudsSparse"]


class LoudsSparse:
    """Label/has-child/LOUDS encoding of trie levels ``[cutoff, ...)``."""

    __slots__ = ("_labels", "_has_child", "_louds", "_num_root_nodes")

    def __init__(
        self,
        labels: np.ndarray,
        has_child: RankBitVector,
        louds: RankBitVector,
        num_root_nodes: int,
    ) -> None:
        self._labels = labels
        self._has_child = has_child
        self._louds = louds
        self._num_root_nodes = num_root_nodes

    @classmethod
    def from_levels(cls, levels: list[TrieLevel]) -> "LoudsSparse":
        """Encode trie levels (level order) into the parallel arrays.

        ``levels[0]`` holds the region's root nodes — the nodes whose parent
        edges live in the dense region (or the trie root when there is no
        dense region).
        """
        labels: list[int] = []
        has_child: list[bool] = []
        louds: list[bool] = []
        for level in levels:
            labels.extend(level.labels)
            has_child.extend(level.has_child)
            louds.extend(level.louds)
        num_root_nodes = levels[0].num_nodes if levels else 0
        return cls(
            np.asarray(labels, dtype=np.uint16),
            RankBitVector.from_bits(has_child),
            RankBitVector.from_bits(louds),
            num_root_nodes,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total edges in the region."""
        return len(self._labels)

    @property
    def num_nodes(self) -> int:
        """Total nodes in the region."""
        return self._louds.num_ones

    # ------------------------------------------------------------------
    # Navigation primitives (sparse-local node ids)
    # ------------------------------------------------------------------
    def node_edge_range(self, node: int) -> tuple[int, int]:
        """Edge positions ``[start, end)`` owned by sparse node ``node``."""
        start = self._louds.select1(node + 1)
        if node + 2 <= self._louds.num_ones:
            end = self._louds.select1(node + 2)
        else:
            end = self.num_edges
        return start, end

    def smallest_label_ge(self, node: int, symbol: int) -> tuple[int, int] | None:
        """Smallest ``(symbol, position)`` edge of ``node`` with symbol >= s."""
        start, end = self.node_edge_range(node)
        index = int(np.searchsorted(self._labels[start:end], symbol, side="left"))
        if start + index >= end:
            return None
        position = start + index
        return int(self._labels[position]), position

    def edge_has_child(self, position: int) -> bool:
        """Whether the edge at ``position`` leads to an internal node."""
        return self._has_child.get(position)

    def child_node(self, position: int) -> int:
        """Sparse-local id of the child node along the edge at ``position``."""
        return self._num_root_nodes + self._has_child.rank1(position + 1) - 1

    def leaf_value_index(self, position: int) -> int:
        """Region-local value-slot index of the leaf edge at ``position``."""
        return position - self._has_child.rank1(position)

    # ------------------------------------------------------------------
    # Accounting / serialization
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """SuRF's sparse cost: 10 bits per edge (8 + 1 + 1)."""
        return self.num_edges * 10

    def to_bytes(self) -> bytes:
        """Serialize: root count, labels, then the two bit vectors."""
        label_bytes = self._labels.tobytes()
        has_child_bytes = self._has_child.to_bytes()
        louds_bytes = self._louds.to_bytes()
        return b"".join(
            [
                self._num_root_nodes.to_bytes(8, "little"),
                len(label_bytes).to_bytes(8, "little"),
                label_bytes,
                len(has_child_bytes).to_bytes(8, "little"),
                has_child_bytes,
                len(louds_bytes).to_bytes(8, "little"),
                louds_bytes,
            ]
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "LoudsSparse":
        """Reconstruct from :meth:`to_bytes` output."""
        try:
            offset = 0
            num_root_nodes = int.from_bytes(payload[offset : offset + 8], "little")
            offset += 8
            sections: list[bytes] = []
            for _ in range(3):
                length = int.from_bytes(payload[offset : offset + 8], "little")
                offset += 8
                sections.append(payload[offset : offset + length])
                offset += length
        except (IndexError, ValueError) as exc:
            raise SerializationError("truncated LoudsSparse payload") from exc
        labels = np.frombuffer(sections[0], dtype=np.uint16).copy()
        return cls(
            labels,
            RankBitVector.from_bytes(sections[1]),
            RankBitVector.from_bytes(sections[2]),
            num_root_nodes,
        )

    def __repr__(self) -> str:
        return (
            f"LoudsSparse(edges={self.num_edges}, nodes={self.num_nodes}, "
            f"roots={self._num_root_nodes})"
        )
