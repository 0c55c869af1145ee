"""Unit tests for the LOUDS-Dense and LOUDS-Sparse encodings."""

import pytest

from repro.filters.surf.builder import TERM_SYMBOL, build_culled_trie
from repro.filters.surf.louds_dense import LoudsDense
from repro.filters.surf.louds_sparse import LoudsSparse


@pytest.fixture
def small_trie():
    # Keys chosen to produce branching, chains, and a terminator.
    keys = sorted([b"ab", b"abc", b"axe", b"bad", b"bat", b"cow"])
    return build_culled_trie(keys)


def _trie_nodes(trie):
    return sum(level.num_nodes for level in trie.levels)


class TestLoudsDense:
    def test_node_count(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        assert dense.num_nodes == _trie_nodes(small_trie)

    def test_labels_and_children(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        root = 0
        for symbol in (ord("a") + 1, ord("b") + 1, ord("c") + 1):
            assert dense.smallest_label_ge(root, symbol) == symbol
        assert dense.smallest_label_ge(root, ord("z") + 1) is None
        # 'c' edge culls to a leaf ("cow" unique at first byte).
        assert not dense.has_child(root, ord("c") + 1)
        assert dense.has_child(root, ord("a") + 1)

    def test_smallest_label_ge(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        assert dense.smallest_label_ge(0, 0) == ord("a") + 1
        assert dense.smallest_label_ge(0, ord("b") + 1) == ord("b") + 1
        assert dense.smallest_label_ge(0, ord("d") + 1) is None

    def test_child_ids_are_level_order(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        # Children of root: 'a' node and 'b' node, ids 1 and 2.
        assert dense.child_id(0, ord("a") + 1) == 1
        assert dense.child_id(0, ord("b") + 1) == 2

    def test_leaf_value_indexes_are_dense(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        # Collect value indexes of all leaf edges; they must be 0..L-1.
        indexes = []
        for node in range(dense.num_nodes):
            for symbol in range(257):
                if dense.smallest_label_ge(node, symbol) == symbol and not dense.has_child(
                    node, symbol
                ):
                    indexes.append(dense.leaf_value_index(node, symbol))
        assert sorted(indexes) == list(range(dense.num_leaves))

    def test_memory_accounting(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        assert dense.size_in_bits() == dense.num_nodes * 513

    def test_serialization_roundtrip(self, small_trie):
        dense = LoudsDense.from_levels(small_trie.levels)
        restored = LoudsDense.from_bytes(dense.to_bytes())
        assert restored.num_nodes == dense.num_nodes
        assert restored.num_leaves == dense.num_leaves
        for node in range(dense.num_nodes):
            for symbol in (0, 50, 98, 99, 120, 256):
                assert restored.smallest_label_ge(
                    node, symbol
                ) == dense.smallest_label_ge(node, symbol)

    def test_empty_region(self):
        dense = LoudsDense.from_levels([])
        assert dense.num_nodes == 0
        assert dense.size_in_bits() == 0


class TestLoudsSparse:
    def test_edge_and_node_counts(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        assert sparse.num_edges == small_trie.num_edges
        assert sparse.num_nodes == _trie_nodes(small_trie)
        assert sparse._num_root_nodes == 1  # the trie root

    def test_node_edge_ranges_partition(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        cursor = 0
        for node in range(sparse.num_nodes):
            start, end = sparse.node_edge_range(node)
            assert start == cursor
            assert end > start
            cursor = end
        assert cursor == sparse.num_edges

    def test_smallest_label_ge(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        found = sparse.smallest_label_ge(0, 0)
        assert found is not None
        symbol, position = found
        assert symbol == ord("a") + 1
        assert position == 0
        assert sparse.smallest_label_ge(0, ord("z")) is None

    def test_label_position_exact(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        # The root's edges are a, b, c in label order: 'b' sits at 1.
        assert sparse.smallest_label_ge(0, ord("b") + 1) == (ord("b") + 1, 1)
        assert sparse.smallest_label_ge(0, ord("q") + 1) is None

    def test_child_node_mapping(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        # Follow root's 'a' edge; the child must be node 1 (level order).
        _, position = sparse.smallest_label_ge(0, ord("a") + 1)
        assert sparse.edge_has_child(position)
        assert sparse.child_node(position) == 1

    def test_leaf_value_indexes_are_dense(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        indexes = [
            sparse.leaf_value_index(position)
            for position in range(sparse.num_edges)
            if not sparse.edge_has_child(position)
        ]
        assert sorted(indexes) == list(range(len(indexes)))

    def test_memory_accounting(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        assert sparse.size_in_bits() == sparse.num_edges * 10

    def test_serialization_roundtrip(self, small_trie):
        sparse = LoudsSparse.from_levels(small_trie.levels)
        restored = LoudsSparse.from_bytes(sparse.to_bytes())
        assert restored.num_edges == sparse.num_edges
        assert restored._num_root_nodes == sparse._num_root_nodes
        for node in range(sparse.num_nodes):
            assert restored.node_edge_range(node) == sparse.node_edge_range(node)


class TestHybridSplit:
    def test_dense_top_sparse_bottom_counts(self, small_trie):
        cutoff = 1
        dense = LoudsDense.from_levels(small_trie.levels[:cutoff])
        sparse = LoudsSparse.from_levels(small_trie.levels[cutoff:])
        assert dense.num_nodes == small_trie.levels[0].num_nodes
        assert sparse._num_root_nodes == small_trie.levels[1].num_nodes
        assert dense.num_nodes + sparse.num_nodes == _trie_nodes(small_trie)

    def test_dense_children_continue_into_sparse(self, small_trie):
        cutoff = 1
        dense = LoudsDense.from_levels(small_trie.levels[:cutoff])
        # Root's 'a' child is the first level-1 node => global id 1 =>
        # sparse-local id 0 after subtracting dense.num_nodes (1).
        child = dense.child_id(0, ord("a") + 1)
        assert child == 1
        assert child - dense.num_nodes == 0
