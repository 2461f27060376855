"""Tests for scheduling-tree construction and packet classification."""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction, STFQTransaction, TokenBucketShapingTransaction
from repro.core import (
    ClassEquals,
    FlowIn,
    Packet,
    ScheduleTree,
    TreeNode,
    single_node_tree,
)
from repro.exceptions import TreeConfigurationError


def build_two_level_tree():
    root = TreeNode(name="Root", scheduling=STFQTransaction())
    left = TreeNode(
        name="Left", predicate=FlowIn(["A", "B"]), scheduling=STFQTransaction()
    )
    right = TreeNode(
        name="Right", predicate=FlowIn(["C", "D"]), scheduling=STFQTransaction()
    )
    root.add_child(left)
    root.add_child(right)
    return ScheduleTree(root)


class TestTreeStructure:
    def test_single_node_tree(self):
        tree = single_node_tree(FIFOTransaction())
        assert tree.depth() == 1
        assert tree.root.is_leaf
        assert tree.leaves() == [tree.root]

    def test_two_level_structure(self):
        tree = build_two_level_tree()
        assert tree.depth() == 2
        assert len(tree.leaves()) == 2
        assert [n.name for n in tree.nodes()] == ["Root", "Left", "Right"]

    def test_levels_grouping(self):
        tree = build_two_level_tree()
        levels = tree.levels()
        assert [n.name for n in levels[0]] == ["Root"]
        assert {n.name for n in levels[1]} == {"Left", "Right"}

    def test_node_lookup(self):
        tree = build_two_level_tree()
        assert tree.node("Left").name == "Left"
        with pytest.raises(TreeConfigurationError):
            tree.node("Missing")

    def test_duplicate_names_rejected(self):
        root = TreeNode(name="X", scheduling=FIFOTransaction())
        root.add_child(TreeNode(name="X", scheduling=FIFOTransaction()))
        with pytest.raises(TreeConfigurationError):
            ScheduleTree(root)

    def test_reparenting_rejected(self):
        child = TreeNode(name="c", scheduling=FIFOTransaction())
        TreeNode(name="p1", scheduling=FIFOTransaction()).add_child(child)
        with pytest.raises(TreeConfigurationError):
            TreeNode(name="p2", scheduling=FIFOTransaction()).add_child(child)

    def test_add_child_after_construction_rejected(self):
        # The shape is sealed at ScheduleTree(): a late child would skip
        # validation (here: a second node named "root").
        tree = single_node_tree(FIFOTransaction())
        with pytest.raises(TreeConfigurationError, match="fixed"):
            tree.root.add_child(TreeNode("root", FIFOTransaction()))
        assert tree.root.is_leaf
        assert tree.match_path(Packet(flow="A", length=10)) == [tree.root]

    def test_node_of_a_tree_cannot_join_another(self):
        tree = build_two_level_tree()
        with pytest.raises(TreeConfigurationError, match="fixed"):
            TreeNode("Top", FIFOTransaction()).add_child(tree.root)
        with pytest.raises(TreeConfigurationError, match="already belongs"):
            ScheduleTree(tree.node("Left"))

    def test_root_shaping_rejected(self):
        root = TreeNode(
            name="Root",
            scheduling=FIFOTransaction(),
            shaping=TokenBucketShapingTransaction(rate_bps=1e6, burst_bytes=1500),
        )
        with pytest.raises(TreeConfigurationError):
            ScheduleTree(root)

    def test_path_to_root_and_depth(self):
        tree = build_two_level_tree()
        left = tree.node("Left")
        assert [n.name for n in left.path_to_root()] == ["Left", "Root"]
        assert left.depth() == 1
        assert tree.root.depth() == 0

    def test_shaping_pifo_created_only_when_needed(self):
        shaped = TreeNode(
            name="S",
            scheduling=FIFOTransaction(),
            shaping=TokenBucketShapingTransaction(rate_bps=1e6, burst_bytes=1500),
        )
        plain = TreeNode(name="P", scheduling=FIFOTransaction())
        assert shaped.shaping_pifo is not None
        assert plain.shaping_pifo is None


class TestPacketClassification:
    def test_match_path_leaf_to_root(self):
        tree = build_two_level_tree()
        path = tree.match_path(Packet(flow="A", length=100))
        assert [n.name for n in path] == ["Left", "Root"]

    def test_leaf_for(self):
        tree = build_two_level_tree()
        assert tree.leaf_for(Packet(flow="D", length=100)).name == "Right"

    def test_unmatched_packet_stops_at_interior_node(self):
        tree = build_two_level_tree()
        path = tree.match_path(Packet(flow="Z", length=100))
        assert [n.name for n in path] == ["Root"]

    def test_ambiguous_predicates_rejected(self):
        root = TreeNode(name="Root", scheduling=FIFOTransaction())
        root.add_child(
            TreeNode(name="c1", predicate=ClassEquals("x"), scheduling=FIFOTransaction())
        )
        root.add_child(
            TreeNode(name="c2", predicate=ClassEquals("x"), scheduling=FIFOTransaction())
        )
        tree = ScheduleTree(root)
        with pytest.raises(TreeConfigurationError):
            tree.match_path(Packet(flow="A", length=10, packet_class="x"))

    def test_element_flow_at_leaf_and_interior(self):
        tree = build_two_level_tree()
        left = tree.node("Left")
        root = tree.root
        packet = Packet(flow="A", length=100)
        assert left.element_flow(packet, from_child=None) == "A"
        assert root.element_flow(packet, from_child=left) == "Left"


class TestTreeRuntimeHelpers:
    def test_reset_clears_pifos_and_state(self):
        tree = build_two_level_tree()
        tree.node("Left").scheduling_pifo.push("x", 1)
        tree.root.scheduling.state["virtual_time"] = 42.0
        tree.reset()
        assert tree.buffered_elements() == 0
        assert tree.root.scheduling.state["virtual_time"] == 0.0

    def test_buffered_elements_counts_all_pifos(self):
        tree = build_two_level_tree()
        tree.node("Left").scheduling_pifo.push("x", 1)
        tree.root.scheduling_pifo.push("y", 1)
        assert tree.buffered_elements() == 2

    def test_describe_contains_node_names(self):
        description = build_two_level_tree().describe()
        assert "Root" in description and "Left" in description and "stfq" in description
