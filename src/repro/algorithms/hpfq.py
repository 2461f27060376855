"""Hierarchical Packet Fair Queueing (Figure 3, Section 2.2) and the generic
hierarchy builder used by every tree-structured example in the paper.

HPFQ apportions link capacity between classes, then recursively between
sub-classes, down to individual flows; each node of the hierarchy runs WFQ
(realised with Figure 1's STFQ program) over its children.  The paper
programs it as a tree of scheduling transactions — one STFQ program per node.

:func:`build_hierarchy` turns a declarative specification (nested
:class:`HierarchySpec`) into a :class:`~repro.core.tree.ScheduleTree`,
optionally attaching token-bucket shaping transactions to classes, which is
how the *Hierarchies with Shaping* example (Figure 4) is expressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.backend import BackendSpec
from ..core.predicates import FlowIn, MatchAll
from ..core.tree import ScheduleTree, TreeNode
from ..exceptions import TreeConfigurationError
from ..lang.programs import stfq_program, token_bucket_program


@dataclass
class ShapingSpec:
    """Token-bucket shaping attached to a class (Figure 4's ``TBF_Right``)."""

    rate_bps: float
    burst_bytes: float = 15000.0


@dataclass
class HierarchySpec:
    """Declarative description of one node of a scheduling hierarchy.

    Attributes
    ----------
    name:
        Node name; must be unique across the hierarchy.
    weight:
        Weight of this class relative to its siblings in the parent's fair
        scheduler (the numbers on the edges of Figure 3a).
    flows:
        For leaf classes, mapping from flow identifier to the flow's weight
        inside this class's WFQ.
    children:
        For interior classes, the child class specifications.
    shaping:
        Optional token-bucket limit applied to the class as a whole.
    """

    name: str
    weight: float = 1.0
    flows: Mapping[str, float] = field(default_factory=dict)
    children: Sequence["HierarchySpec"] = field(default_factory=tuple)
    shaping: Optional[ShapingSpec] = None

    def all_flows(self) -> List[str]:
        """Every flow served somewhere under this class."""
        flows = list(self.flows)
        for child in self.children:
            flows.extend(child.all_flows())
        return flows


def _build_node(spec: HierarchySpec, is_root: bool,
                backend: Optional[str]) -> TreeNode:
    if spec.flows and spec.children:
        raise TreeConfigurationError(
            f"class {spec.name!r} declares both flows and children; "
            "a class is either a leaf (flows) or interior (children)"
        )
    if spec.children:
        weights = {child.name: child.weight for child in spec.children}
    else:
        weights = dict(spec.flows)
    scheduling = stfq_program(weights=weights, backend=backend)
    shaping = None
    if spec.shaping is not None:
        if is_root:
            raise TreeConfigurationError(
                "shaping cannot be attached to the root class; shape the "
                "child classes instead"
            )
        shaping = token_bucket_program(
            spec.shaping.rate_bps / 8.0, spec.shaping.burst_bytes,
            backend=backend,
        )
    predicate = MatchAll() if is_root else FlowIn(spec.all_flows())
    node = TreeNode(
        name=spec.name,
        predicate=predicate,
        scheduling=scheduling,
        shaping=shaping,
    )
    for child_spec in spec.children:
        node.add_child(_build_node(child_spec, is_root=False, backend=backend))
    return node


def build_hierarchy(
    spec: HierarchySpec,
    pifo_backend: BackendSpec = None,
    backend: Optional[str] = None,
) -> ScheduleTree:
    """Build a scheduling tree from a hierarchy specification.

    Packets are routed to classes by their flow identifier: a class matches
    every flow declared anywhere beneath it, so only ``Packet.flow`` needs to
    be set by the workload.  ``pifo_backend`` selects the PIFO storage
    backend for every node (see :mod:`repro.core.backend`); ``backend`` the
    execution back end of every node's STFQ and token-bucket program (see
    :func:`repro.lang.bridge.resolve_backend`).
    """
    return ScheduleTree(_build_node(spec, is_root=True, backend=backend),
                        pifo_backend=pifo_backend)


def fig3_spec() -> HierarchySpec:
    """The exact HPFQ hierarchy of Figure 3a.

    Link capacity splits 1:9 between Left and Right; inside Left, flows A and
    B split 3:7; inside Right, flows C and D split 4:6.
    """
    return HierarchySpec(
        name="Root",
        children=(
            HierarchySpec(name="Left", weight=1.0, flows={"A": 3.0, "B": 7.0}),
            HierarchySpec(name="Right", weight=9.0, flows={"C": 4.0, "D": 6.0}),
        ),
    )


def build_fig3_tree(pifo_backend: BackendSpec = None) -> ScheduleTree:
    """The HPFQ tree of Figure 3, ready to attach to a scheduler."""
    return build_hierarchy(fig3_spec(), pifo_backend=pifo_backend)


def build_wfq_tree(
    weights: Mapping[str, float], pifo_backend: BackendSpec = None
) -> ScheduleTree:
    """Single-node WFQ over a set of flows (the Section 2.1 configuration)."""
    root = TreeNode(
        name="WFQ",
        scheduling=stfq_program(weights=dict(weights)),
        pifo_backend=pifo_backend,
    )
    return ScheduleTree(root)


def build_deep_hierarchy(
    levels: int,
    fanout: int = 2,
    flows_per_leaf: int = 2,
    base_weight: float = 1.0,
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Build a uniform hierarchy ``levels`` deep (used by the 5-level
    hierarchical-scheduling claim in the introduction and by scaling
    benchmarks).

    Level 1 is the root; leaves at level ``levels`` each serve
    ``flows_per_leaf`` flows named ``f<leaf>.<i>``.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if fanout < 1 or flows_per_leaf < 1:
        raise ValueError("fanout and flows_per_leaf must be at least 1")

    leaf_counter = [0]

    def _spec(depth: int, index: int) -> HierarchySpec:
        name = f"L{depth}.{index}"
        if depth == levels:
            leaf_id = leaf_counter[0]
            leaf_counter[0] += 1
            flows = {
                f"f{leaf_id}.{i}": base_weight for i in range(flows_per_leaf)
            }
            return HierarchySpec(name=name, weight=base_weight, flows=flows)
        children = tuple(
            _spec(depth + 1, index * fanout + i) for i in range(fanout)
        )
        return HierarchySpec(name=name, weight=base_weight, children=children)

    return build_hierarchy(_spec(1, 0), pifo_backend=pifo_backend)


def hierarchy_flows(tree: ScheduleTree) -> Dict[str, List[str]]:
    """Map each leaf class to the flows it serves (handy for workloads)."""
    mapping: Dict[str, List[str]] = {}
    for leaf in tree.leaves():
        mapping[leaf.name] = list(getattr(leaf.scheduling, "weights", ()))
    return mapping
