"""Class-Based Queueing (Section 3.4, item 5).

CBQ first schedules among classes based on a priority assigned to each
class, then uses fair queueing among packets within a class.  The paper
programs it as a two-level PIFO tree: the root runs strict priority over
class references and each class node runs WFQ/STFQ over its flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..core.backend import BackendSpec
from ..core.predicates import FlowIn
from ..core.tree import ScheduleTree, TreeNode
from ..lang.programs import stfq_program
from .strict_priority import ClassPriorityTransaction


@dataclass
class CBQClass:
    """One CBQ class: a priority plus the flows it serves.

    Attributes
    ----------
    name:
        Class name.
    priority:
        Strict priority of the class (lower = scheduled first).
    flows:
        Mapping from flow identifier to its fair-queueing weight within the
        class.
    """

    name: str
    priority: int
    flows: Mapping[str, float] = field(default_factory=dict)


def build_cbq_tree(
    classes: Sequence[CBQClass],
    root_name: str = "CBQ",
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Build the two-level CBQ tree (inter-class priority, intra-class WFQ)."""
    priorities = {cbq_class.name: cbq_class.priority for cbq_class in classes}
    root = TreeNode(
        name=root_name,
        scheduling=ClassPriorityTransaction(priorities),
    )
    for cbq_class in classes:
        root.add_child(
            TreeNode(
                name=cbq_class.name,
                predicate=FlowIn(cbq_class.flows),
                scheduling=stfq_program(weights=dict(cbq_class.flows)),
            )
        )
    return ScheduleTree(root, pifo_backend=pifo_backend)
