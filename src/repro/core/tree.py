"""Trees of scheduling and shaping transactions (Sections 2.2 and 2.3).

A scheduling algorithm is expressed as a tree.  Each node carries:

* a **packet predicate** selecting which packets execute the node's
  transactions,
* a **scheduling transaction** computing ranks for the node's scheduling
  PIFO, and
* optionally a **shaping transaction** computing wall-clock release times
  for the node's shaping PIFO.

Interior nodes' PIFOs hold references to their children; leaf nodes' PIFOs
hold packets.  The tree therefore encodes the instantaneous scheduling order
(Figure 2): dequeue the root, follow child references downward, and the leaf
PIFO yields the next packet.

This module defines the static structure; the dynamic enqueue/dequeue engine
lives in :mod:`repro.core.scheduler`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..exceptions import TreeConfigurationError
from .backend import BackendSpec, PIFOBackend, make_pifo
from .packet import Packet
from .predicates import MatchAll, Predicate
from .transaction import SchedulingTransaction, ShapingTransaction, Transaction


def _packet_flow(packet: Packet) -> str:
    """Default flow function: the packet's own flow label.

    A module-level function (not a per-node lambda) so the scheduler can
    recognise the default by identity and read ``packet.flow`` directly.
    """
    return packet.flow


class TreeNode:
    """One node of a scheduling tree.

    Parameters
    ----------
    name:
        Unique node name.  At interior nodes, the parent's scheduling
        transaction sees this name as the element's "flow" (for example
        ``WFQ_Root`` in Figure 3 schedules flows ``Left`` and ``Right``).
    scheduling:
        The node's scheduling transaction.
    predicate:
        Packet predicate; defaults to match-all.
    shaping:
        Optional shaping transaction (Section 2.3).
    flow_fn:
        Optional callable mapping a packet to the flow identifier used when
        *packets* (not references) are ranked at this node.  Defaults to the
        packet's ``flow`` attribute.
    pifo_capacity:
        Optional bound on the node's scheduling PIFO occupancy.
    pifo_backend:
        Backend spec (see :mod:`repro.core.backend`) for this node's
        scheduling and shaping PIFOs.  ``None`` selects the default
        (sorted-list) backend.
    """

    def __init__(
        self,
        name: str,
        scheduling: SchedulingTransaction,
        predicate: Optional[Predicate] = None,
        shaping: Optional[ShapingTransaction] = None,
        flow_fn: Optional[Callable[[Packet], str]] = None,
        pifo_capacity: Optional[int] = None,
        pifo_backend: BackendSpec = None,
        children: Optional[Sequence["TreeNode"]] = None,
    ) -> None:
        self.name = name
        self.predicate: Predicate = predicate if predicate is not None else MatchAll()
        self.scheduling = scheduling
        self.shaping = shaping
        self.flow_fn = flow_fn or _packet_flow
        #: Whether the scheduling transaction overrides ``on_dequeue``.  The
        #: dequeue engine skips the context bookkeeping entirely for the
        #: (common) transactions that ignore dequeues.
        self.needs_dequeue_hook = (
            type(scheduling).on_dequeue is not Transaction.on_dequeue
        )
        self.parent: Optional["TreeNode"] = None
        self.children: List["TreeNode"] = []
        #: The :class:`ScheduleTree` this node was sealed into (None while
        #: the hierarchy is still being built).
        self.tree: Optional["ScheduleTree"] = None
        self.pifo_capacity = pifo_capacity
        self.pifo_backend: BackendSpec = pifo_backend

        # Runtime PIFOs.  The scheduling PIFO holds packets (leaf) or child
        # references (interior).  The shaping PIFO, present only when a
        # shaping transaction is attached, holds deferred release tokens
        # ranked by wall-clock send time.
        self.scheduling_pifo: PIFOBackend = make_pifo(
            pifo_backend, capacity=pifo_capacity, name=f"{name}.sched"
        )
        self.shaping_pifo: Optional[PIFOBackend] = (
            make_pifo(pifo_backend, name=f"{name}.shape")
            if shaping is not None
            else None
        )

        for child in children or ():
            self.add_child(child)

    def use_backend(self, backend: BackendSpec) -> None:
        """Swap this node's PIFOs onto a different backend.

        Buffered entries migrate in dequeue order (FIFO ties preserved);
        operation counters restart at zero, so swap before a run when the
        counters matter.  A node of a scheduler's tree is swapped through
        :meth:`ProgrammableScheduler.use_backend` only.
        """
        if self.tree is not None:
            self.tree._check_unowned()
        self._swap_backend(backend)

    def _swap_backend(self, backend: BackendSpec) -> None:
        def _migrate(old: PIFOBackend, new: PIFOBackend) -> PIFOBackend:
            new.enqueue_many(
                (entry.element, entry.rank) for entry in old.entries()
            )
            return new

        self.pifo_backend = backend
        self.scheduling_pifo = _migrate(
            self.scheduling_pifo,
            make_pifo(backend, capacity=self.pifo_capacity, name=f"{self.name}.sched"),
        )
        if self.shaping_pifo is not None:
            self.shaping_pifo = _migrate(
                self.shaping_pifo,
                make_pifo(backend, name=f"{self.name}.shape"),
            )

    # -- structure ----------------------------------------------------------
    def add_child(self, child: "TreeNode") -> "TreeNode":
        """Attach ``child`` below this node and return it (for chaining).

        Only while building: a constructed :class:`ScheduleTree` is sealed.
        """
        if self.tree is not None or child.tree is not None:
            raise TreeConfigurationError(
                f"cannot attach {child.name!r} below {self.name!r}: the shape "
                "of a constructed ScheduleTree is fixed"
            )
        if child.parent is not None:
            raise TreeConfigurationError(
                f"node {child.name!r} already has parent {child.parent.name!r}"
            )
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def path_to_root(self) -> List["TreeNode"]:
        """Nodes from this node up to (and including) the root."""
        path = [self]
        node = self
        while node.parent is not None:
            node = node.parent
            path.append(node)
        return path

    def depth(self) -> int:
        """Distance from the root (root has depth 0)."""
        return len(self.path_to_root()) - 1

    # -- runtime helpers ----------------------------------------------------
    def reset(self) -> None:
        """Clear PIFOs and reset transaction state for a fresh run."""
        self.scheduling_pifo.clear()
        if self.shaping_pifo is not None:
            self.shaping_pifo.clear()
        self.scheduling.reset()
        if self.shaping is not None:
            self.shaping.reset()

    def element_flow(self, packet: Packet, from_child: Optional["TreeNode"]) -> str:
        """Flow identifier the scheduling transaction should use here.

        When the element being enqueued is a reference coming up from a
        child, the child's name is the flow; when it is the packet itself
        (leaf of the matching path), the node's ``flow_fn`` applies.
        """
        if from_child is not None:
            return from_child.name
        return self.flow_fn(packet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else f"{len(self.children)} children"
        shaped = ", shaped" if self.shaping is not None else ""
        return f"TreeNode({self.name!r}, {kind}{shaped})"


class ScheduleTree:
    """A validated tree of scheduling (and shaping) transactions.

    Construction seals the shape: no node can be attached afterwards.  The
    :class:`~repro.core.scheduler.ProgrammableScheduler` built over the tree
    owns it, and from then on swaps its storage itself.

    Parameters
    ----------
    root:
        Root node of the hierarchy.
    pifo_backend:
        Optional backend spec applied to *every* node's PIFOs (see
        :mod:`repro.core.backend`).  ``None`` leaves each node on whatever
        backend it was constructed with.
    """

    def __init__(self, root: TreeNode, pifo_backend: BackendSpec = None) -> None:
        self.root = root
        self._nodes: Dict[str, TreeNode] = {}
        self._validate()
        #: The scheduler running this tree (set by its constructor).
        self.owner = None
        for node in self._nodes.values():
            node.tree = self
        self.pifo_backend: BackendSpec = pifo_backend
        if pifo_backend is not None:
            self._swap_backend(pifo_backend)
        # Single match-all node (the most common tree in throughput runs):
        # every packet matches the same one-element path, so compute it once.
        # The cached list is shared — callers must not mutate match_path()'s
        # result (none do; the walk only reads it).
        self._trivial_path: Optional[List[TreeNode]] = (
            [root] if not root.children and isinstance(root.predicate, MatchAll)
            else None
        )

    def use_backend(self, backend: BackendSpec) -> None:
        """Swap every node's PIFOs onto ``backend`` (entries migrate)."""
        self._check_unowned()
        self._swap_backend(backend)

    def _swap_backend(self, backend: BackendSpec) -> None:
        self.pifo_backend = backend
        for node in self.root.walk():
            node._swap_backend(backend)

    def _check_unowned(self) -> None:
        if self.owner is not None:
            raise TreeConfigurationError(
                "this tree is owned by a ProgrammableScheduler: swap its "
                "storage with ProgrammableScheduler.use_backend, which "
                "re-installs the tree kernel"
            )

    # -- validation ----------------------------------------------------------
    def _validate(self) -> None:
        for node in self.root.walk():
            if node.tree is not None:
                raise TreeConfigurationError(
                    f"node {node.name!r} already belongs to a ScheduleTree"
                )
            if node.name in self._nodes:
                raise TreeConfigurationError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node
        if self.root.shaping is not None:
            raise TreeConfigurationError(
                "the root node cannot carry a shaping transaction: there is "
                "no parent PIFO to release into (use output shaping on the "
                "link instead)"
            )

    # -- lookup ---------------------------------------------------------------
    def node(self, name: str) -> TreeNode:
        """Return the node with the given name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TreeConfigurationError(f"no node named {name!r}") from None

    def nodes(self) -> List[TreeNode]:
        """All nodes in pre-order."""
        return list(self.root.walk())

    def leaves(self) -> List[TreeNode]:
        """All leaf nodes in pre-order."""
        return [node for node in self.root.walk() if node.is_leaf]

    def depth(self) -> int:
        """Number of levels in the tree (a single node has depth 1)."""
        return 1 + max((node.depth() for node in self.root.walk()), default=0)

    def levels(self) -> List[List[TreeNode]]:
        """Nodes grouped by depth, root level first."""
        grouped: Dict[int, List[TreeNode]] = {}
        for node in self.root.walk():
            grouped.setdefault(node.depth(), []).append(node)
        return [grouped[d] for d in sorted(grouped)]

    # -- packet classification -------------------------------------------------
    def match_path(self, packet: Packet) -> List[TreeNode]:
        """Nodes the packet executes, ordered leaf first, root last.

        The packet descends from the root through children whose predicates
        match.  The paper requires the matching nodes to form a single path;
        ambiguous trees (two sibling predicates matching the same packet)
        raise :class:`~repro.exceptions.TreeConfigurationError`.
        """
        trivial = self._trivial_path
        if trivial is not None:
            return trivial
        if not self.root.predicate(packet):
            raise TreeConfigurationError(
                f"packet {packet!r} does not match the root predicate"
            )
        path_down = [self.root]
        node = self.root
        while node.children:
            matches = [child for child in node.children if child.predicate(packet)]
            if not matches:
                break
            if len(matches) > 1:
                names = [child.name for child in matches]
                raise TreeConfigurationError(
                    f"packet {packet!r} matches multiple children {names} of "
                    f"node {node.name!r}; predicates must be disjoint"
                )
            node = matches[0]
            path_down.append(node)
        return list(reversed(path_down))

    def leaf_for(self, packet: Packet) -> TreeNode:
        """The deepest node whose predicate path matches the packet."""
        return self.match_path(packet)[0]

    # -- runtime ---------------------------------------------------------------
    def reset(self) -> None:
        """Reset every node for a fresh run."""
        for node in self.root.walk():
            node.reset()

    def buffered_elements(self) -> int:
        """Total number of elements across all scheduling and shaping PIFOs."""
        total = 0
        for node in self.root.walk():
            total += len(node.scheduling_pifo)
            if node.shaping_pifo is not None:
                total += len(node.shaping_pifo)
        return total

    def describe(self) -> str:
        """Multi-line, indentation-based description of the tree."""
        lines: List[str] = []

        def _describe(node: TreeNode, indent: int) -> None:
            shaping = (
                f" + shaping[{node.shaping.describe()}]" if node.shaping else ""
            )
            lines.append(
                "  " * indent
                + f"{node.name}: {node.predicate!r} -> "
                + node.scheduling.describe()
                + shaping
            )
            for child in node.children:
                _describe(child, indent + 1)

        _describe(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleTree(root={self.root.name!r}, nodes={len(self._nodes)})"


def single_node_tree(
    scheduling: SchedulingTransaction,
    name: str = "root",
    pifo_capacity: Optional[int] = None,
    pifo_backend: BackendSpec = None,
) -> ScheduleTree:
    """Build the simplest tree: one node, one scheduling transaction.

    This is the Section 2.1 configuration used for WFQ/STFQ, LSTF, FIFO and
    all fine-grained priority algorithms.
    """
    return ScheduleTree(
        TreeNode(
            name=name,
            scheduling=scheduling,
            pifo_capacity=pifo_capacity,
            pifo_backend=pifo_backend,
        )
    )
