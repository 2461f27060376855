"""Compiling a scheduling tree onto a PIFO mesh (Section 4.3, Figures 10-11).

The compiler takes a :class:`~repro.core.tree.ScheduleTree` and produces a
:class:`MeshProgram`:

* every tree **level** is assigned its own PIFO block (``sched_L<i>``), so a
  packet performs at most one enqueue and one dequeue per block per level —
  the constraint that makes work-conserving algorithms run at line rate;
* every node with a shaping transaction gets its shaping PIFO placed in an
  **additional** block for that level (``shape_L<i>``), exactly as Figure 11
  adds a separate block for ``TBF_Right``;
* next-hop lookup tables are generated per block: interior scheduling PIFOs
  chain a *dequeue* to the child level's block, leaf scheduling PIFOs
  *transmit*, and shaping PIFOs *enqueue* into the parent level's block.

:class:`HardwareScheduler` then executes the tree's transactions against the
compiled mesh, providing the same external interface as the reference
:class:`~repro.core.scheduler.ProgrammableScheduler` so the two can be
compared packet for packet.

Fidelity note: the flow-scheduler + rank-store decomposition assumes packet
ranks do not *decrease* within a flow (Section 5.2's structural
observation).  Algorithms that violate it (for example SRPT, where a flow's
remaining size shrinks) may see head-of-flow blocking relative to an ideal
PIFO; ``tests/hardware/test_equivalence.py`` demonstrates both the
equivalence under the assumption and the documented deviation without it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.packet import Packet
from ..core.scheduler import SchedulerStats, ShapingToken
from ..core.transaction import TransactionContext
from ..core.tree import ScheduleTree, TreeNode
from ..exceptions import CompilationError, SchedulerError
from .mesh import NextHop, PIFOMesh
from .pifo_block import PIFOBlock


@dataclass(frozen=True)
class PIFOAssignment:
    """Placement of one logical PIFO in the mesh."""

    node: str
    block: str
    logical_pifo: int
    kind: str  # "scheduling" | "shaping"


@dataclass
class MeshProgram:
    """The compiler's output: a configured mesh plus placement metadata."""

    mesh: PIFOMesh
    scheduling_assignment: Dict[str, PIFOAssignment]
    shaping_assignment: Dict[str, PIFOAssignment]
    levels: int

    def block_count(self) -> int:
        return self.mesh.block_count()

    def assignments(self) -> List[PIFOAssignment]:
        return list(self.scheduling_assignment.values()) + list(
            self.shaping_assignment.values()
        )

    def describe(self) -> str:
        lines = [f"{self.levels} tree levels, {self.block_count()} PIFO blocks"]
        lines.append(self.mesh.describe())
        return "\n".join(lines)


class MeshCompiler:
    """Turns scheduling trees into configured PIFO meshes."""

    def __init__(
        self,
        capacity_flows: int = 1024,
        rank_store_capacity: int = 64 * 1024,
        logical_pifos_per_block: int = 256,
        max_blocks: Optional[int] = None,
    ) -> None:
        self.capacity_flows = capacity_flows
        self.rank_store_capacity = rank_store_capacity
        self.logical_pifos_per_block = logical_pifos_per_block
        self.max_blocks = max_blocks

    def _new_block(self, mesh: PIFOMesh, name: str) -> PIFOBlock:
        block = PIFOBlock(
            name=name,
            capacity_flows=self.capacity_flows,
            rank_store_capacity=self.rank_store_capacity,
            logical_pifo_count=self.logical_pifos_per_block,
        )
        return mesh.add_block(block)

    def compile(self, tree: ScheduleTree) -> MeshProgram:
        """Compile the tree; raises :class:`CompilationError` on violations
        of block capacity or the block budget."""
        mesh = PIFOMesh()
        levels = tree.levels()
        scheduling_assignment: Dict[str, PIFOAssignment] = {}
        shaping_assignment: Dict[str, PIFOAssignment] = {}

        # Pass 1: create blocks and assign logical PIFO IDs level by level.
        sched_block_of_level: Dict[int, str] = {}
        shape_block_of_level: Dict[int, str] = {}
        for depth, nodes in enumerate(levels):
            if len(nodes) > self.logical_pifos_per_block:
                raise CompilationError(
                    f"level {depth} has {len(nodes)} nodes, more than the "
                    f"{self.logical_pifos_per_block} logical PIFOs one block provides"
                )
            sched_name = f"sched_L{depth}"
            self._new_block(mesh, sched_name)
            sched_block_of_level[depth] = sched_name
            for index, node in enumerate(nodes):
                scheduling_assignment[node.name] = PIFOAssignment(
                    node=node.name,
                    block=sched_name,
                    logical_pifo=index,
                    kind="scheduling",
                )
            shaped_nodes = [node for node in nodes if node.shaping is not None]
            if shaped_nodes:
                shape_name = f"shape_L{depth}"
                self._new_block(mesh, shape_name)
                shape_block_of_level[depth] = shape_name
                for index, node in enumerate(shaped_nodes):
                    shaping_assignment[node.name] = PIFOAssignment(
                        node=node.name,
                        block=shape_name,
                        logical_pifo=index,
                        kind="shaping",
                    )

        if self.max_blocks is not None and mesh.block_count() > self.max_blocks:
            raise CompilationError(
                f"tree needs {mesh.block_count()} PIFO blocks, exceeding the "
                f"mesh budget of {self.max_blocks}"
            )

        # Pass 2: next-hop lookup tables.
        for depth, nodes in enumerate(levels):
            for node in nodes:
                assignment = scheduling_assignment[node.name]
                if node.is_leaf:
                    hop = NextHop(operation="transmit")
                else:
                    hop = NextHop(
                        operation="dequeue",
                        target_block=sched_block_of_level[depth + 1],
                    )
                mesh.set_next_hop(assignment.block, assignment.logical_pifo, hop)
            for node in nodes:
                if node.shaping is None:
                    continue
                assignment = shaping_assignment[node.name]
                if node.parent is None:  # pragma: no cover - tree validation forbids
                    raise CompilationError("root node cannot carry shaping")
                parent_block = scheduling_assignment[node.parent.name].block
                mesh.set_next_hop(
                    assignment.block,
                    assignment.logical_pifo,
                    NextHop(operation="enqueue", target_block=parent_block),
                )

        return MeshProgram(
            mesh=mesh,
            scheduling_assignment=scheduling_assignment,
            shaping_assignment=shaping_assignment,
            levels=len(levels),
        )


def compile_tree(tree: ScheduleTree, **kwargs) -> MeshProgram:
    """Convenience wrapper: ``MeshCompiler(**kwargs).compile(tree)``."""
    return MeshCompiler(**kwargs).compile(tree)


class HardwareScheduler:
    """Executes a scheduling tree on a compiled PIFO mesh.

    Provides the same ``enqueue`` / ``dequeue`` / ``next_shaping_release`` /
    ``__len__`` interface as the reference engine so it can drive an
    :class:`~repro.sim.link.OutputPort` or be diffed against the reference
    packet by packet.
    """

    def __init__(self, tree: ScheduleTree, program: Optional[MeshProgram] = None,
                 compiler: Optional[MeshCompiler] = None) -> None:
        self.tree = tree
        # Kept so reset() recompiles with the caller's block capacities
        # instead of silently reverting to defaults.
        self._compiler = compiler or MeshCompiler()
        self.program = (
            program if program is not None else self._compiler.compile(tree)
        )
        self.mesh = self.program.mesh
        self.stats = SchedulerStats()
        self._buffered_packets = 0
        # Count of elements per node's scheduling PIFO (for invariants).
        self._node_elements: Dict[str, int] = {node.name: 0 for node in tree.nodes()}
        # Global shaping calendar: (release_time, push order, token, slot).
        # Mirrors the reference engine so release processing is O(log n) per
        # token instead of scanning every shaping assignment per poll.
        self._shaping_calendar: List[Tuple[float, int, ShapingToken, PIFOAssignment]] = []
        self._calendar_seq = 0

    # -- placement helpers ------------------------------------------------------------
    def _sched_slot(self, node: TreeNode) -> PIFOAssignment:
        return self.program.scheduling_assignment[node.name]

    def _shape_slot(self, node: TreeNode) -> PIFOAssignment:
        return self.program.shaping_assignment[node.name]

    def _block(self, name: str) -> PIFOBlock:
        return self.mesh.blocks[name]

    # -- enqueue path -------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: Optional[float] = None) -> bool:
        time_now = packet.arrival_time if now is None else now
        path = self.tree.match_path(packet)
        self._walk_up(packet, path, 0, time_now, from_child=None)
        packet.enqueue_time = time_now
        self._buffered_packets += 1
        per_flow = self.stats.per_flow_enqueued
        per_flow[packet.flow] = per_flow.get(packet.flow, 0) + 1
        return True

    def _walk_up(
        self,
        packet: Packet,
        path: List[TreeNode],
        start_index: int,
        now: float,
        from_child: Optional[TreeNode],
    ) -> None:
        child = from_child
        for index in range(start_index, len(path)):
            node = path[index]
            element = packet if child is None else child
            flow = node.element_flow(packet, child)
            ctx = TransactionContext(
                now=now,
                node=node.name,
                element_flow=flow,
                element_length=packet.length,
            )
            rank = node.scheduling(packet, ctx)
            slot = self._sched_slot(node)
            self._block(slot.block).enqueue(
                slot.logical_pifo, rank=rank, flow=flow, metadata=element
            )
            self._node_elements[node.name] += 1

            if node.shaping is not None and index + 1 < len(path):
                send_time = node.shaping(packet, ctx)
                token = ShapingToken(
                    node=node,
                    packet=packet,
                    path=path,
                    resume_index=index + 1,
                    release_time=send_time,
                )
                shape_slot = self._shape_slot(node)
                self._block(shape_slot.block).enqueue(
                    shape_slot.logical_pifo,
                    rank=send_time,
                    flow=node.name,
                    metadata=token,
                )
                heapq.heappush(
                    self._shaping_calendar,
                    (send_time, self._calendar_seq, token, shape_slot),
                )
                self._calendar_seq += 1
                return
            child = node

    # -- shaping releases ----------------------------------------------------------------
    def _token_is_masked(self, token: ShapingToken, slot: PIFOAssignment) -> bool:
        """A shaping entry is paused when its flow (the shaped node's name)
        is PFC-masked in the shaping block; it must be *deferred*, never
        discarded — it becomes releasable again on unmask."""
        block = self._block(slot.block)
        return token.node.name in block.flow_scheduler.masked_flows()

    def _calendar_entry_is_stale(
        self, token: ShapingToken, slot: PIFOAssignment
    ) -> bool:
        """Stale when the token no longer heads its shaping logical PIFO
        (only possible after an external reset/recompile)."""
        head = self._block(slot.block).peek(slot.logical_pifo)
        return head is None or head.metadata is not token

    def process_shaping_releases(self, now: float) -> int:
        """Release due tokens in global release-time order by popping the
        shaping calendar — O(log n) per token, independent of how many
        shaped nodes the program has.  PFC-masked entries are set aside
        and re-queued so a pause defers (not drops) the release."""
        released = 0
        calendar = self._shaping_calendar
        deferred = []
        while calendar and calendar[0][0] <= now:
            entry = heapq.heappop(calendar)
            _, _, token, slot = entry
            if self._token_is_masked(token, slot):
                deferred.append(entry)
                continue
            if self._calendar_entry_is_stale(token, slot):
                continue
            self._block(slot.block).dequeue(slot.logical_pifo)
            self.stats.shaping_releases += 1
            released += 1
            self._walk_up(
                token.packet,
                token.path,
                token.resume_index,
                max(token.release_time, 0.0),
                from_child=token.node,
            )
        for entry in deferred:
            heapq.heappush(calendar, entry)
        return released

    def next_shaping_release(self) -> Optional[float]:
        """Earliest *releasable* pending time, skipping PFC-masked entries
        (a masked token cannot fire, and advertising its time would shadow
        later releasable tokens — the seed's mask-honouring peek likewise
        made paused heads invisible here)."""
        calendar = self._shaping_calendar
        deferred = []
        result: Optional[float] = None
        while calendar:
            release_time, _, token, slot = calendar[0]
            if self._token_is_masked(token, slot):
                deferred.append(heapq.heappop(calendar))
                continue
            if self._calendar_entry_is_stale(token, slot):
                heapq.heappop(calendar)
                continue
            result = release_time
            break
        for entry in deferred:
            heapq.heappush(calendar, entry)
        return result

    # -- dequeue path ----------------------------------------------------------------------
    def dequeue(self, now: float = 0.0) -> Optional[Packet]:
        self.process_shaping_releases(now)
        node = self.tree.root
        slot = self._sched_slot(node)
        if self._block(slot.block).is_empty(slot.logical_pifo):
            return None
        while True:
            slot = self._sched_slot(node)
            result = self._block(slot.block).dequeue(slot.logical_pifo)
            if result is None:
                raise SchedulerError(
                    f"dangling reference: node {node.name!r} was referenced but "
                    "its logical PIFO is empty"
                )
            self._node_elements[node.name] -= 1
            element = result.metadata
            ctx = TransactionContext(
                now=now,
                node=node.name,
                element_flow=result.flow,
                element_length=0 if isinstance(element, TreeNode) else element.length,
                extras={"rank": result.rank},
            )
            node.scheduling.on_dequeue(element, ctx)
            if isinstance(element, TreeNode):
                # Follow the next-hop table downward (and sanity-check that
                # the compiled table agrees with the tree structure).
                hop = self.mesh.next_hop(slot.block, slot.logical_pifo)
                child_slot = self._sched_slot(element)
                if hop.operation != "dequeue" or hop.target_block != child_slot.block:
                    raise SchedulerError(
                        "next-hop table disagrees with tree structure for node "
                        f"{node.name!r}"
                    )
                node = element
                continue
            packet: Packet = element
            packet.dequeue_time = now
            self._buffered_packets -= 1
            per_flow = self.stats.per_flow_dequeued
            per_flow[packet.flow] = per_flow.get(packet.flow, 0) + 1
            return packet

    # -- misc -----------------------------------------------------------------------------
    def __len__(self) -> int:
        return self._buffered_packets

    @property
    def is_empty(self) -> bool:
        return self._buffered_packets == 0

    def drain(self, now: float = 0.0) -> List[Packet]:
        packets: List[Packet] = []
        while True:
            packet = self.dequeue(now)
            if packet is None:
                return packets
            packets.append(packet)

    def reset(self) -> None:
        """Reset transactions and recompile a fresh mesh (with the original
        compiler's capacities when one was supplied)."""
        self.tree.reset()
        self.program = self._compiler.compile(self.tree)
        self.mesh = self.program.mesh
        self.stats = SchedulerStats()
        self._buffered_packets = 0
        self._node_elements = {node.name: 0 for node in self.tree.nodes()}
        self._shaping_calendar.clear()
        self._calendar_seq = 0
