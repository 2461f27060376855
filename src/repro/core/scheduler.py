"""The reference programmable-scheduler engine.

:class:`ProgrammableScheduler` executes a :class:`~repro.core.tree.ScheduleTree`
with the exact semantics of Sections 2.1-2.3:

* **Enqueue** — the packet walks its matching path from leaf to root.  At
  each node the scheduling transaction computes a rank and one element is
  pushed into that node's scheduling PIFO (the packet at the leaf, a
  reference to the child node elsewhere).  The first node on the path with a
  shaping transaction pushes a release token into its shaping PIFO and
  *suspends* the walk; when the token's wall-clock time arrives the walk
  *resumes* at the parent (Figure 5).  Suspend/resume can repeat if several
  shaped nodes lie on the path.
* **Dequeue** — starting at the root's scheduling PIFO, pop an element; if
  it is a reference, recursively pop the referenced child until a packet is
  reached (Figure 2).  Transactions get an ``on_dequeue`` callback so that
  algorithms like STFQ can maintain their virtual time.

The engine is intentionally simple and single-threaded: it is the semantic
ground truth against which the cycle-level hardware model
(:mod:`repro.hardware`) is validated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..exceptions import PIFOFullError, SchedulerError
from .backend import BackendSpec
from .packet import Packet
from .pifo import Rank
from .transaction import TransactionContext
from .tree import ScheduleTree, TreeNode, _packet_flow


@dataclass(slots=True)
class ShapingToken:
    """A suspended enqueue waiting in a node's shaping PIFO.

    Attributes
    ----------
    node:
        The shaped node; on release, a reference to this node is enqueued
        into its parent's scheduling PIFO.
    packet:
        The packet whose arrival triggered the walk.  Its metadata (length,
        flow) feeds the remaining transactions on the path.
    path:
        The full leaf-to-root path the packet matched.
    resume_index:
        Index into ``path`` of the node at which the walk resumes (the
        shaped node's parent).
    release_time:
        Wall-clock time at which the token becomes eligible.
    """

    node: TreeNode
    packet: Packet
    path: List[TreeNode]
    resume_index: int
    release_time: float


@dataclass
class SchedulerStats:
    """Counters maintained by the reference scheduler.

    A packet is counted once, under its flow; the totals are read off the
    per-flow tallies.
    """

    dropped: int = 0
    shaping_releases: int = 0
    per_flow_enqueued: dict = field(default_factory=dict)
    per_flow_dequeued: dict = field(default_factory=dict)

    @property
    def enqueued(self) -> int:
        return sum(self.per_flow_enqueued.values())

    @property
    def dequeued(self) -> int:
        return sum(self.per_flow_dequeued.values())


class ProgrammableScheduler:
    """Reference implementation of a PIFO-programmed packet scheduler.

    Parameters
    ----------
    tree:
        The scheduling algorithm, expressed as a tree of scheduling and
        shaping transactions.
    drop_on_full:
        When a node's scheduling PIFO is at capacity, drop the packet
        (returning ``False`` from :meth:`enqueue`) instead of raising.
        Mirrors a switch dropping on buffer exhaustion.
    pifo_backend:
        Optional backend spec (see :mod:`repro.core.backend`) applied to
        every PIFO in the tree before the run starts.
    tree_kernel:
        Whether to fuse the whole tree into a generated per-shape kernel
        (:mod:`repro.lang.treekernel`) replacing :meth:`enqueue` /
        :meth:`dequeue` with specialised straight-line code.  Defaults to
        on and covers every tree, shaping included; only a scheduler *subclass* stays on
        the interpreted methods, with the reason in
        ``kernel_fallback_reason``.  ``tree_kernel=False`` selects those
        methods on purpose: they are the executable statement of Sections
        2.1-2.3 that the kernel is checked against in lockstep.

    Shaping releases are driven by a single **global shaping calendar**: a
    heap of ``(release_time, seq, token)`` shared by the whole tree.  The
    per-node shaping PIFOs remain authoritative for introspection (and are
    what the hardware compiler places into mesh blocks), but release
    processing pops the calendar in O(log n) per token instead of scanning
    every node of the tree on every poll.
    """

    def __init__(
        self,
        tree: ScheduleTree,
        drop_on_full: bool = True,
        pifo_backend: BackendSpec = None,
        tree_kernel: bool = True,
    ) -> None:
        self.tree = tree
        self.drop_on_full = drop_on_full
        if pifo_backend is not None:
            tree.use_backend(pifo_backend)
        self.pifo_backend: BackendSpec = tree.pifo_backend
        self.stats = SchedulerStats()
        self._buffered_packets = 0
        #: Global shaping calendar: (release_time, push order, token).
        self._shaping_calendar: List[Tuple[float, int, ShapingToken]] = []
        self._calendar_seq = 0
        # Reused transaction contexts: one per direction, mutated per call.
        # Transactions treat the context as read-only inputs consumed during
        # the call (the documented contract), so reuse is observationally
        # identical while removing two allocations per packet per node.
        self._enq_ctx = TransactionContext()
        self._deq_ctx = TransactionContext()
        #: The installed fused kernel (None when running interpreted).
        self.tree_kernel = None
        #: True only for a live kernel over a tree without shaping: then a
        #: non-empty scheduler always yields a packet, which is what lets a
        #: port use :meth:`transfer` (``None`` must mean "dropped") and skip
        #: the shaping wake-up.
        self.kernel_work_conserving = False
        #: Why the fused kernel is not installed (None when it is).
        self.kernel_fallback_reason: Optional[str] = None
        self._tree_kernel_enabled = tree_kernel
        self._install_kernel()

    def use_backend(self, backend: BackendSpec) -> None:
        """Swap every PIFO in the tree onto ``backend`` (entries migrate)."""
        self.tree.use_backend(backend)
        self.pifo_backend = backend
        self._install_kernel()

    # ------------------------------------------------------------------ #
    # Fused tree kernel                                                   #
    # ------------------------------------------------------------------ #
    def _install_kernel(self) -> None:
        """(Re)build and bind the fused kernel, or fall back interpreted.

        Called from every sanctioned mutation point (construction,
        :meth:`reset`, :meth:`use_backend`) and from the kernel's own
        staleness guard when the tree was changed behind the scheduler's
        back (``tree.use_backend``, ``add_child``, direct transaction
        resets).  The one fallback left is a subclass: the kernel binds
        per-instance closures, which would shadow its method overrides.
        """
        if not self._tree_kernel_enabled:
            self._uninstall_kernel()
            return
        from ..lang.treekernel import TreeKernelError, compile_tree_kernel

        try:
            kernel = compile_tree_kernel(self)
        except TreeKernelError as exc:
            self._uninstall_kernel()
            self.kernel_fallback_reason = str(exc)
            return
        self.tree_kernel = kernel
        self.kernel_work_conserving = kernel.work_conserving
        self.kernel_fallback_reason = None
        # Instance-attribute binding: reads shadow the class methods, so
        # ports and fabrics call the fused closures with zero dispatch.
        self.enqueue = kernel.enqueue
        self.dequeue = kernel.dequeue
        self.transfer = kernel.transfer
        self.next_shaping_release = kernel.next_release

    def _uninstall_kernel(self) -> None:
        self.tree_kernel = None
        self.kernel_work_conserving = False
        self.kernel_fallback_reason = "disabled"
        for name in ("enqueue", "dequeue", "transfer", "next_shaping_release"):
            self.__dict__.pop(name, None)

    def set_tree_kernel(self, enabled: bool) -> None:
        """Enable/disable the fused kernel on a live (idle) scheduler."""
        self._tree_kernel_enabled = enabled
        self._install_kernel()

    def _kernel_stale_enqueue(self, packet: Packet, now: Optional[float]) -> bool:
        """Guard trip on enqueue: re-specialise, then retry the call."""
        self._install_kernel()
        return self.enqueue(packet, now=now)

    def _kernel_stale_dequeue(self, now: float) -> Optional[Packet]:
        """Guard trip on dequeue: re-specialise, then retry the call."""
        self._install_kernel()
        return self.dequeue(now=now)

    def _kernel_stale_transfer(self, packet: Packet, now: float) -> Optional[Packet]:
        """Guard trip on transfer: re-specialise, then retry (or compose)."""
        self._install_kernel()
        kernel = self.tree_kernel
        if kernel is not None:
            return kernel.transfer(packet, now)
        if not self.enqueue(packet, now=now):
            return None
        return self.dequeue(now=now)

    # ------------------------------------------------------------------ #
    # Enqueue path                                                        #
    # ------------------------------------------------------------------ #
    def enqueue(self, packet: Packet, now: Optional[float] = None) -> bool:
        """Run the packet's transactions and buffer it.

        Returns ``True`` if the packet was buffered, ``False`` if it was
        dropped because a PIFO on its path was full.
        """
        time_now = packet.arrival_time if now is None else now
        path = self.tree.match_path(packet)
        try:
            if len(path) == 1 and path[0].shaping is None:
                # Single work-conserving node (the dominant tree shape in
                # throughput runs): skip the generic walk's loop framing.
                node = path[0]
                ctx = self._enq_ctx
                ctx.now = time_now
                ctx.node = node.name
                ctx.element_length = packet.length
                flow_fn = node.flow_fn
                ctx.element_flow = (packet.flow if flow_fn is _packet_flow
                                    else flow_fn(packet))
                node.scheduling_pifo.push(packet, node.scheduling(packet, ctx))
            else:
                self._walk_up(packet, path, start_index=0, now=time_now,
                              from_child=None)
        except PIFOFullError:
            if not self.drop_on_full:
                raise
            self.stats.dropped += 1
            return False
        packet.enqueue_time = time_now
        self._buffered_packets += 1
        per_flow = self.stats.per_flow_enqueued
        try:
            per_flow[packet.flow] += 1
        except KeyError:
            per_flow[packet.flow] = 1
        return True

    def _walk_up(
        self,
        packet: Packet,
        path: List[TreeNode],
        start_index: int,
        now: float,
        from_child: Optional[TreeNode],
    ) -> None:
        """Execute transactions along ``path[start_index:]``.

        Suspends (returns early) at the first node carrying a shaping
        transaction that is not the last node of the path.
        """
        child = from_child
        ctx = self._enq_ctx
        ctx.now = now
        ctx.element_length = packet.length
        for index in range(start_index, len(path)):
            node = path[index]
            element = packet if child is None else child
            ctx.node = node.name
            if child is not None:
                ctx.element_flow = child.name
            else:
                flow_fn = node.flow_fn
                ctx.element_flow = (packet.flow if flow_fn is _packet_flow
                                    else flow_fn(packet))
            rank = node.scheduling(packet, ctx)
            node.scheduling_pifo.push(element, rank)

            has_parent_on_path = index + 1 < len(path)
            if node.shaping is not None and has_parent_on_path:
                send_time = node.shaping(packet, ctx)
                token = ShapingToken(
                    node=node,
                    packet=packet,
                    path=path,
                    resume_index=index + 1,
                    release_time=send_time,
                )
                assert node.shaping_pifo is not None
                node.shaping_pifo.push(token, send_time)
                heapq.heappush(
                    self._shaping_calendar,
                    (send_time, self._calendar_seq, token),
                )
                self._calendar_seq += 1
                return
            child = node

    # ------------------------------------------------------------------ #
    # Shaping releases                                                    #
    # ------------------------------------------------------------------ #
    def _calendar_entry_is_stale(self, token: ShapingToken) -> bool:
        """A calendar entry is stale when its token is no longer the head of
        its node's shaping PIFO — which only happens when the tree was reset
        or the token was removed behind the scheduler's back."""
        pifo = token.node.shaping_pifo
        return pifo is None or pifo.is_empty or pifo.peek() is not token

    def process_shaping_releases(self, now: float) -> int:
        """Release every shaping token whose time has arrived.

        Tokens are processed in global release-time order so that multiple
        shaped nodes interleave deterministically.  Pops the global shaping
        calendar — O(log n) per released token, independent of the number
        of tree nodes — instead of the seed's per-call scan of every node.
        Returns the number of tokens released.
        """
        released = 0
        calendar = self._shaping_calendar
        while calendar and calendar[0][0] <= now:
            _, _, token = heapq.heappop(calendar)
            if self._calendar_entry_is_stale(token):
                continue
            token.node.shaping_pifo.pop()
            self.stats.shaping_releases += 1
            released += 1
            # Resume the walk at the parent, using the token's release time
            # as "now" so rank computations are independent of how late the
            # caller polls.
            self._walk_up(
                token.packet,
                token.path,
                start_index=token.resume_index,
                now=max(token.release_time, 0.0),
                from_child=token.node,
            )
        return released

    def next_shaping_release(self) -> Optional[float]:
        """Earliest pending shaping release time, or ``None`` if none.

        The simulator uses this to schedule a wake-up for non-work-conserving
        algorithms instead of busy-polling.  O(1) plus lazy cleanup of stale
        calendar entries.
        """
        calendar = self._shaping_calendar
        while calendar:
            release_time, _, token = calendar[0]
            if self._calendar_entry_is_stale(token):
                heapq.heappop(calendar)
                continue
            return release_time
        return None

    # ------------------------------------------------------------------ #
    # Dequeue path                                                        #
    # ------------------------------------------------------------------ #
    def dequeue(self, now: float = 0.0) -> Optional[Packet]:
        """Return the next packet to transmit, or ``None`` if none eligible.

        ``None`` can mean the scheduler is empty *or* that all buffered
        packets are held back by shaping transactions; use
        :meth:`next_shaping_release` to distinguish.
        """
        if self._shaping_calendar:
            self.process_shaping_releases(now)
        elif not self._buffered_packets:
            # Nothing buffered and nothing suspended: the common "is there
            # more work?" probe from a freshly idle port costs two int tests.
            return None
        node = self.tree.root
        if node.scheduling_pifo.is_empty:
            return None
        ctx = self._deq_ctx
        ctx.now = now
        extras = ctx.extras
        while True:
            entry = node.scheduling_pifo.pop_entry()
            element = entry.element
            is_ref = isinstance(element, TreeNode)
            if node.needs_dequeue_hook:
                ctx.node = node.name
                ctx.element_flow = element.name if is_ref else element.flow
                ctx.element_length = 0 if is_ref else element.length
                extras["rank"] = entry.rank
                node.scheduling.on_dequeue(element, ctx)
            if is_ref:
                node = element
                if node.scheduling_pifo.is_empty:
                    raise SchedulerError(
                        f"dangling reference: node {node.name!r} was referenced "
                        "by its parent but its scheduling PIFO is empty"
                    )
                continue
            packet: Packet = element
            packet.dequeue_time = now
            self._buffered_packets -= 1
            per_flow = self.stats.per_flow_dequeued
            try:
                per_flow[packet.flow] += 1
            except KeyError:
                per_flow[packet.flow] = 1
            return packet

    def peek(self, now: float = 0.0) -> Optional[Packet]:
        """Return the packet that :meth:`dequeue` would return, without
        removing it.  Shaping releases due by ``now`` are applied."""
        if self._shaping_calendar:
            self.process_shaping_releases(now)
        node = self.tree.root
        if node.scheduling_pifo.is_empty:
            return None
        while True:
            element = node.scheduling_pifo.peek()
            if isinstance(element, TreeNode):
                node = element
                if node.scheduling_pifo.is_empty:
                    raise SchedulerError(
                        f"dangling reference: node {node.name!r} was referenced "
                        "by its parent but its scheduling PIFO is empty"
                    )
                continue
            return element

    # ------------------------------------------------------------------ #
    # Convenience                                                         #
    # ------------------------------------------------------------------ #
    def drain(self, now: float = 0.0) -> List[Packet]:
        """Dequeue until no packet is eligible at time ``now``.

        For work-conserving trees this empties the scheduler and returns the
        complete departure order; shaped trees may leave packets pending.
        """
        packets: List[Packet] = []
        while True:
            packet = self.dequeue(now)
            if packet is None:
                return packets
            packets.append(packet)

    def drain_timed(self, until: float, step: Optional[float] = None) -> List[Packet]:
        """Drain a shaped scheduler by advancing wall-clock time.

        Repeatedly dequeues, jumping the clock to the next shaping release
        when nothing is eligible, until ``until`` is reached or the
        scheduler is empty.  Packets' ``dequeue_time`` reflects when they
        became eligible, which is what the shaping experiments measure.
        """
        packets: List[Packet] = []
        now = 0.0
        while now <= until and len(self) > 0:
            packet = self.dequeue(now)
            if packet is not None:
                packets.append(packet)
                continue
            next_release = self.next_shaping_release()
            if next_release is None:
                break
            if step is not None:
                now = min(until, max(next_release, now + step))
            else:
                now = next_release
            if next_release > until:
                break
        return packets

    def __len__(self) -> int:
        """Number of packets currently buffered (not PIFO elements)."""
        return self._buffered_packets

    @property
    def is_empty(self) -> bool:
        return self._buffered_packets == 0

    def buffered_elements(self) -> int:
        """Total elements across every PIFO in the tree (packets + refs)."""
        return self.tree.buffered_elements()

    def reset(self) -> None:
        """Reset PIFOs, transaction state and counters for a fresh run."""
        self.tree.reset()
        self.stats = SchedulerStats()
        self._buffered_packets = 0
        self._shaping_calendar.clear()
        self._calendar_seq = 0
        # Fresh stats / transaction state invalidate the fused kernel's
        # hoisted cells; rebuild (cache hit: the shape is unchanged).
        self._install_kernel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProgrammableScheduler(root={self.tree.root.name!r}, "
            f"buffered={self._buffered_packets})"
        )

