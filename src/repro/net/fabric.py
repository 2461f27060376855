"""The fabric: a :class:`~repro.net.topology.Network` brought to life.

``Fabric`` instantiates one :class:`~repro.switch.SharedMemorySwitch` per
switch node — with one egress port per outgoing link, each port running the
experiment's scheduler at the link's rate — and a lightweight egress switch
per host (FIFO, effectively unbuffered admission) modelling the NIC.  Egress
ports are chained to the next hop's ingress through the
:class:`~repro.sim.link.OutputPort` delivery hook, so *any* scheduler or
PIFO backend that works on a single port works unmodified on any topology.

As a packet leaves each hop the fabric appends a ``(node, arrival,
queueing, departure)`` record to ``packet.hops`` and accumulates the hop's
queueing delay into the packet's ``prev_wait_time`` field (the in-band
telemetry Section 3.1 assumes), which is exactly what the LSTF transaction
consumes downstream.  End-to-end delay is measured from injection at the
source NIC to arrival at the destination host, propagation included.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from zlib import crc32

from ..algorithms.fifo import FIFOTransaction
from ..algorithms.lstf import PREV_WAIT_FIELD, stamp_wait_time
from ..core.backend import BackendSpec
from ..core.packet import EMPTY_FIELDS, Packet
from ..core.scheduler import ProgrammableScheduler
from ..core.tree import single_node_tree
from ..exceptions import RoutingError
from ..obs import metrics as obs_metrics
from ..sim.simulator import Simulator
from ..sim.sink import PacketSink
from ..sim.source import PacketSource
from ..switch.buffer import SharedBuffer
from ..switch.switch import PortSpec, SharedMemorySwitch
from .faults import FaultInjector, FaultPlan
from .routing import LinkFilter, build_forwarding_tables
from .topology import Network

#: Scheduler factory signature: ``(switch_name, port_name) -> scheduler``.
SchedulerFactory = Callable[[str, str], object]


def _default_host_scheduler(switch: str, port: str) -> ProgrammableScheduler:
    """Host NICs transmit in arrival order."""
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


class HostInjector:
    """Entry point for traffic at a host; quacks like a port for sources."""

    def __init__(self, fabric: "Fabric", host: str) -> None:
        self.fabric = fabric
        self.host = host

    def receive(self, packet: Packet) -> bool:
        return self.fabric.inject(self.host, packet)


def _on_backend(scheduler, backend: BackendSpec):
    """Put ``scheduler``'s tree on ``backend`` (when both are given)."""
    if backend is not None and hasattr(scheduler, "use_backend"):
        scheduler.use_backend(backend)
    return scheduler


class Fabric:
    """Simulation instance of a network: switches, links, host endpoints.

    Parameters
    ----------
    sim:
        Driving simulator.
    network:
        Topology to instantiate (validated on construction).
    scheduler_factory:
        ``(switch_name, port_name) -> scheduler`` producing a fresh scheduler
        for every switch egress port.
    ecmp:
        Keep all equal-cost next hops and spread flows across them by a
        stable flow hash; ``False`` pins each destination to one path.
    pifo_backend:
        Optional PIFO backend spec applied to every switch-port scheduler
        right after ``scheduler_factory`` builds it.  Schedulers without a
        swappable tree (the baselines, the hardware model) and host NICs
        keep their own storage.
    keep_packets:
        Whether host sinks retain every delivered packet (default) or run in
        streaming-aggregate mode for large workloads.
    telemetry:
        Record per-hop traces (``packet.hops``) and per-port switch-stat
        breakdowns (default).  Sweeps disable this to strip the per-packet
        per-hop bookkeeping from the forwarding path; aggregate counters,
        per-flow sink aggregates and the in-band ``prev_wait_time`` stamp
        consumed by LSTF are always maintained, so scheduling decisions —
        and therefore results — are identical either way.  With telemetry
        off and streaming sinks, delivered packets are recycled into the
        packet pool.
    host_scheduler_factory:
        Scheduler for host egress (NIC) ports; FIFO by default.
    fused_delivery:
        Replace each eligible egress port's transmit-completion callback
        with a fused per-hop closure inlining delivery, next-hop ingress
        and buffer release into straight-line code (see
        :meth:`_fuse_hot_path`).  ``None`` (default) and ``True`` behave
        the same: with telemetry off and no fault plan, every port on a
        zero-latency link is fused.  ``False`` disables fusion (the
        reference interpreted path).

    Switches get the paper's 12 MB shared buffer, host NICs a 1 GiB one
    (end-host memory is not the resource under study).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        scheduler_factory: SchedulerFactory,
        ecmp: bool = False,
        pifo_backend: BackendSpec = None,
        keep_packets: bool = True,
        telemetry: bool = True,
        host_scheduler_factory: SchedulerFactory = _default_host_scheduler,
        fused_delivery: Optional[bool] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        network.validate()
        self.sim = sim
        self.network = network
        self.ecmp = ecmp
        self.telemetry = telemetry
        self.injected_packets = 0
        self.delivered_packets = 0
        #: Packets blackholed by fault injection (dead links/switches,
        #: probabilistic loss, routes lost to a partition).
        self.lost_to_faults = 0
        self._fault_plan = (fault_plan if fault_plan is not None
                            and not fault_plan.empty() else None)
        self._fault_injector: Optional[FaultInjector] = None
        #: One SharedMemorySwitch per node (hosts get a FIFO NIC switch).
        self.node_switches: Dict[str, SharedMemorySwitch] = {}
        #: Terminal sink per host for traffic addressed to it.
        self.host_sinks: Dict[str, PacketSink] = {
            host: PacketSink(name=f"{host}.sink", keep_packets=keep_packets,
                             recycle_packets=not keep_packets and not telemetry)
            for host in network.hosts()
        }
        self._sources: list = []

        for name in sorted(network.nodes):
            is_host = network.is_host(name)
            specs = [
                PortSpec(
                    name=self.port_to(neighbor),
                    rate_bps=link.rate_bps,
                    propagation_delay=link.propagation_delay,
                    delivery=self._make_delivery(name, neighbor),
                )
                for neighbor, link in sorted(network.links[name].items())
            ]
            factory = host_scheduler_factory if is_host else scheduler_factory
            buffer = SharedBuffer(capacity_bytes=1 << 30) if is_host else None
            backend = None if is_host else pifo_backend
            self.node_switches[name] = SharedMemorySwitch(
                sim=sim,
                scheduler_factory=lambda port, node=name, f=factory, b=backend:
                    _on_backend(f(node, port), b),
                port_specs=specs,
                buffer=buffer,
                telemetry=telemetry,
                name=name,
            )

        self._install_routes()
        #: Number of egress ports running the fused hot-path closure.
        self.fused_ports = 0
        #: node -> fused ingress (:meth:`_fused_ingress`); a host's is its
        #: fused injection.  Empty unless some port is fused.
        self._ingress: Dict[str, Callable[[Packet], bool]] = {}
        #: host -> one-slot box read by that host's fused NIC egress for
        #: arrival prefetch.  ``attach_source`` fills the slot with
        #: ``(source, fused_ingress)`` when the host has exactly one source
        #: (and clears it back to ``None`` if a second one is attached).
        self._arrival_pull_boxes: Dict[str, list] = {}
        self._host_source_count: Dict[str, int] = {}
        #: Per-node fused ingress target caches (flow -> resolved egress);
        #: cleared whenever routing changes (see :meth:`reinstall_routes`).
        self._fused_target_caches: list = []
        if self._fault_plan is not None:
            # Faults mutate routing and port liveness at runtime — the
            # per-port fused closures bake both in at construction, so the
            # fabric stays on the interpreted delivery path.  Scheduler
            # tree kernels are unaffected (they fuse *inside* the port).
            self._fault_injector = FaultInjector(self, self._fault_plan)
            self._fault_injector.schedule()
        elif fused_delivery is not False and not telemetry:
            self._fuse_hot_path()

        # Lazy metrics: when a registry is enabled, register a callback
        # that exports the fabric's counters at snapshot() time.  The
        # forwarding path itself is never touched — collection cost is
        # paid only by whoever asks for a snapshot.
        registry = obs_metrics.active()
        if registry is not None:
            registry.register_callback(f"fabric.{network.name}",
                                       self.metrics_snapshot)

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def port_to(neighbor: str) -> str:
        """Egress port name used for the link toward ``neighbor``."""
        return f"to_{neighbor}"

    def _install_routes(self) -> None:
        tables = build_forwarding_tables(self.network, ecmp=self.ecmp)
        for node, routes in tables.items():
            switch = self.node_switches[node]
            for dst, hops in routes.items():
                if hops:
                    switch.install_route(dst, [self.port_to(h) for h in hops])

    def reinstall_routes(self, link_filter: Optional[LinkFilter] = None) -> None:
        """Recompute every forwarding table over the surviving subgraph.

        Called by the fault layer after each topology change — the fabric
        analogue of an instant routing-protocol reconvergence.  Tables are
        built in *partial* mode: destinations that became unreachable have
        no route, so traffic toward them is blackholed (and counted) at the
        first hop that cannot forward it.
        """
        tables = build_forwarding_tables(self.network, ecmp=self.ecmp,
                                         partial=True, link_filter=link_filter)
        for node, switch in self.node_switches.items():
            switch.routes.clear()
            for dst, hops in tables[node].items():
                if hops:
                    switch.install_route(dst, [self.port_to(h) for h in hops])
        # Fused ingresses memoise resolved egress targets per flow; a
        # routing change invalidates them all.
        for cache in self._fused_target_caches:
            cache.clear()

    def _make_delivery(self, node: str, neighbor: str) -> Callable[[Packet], None]:
        """Delivery hook of the link ``node -> neighbor``.

        Under a fault plan three fault checks run at the moment the packet
        lands at the far end of the wire: the link may have died while the
        packet was propagating (blackhole), a probabilistic-loss draw may
        eat it, and the next hop may have no route left after a
        reconvergence (blackhole, counted as ``no_route``).  The injector
        is resolved per call because it is constructed after the ports.
        """
        to_host = self.network.is_host(neighbor)
        telemetry = self.telemetry

        def deliver(packet: Packet) -> None:
            injector = self._fault_injector
            if injector is not None:
                if not injector.link_usable(node, neighbor):
                    injector.record_loss(
                        packet, injector._down_cause(node, neighbor))
                    return
                if injector.loss_roll(node, neighbor, self.sim.now):
                    injector.record_loss(packet, "loss")
                    return
            # ``prev_wait_time`` is in-band data the paper's LSTF transaction
            # consumes downstream — it is stamped regardless of the telemetry
            # flag so scheduling semantics never depend on observability.
            enq = packet.enqueue_time
            deq = packet.dequeue_time
            wait = deq - enq if (enq is not None and deq is not None) else 0.0
            if telemetry:
                packet.record_hop(node, packet.arrival_time, wait,
                                  packet.departure_time)
            stamp_wait_time(packet, wait)
            if to_host:
                if packet.dst != neighbor:
                    # Routing never transits an end host; landing here with
                    # a different destination means a corrupted route.
                    raise RoutingError(
                        f"packet for {packet.dst!r} delivered to host "
                        f"{neighbor!r}; hosts do not forward transit traffic"
                    )
                self._arrive(neighbor, packet)
            else:
                try:
                    self.node_switches[neighbor].forward(packet)
                except RoutingError:
                    if injector is None:
                        raise
                    # Reconvergence removed every route to this destination
                    # — the packet hits a routeless hop and is blackholed.
                    injector.record_loss(packet, "no_route")

        return deliver

    # -- hot-path fusion ---------------------------------------------------
    def _fuse_hot_path(self) -> None:
        """Install fused transmit-completion closures on eligible ports.

        The interpreted per-hop path is a chain of six calls per departed
        packet — ``OutputPort._on_tx_complete`` → delivery closure →
        ``SharedMemorySwitch.forward`` → ``select_port`` → ``receive`` →
        ``OutputPort.receive`` — each re-deriving state the fabric fixed at
        construction time.  This pass hoists that state into one closure
        per port (the same specialization the tree kernels apply inside the
        scheduler) so a hop becomes straight-line code with exactly two
        dynamic calls: the scheduler's fused ``enqueue`` and ``dequeue``.

        Fusion is observationally exact, so it is only installed when every
        path the closure compresses is the one the interpreted code would
        take: the constructor calls this only with telemetry off (no
        per-hop trace records or per-port drop breakdowns) and no fault
        plan, and only ports on a zero-latency link are fused (no wire
        FIFO between completion and ingress); the others keep the generic
        method.
        """
        network = self.network
        ingress = {name: self._fused_ingress(name)
                   for name in self.node_switches}
        for name, switch in self.node_switches.items():
            for neighbor in network.links[name]:
                port = switch.ports[self.port_to(neighbor)]
                if port.propagation_delay != 0.0:
                    continue
                port._tx_complete = self._fuse_port(
                    port, switch, name, neighbor,
                    None if network.is_host(neighbor) else ingress[neighbor])
                self.fused_ports += 1
        if self.fused_ports:
            self._ingress = ingress

    def _fused_ingress(self, node: str) -> Callable[[Packet], bool]:
        """The fused ingress of one node: ``ingress(packet) -> bool``.

        Inlines, with identical observable effects and at ``sim.now``:
        the route lookup + ECMP hash, ``SharedMemorySwitch.receive`` (the
        cell-occupancy check), ``OutputPort.receive`` and the
        transmit kick, pushing the completion straight onto the event
        queue.  Fused egress ports call it for the next hop.  Hosts never
        forward transit traffic, so a host's ingress is its injection and
        also does the :meth:`inject` stamping.  Rare/error paths (``dst``
        ``None`` or the host itself, a missing route) fall back to the
        interpreted methods so diagnostics stay identical.

        **Per-flow target memoisation**: route lookup + ECMP hash + port
        dict walk resolve to the same egress for every packet of a flow,
        so the resolved ``(dst, out_port, out_scheduler, out_tx_complete,
        out_inv_rate)`` is cached per flow.  The dst is stored as a guard
        (a flow name reused toward another dst just re-resolves); the
        cache is invalidated by :meth:`reinstall_routes`.  Caching the
        completion callback is safe because fused ports never run under
        fault plans, so it is never re-wrapped after fusion.
        """
        fabric = self
        sim = self.sim
        queue = sim._queue
        heap = sim._raw_heap
        is_host = self.network.is_host(node)
        switch = self.node_switches[node]
        stats = switch.stats
        buffer = switch.buffer
        cell_bytes = buffer.cell_bytes
        routes = switch.routes
        ports = switch.ports
        hashes = switch._flow_hashes
        kernelable = all(
            isinstance(p.scheduler, ProgrammableScheduler)
            for p in ports.values()
        )
        targets: Dict[str, tuple] = {}
        self._fused_target_caches.append(targets)

        def ingress(packet: Packet) -> bool:
            now = sim.now
            dst = packet.dst
            if is_host:
                if dst is None or dst == node:
                    return fabric.inject(node, packet)  # canonical errors
                if packet.src is None:
                    packet.src = node
                packet.injection_time = now
                fabric.injected_packets += 1
            flow = packet.flow
            target = targets.get(flow)
            if target is not None and target[0] == dst:
                _, out, osched, out_cb, out_inv = target
            else:
                candidates = routes.get(dst)
                if not candidates:
                    # Missing route (or dst None): the interpreted path
                    # raises the canonical RoutingError.
                    return switch.forward(packet)
                if len(candidates) == 1:
                    egress = candidates[0]
                else:
                    digest = hashes.get(flow)
                    if digest is None:
                        digest = hashes[flow] = crc32(flow.encode())
                    egress = candidates[digest % len(candidates)]
                out = ports[egress]
                osched = out.scheduler
                out_cb = out._tx_complete
                out_inv = out._inv_rate
                targets[flow] = (dst, out, osched, out_cb, out_inv)
            length = packet.length
            cells = (length + cell_bytes - 1) // cell_bytes
            if buffer.used_cells + cells > buffer.total_cells:
                stats.dropped_admission += 1
                return False
            buffer.used_cells += cells
            buffer.used_bytes += length
            packet.arrival_time = now
            if not out.busy and kernelable and osched.kernel_work_conserving:
                # On an idle port with a work-conserving kernel the enqueue
                # and immediate dequeue collapse into the kernel's
                # cut-through transfer (under shaping a None dequeue could
                # also mean "held back").
                head = osched.transfer(packet, now)
                admitted = head is not None
            else:
                head = None
                admitted = osched.enqueue(packet, now)
            if not admitted:
                out.dropped_packets += 1
                buffer.used_cells -= cells
                buffer.used_bytes -= length
                stats.dropped_scheduler += 1
                return False
            stats.admitted += 1
            if head is None:
                if out.busy:
                    return True
                head = osched.dequeue(now)
                if head is None:
                    out._arm_wakeup()
                    return True
            out.busy = True
            out._tx_packet = head
            seq = queue._next_seq
            queue._next_seq = seq + 1
            heappush(heap, (now + head.length * out_inv, seq, out_cb))
            return True

        return ingress

    def _fuse_port(self, port, switch, node: str, neighbor: str,
                   nxt_ingress: Optional[Callable[[Packet], bool]]):
        """Build the fused transmit-completion closure for one egress port.

        Inlines, in order and with identical observable effects:
        ``_on_tx_complete`` bookkeeping, the fabric delivery closure
        (wait-time stamp; hop records are off by construction), the host
        arrival or a call to the next hop's fused ingress
        (:meth:`_fused_ingress`), the departure callback, and the next
        dequeue with its completion pushed straight onto the event queue.
        """
        fabric = self
        sim = self.sim
        queue = sim._queue
        heap = sim._raw_heap
        scheduler = port.scheduler
        inv_rate = port._inv_rate
        own_buffer = switch.buffer
        own_cell_bytes = own_buffer.cell_bytes
        #: The switch-installed release callback; identity-checked per call
        #: so a callback wrapped after construction is called instead.
        release = port.on_departure
        kernelable = isinstance(scheduler, ProgrammableScheduler)
        #: Arrival prefetch: a single-egress host NIC can pull its (sole)
        #: source's next arrival at its own transmit completion instead of
        #: round-tripping through a scheduled arrival event — one event per
        #: packet in steady state.  Only a single-egress NIC qualifies (the
        #: stolen arrival provably transmits on *this* port, so nothing else
        #: can observe the switch between the true arrival instant and now).
        if self.network.is_host(node) and len(switch.ports) == 1:
            pull_box = self._arrival_pull_boxes.setdefault(node, [None])
        else:
            pull_box = None
        to_host = nxt_ingress is None
        sink_record = self.host_sinks[neighbor].record if to_host else None

        def _tx_complete() -> None:
            packet = port._tx_packet
            now = sim.now
            port._tx_packet = None
            packet.departure_time = now
            port.busy = False
            port.transmitted_packets += 1
            length = packet.length
            port.transmitted_bytes += length
            # Inlined delivery closure (telemetry off): stamp the
            # in-band wait-time field the next hop's LSTF transaction
            # consumes.
            enq = packet.enqueue_time
            deq = packet.dequeue_time
            wait = (deq - enq
                    if (enq is not None and deq is not None) else 0.0)
            fields = packet.fields
            if fields is EMPTY_FIELDS:
                packet.fields = {PREV_WAIT_FIELD: wait}
            else:
                fields[PREV_WAIT_FIELD] = \
                    fields.get(PREV_WAIT_FIELD, 0.0) + wait
            if to_host:
                if packet.dst != neighbor:
                    raise RoutingError(
                        f"packet for {packet.dst!r} delivered to host "
                        f"{neighbor!r}; hosts do not forward transit "
                        f"traffic"
                    )
                fabric.delivered_packets += 1
                sink_record(packet)
            else:
                nxt_ingress(packet)
            # Departure callback: the switch release is inlined;
            # anything else (a source wrapped it after construction) is
            # called.
            on_departure = port.on_departure
            if on_departure is release:
                cells = (length + own_cell_bytes - 1) // own_cell_bytes
                if own_buffer.used_cells >= cells:
                    own_buffer.used_cells -= cells
                    own_buffer.used_bytes -= length
                else:
                    own_buffer.used_cells = 0
                    own_buffer.used_bytes = max(
                        0, own_buffer.used_bytes - length)
            elif on_departure is not None:
                on_departure(packet)
            # Next packet.  Under a kernel an empty scheduler needs
            # neither the dequeue call nor a shaping wakeup.
            if kernelable and scheduler.kernel_work_conserving:
                if not scheduler._buffered_packets:
                    # Arrival prefetch: the scheduler is dry, so the
                    # only thing that can wake this port again is its
                    # source's next arrival.  Pull it now and run the
                    # host's fused ingress at the arrival's own timestamp
                    # — observably identical to the arrival event firing,
                    # minus the event.  Arrivals past the run horizon
                    # (or with degenerate dst) are parked back onto the
                    # normal event path.
                    if pull_box is None:
                        return
                    sr = pull_box[0]
                    if sr is None:
                        return
                    src_source, nic_ingress = sr
                    horizon = sim._ff_horizon
                    while True:
                        # Read the source's next arrival, inlined: the
                        # pull loop runs once per delivered packet.
                        # ``s_pending`` is non-None only on the first pull
                        # after the source owned the stream (the in-flight
                        # arrival event gets tombstoned); afterwards the
                        # loop walks the materialised batch directly.
                        s_pending = src_source._pending
                        if s_pending is not None:
                            a_time = s_pending[0]
                            stolen = src_source._pending_packet
                        else:
                            s_batch = src_source._batch
                            s_index = src_source._index
                            if s_index < len(s_batch):
                                a_time, stolen = s_batch[s_index]
                            elif src_source._refill():
                                s_batch = src_source._batch
                                s_index = 0
                                a_time, stolen = s_batch[0]
                            else:
                                stolen = None
                        if stolen is None:
                            if scheduler._buffered_packets:
                                break
                            return
                        # An arrival behind the clock means the port
                        # outpaced the stream inside an overload window:
                        # it is enqueued at its true instant (port marked
                        # busy so it cannot cut through) and the loop
                        # keeps pulling until the stream catches up with
                        # the clock, then dequeues at ``now`` below.
                        behind = a_time < now
                        if not behind and (
                                a_time + stolen.length * inv_rate > horizon
                                or stolen.dst is None
                                or stolen.dst == node
                                or scheduler._buffered_packets):
                            # Ownership may only persist while the next
                            # completion provably lands inside this run
                            # (a stopped drain must not discard
                            # arrivals the event path would have
                            # fired), and never across a backlog.
                            # Re-arm the normal arrival event.
                            src_source._park_arrival()
                            if scheduler._buffered_packets:
                                break
                            return
                        src_source.generated_packets += 1
                        if s_pending is not None:
                            sim.cancel(s_pending)
                            src_source._pending = None
                            src_source._pending_packet = None
                        else:
                            s_batch[s_index] = None
                            src_source._index = s_index + 1
                            src_source._last_time = a_time
                        sim.events_processed += 1
                        sim.now = a_time
                        port.busy = behind
                        nic_ingress(stolen)
                        sim.now = now
                        if behind:
                            port.busy = False
                        elif port.busy:
                            # Cut-through scheduled this port's next
                            # completion; the pull chain continues there.
                            return
                        # Otherwise the arrival was dropped (an admitted
                        # one cuts through on this work-conserving
                        # kernel) and the port is idle: pull the next one.
                next_packet = scheduler.dequeue(now)
                if next_packet is None:
                    return
            elif (kernelable and scheduler.tree_kernel is not None
                    and not scheduler._buffered_packets):
                # Shaped kernel run dry.  A suspended packet counts as
                # buffered, so every calendar entry left is stale: the
                # dequeue and the wake-up would both find nothing.
                return
            else:
                next_packet = scheduler.dequeue(now)
                if next_packet is None:
                    port._arm_wakeup()
                    return
            port.busy = True
            port._tx_packet = next_packet
            seq = queue._next_seq
            queue._next_seq = seq + 1
            entry = (now + next_packet.length * inv_rate, seq, _tx_complete)
            heappush(heap, entry)

        return _tx_complete

    def _arrive(self, host: str, packet: Packet) -> None:
        # Stamp arrival at the destination NIC (propagation included) so
        # end-to-end delay decomposes exactly into the recorded hops + wires.
        packet.departure_time = self.sim.now
        self.delivered_packets += 1
        self.host_sinks[host].record(packet)

    # -- traffic -----------------------------------------------------------
    def inject(self, host: str, packet: Packet) -> bool:
        """Inject a packet at a source host; routes by ``packet.dst``."""
        if packet.dst is None:
            raise RoutingError(f"cannot inject {packet!r}: no dst address")
        if packet.dst == host:
            raise RoutingError(f"packet at {host!r} addressed to itself")
        if packet.src is None:
            packet.src = host
        packet.injection_time = self.sim.now
        self.injected_packets += 1
        if self._fault_injector is not None:
            try:
                return self.node_switches[host].forward(packet)
            except RoutingError:
                # The destination is unreachable under the current fault
                # state: blackhole at the source NIC, conserving accounting.
                self._fault_injector.record_loss(packet, "no_route")
                return False
        return self.node_switches[host].forward(packet)

    def injector(self, host: str) -> HostInjector:
        """A receive()-compatible endpoint for :class:`PacketSource`.

        On a fused fabric the injector's ``receive`` is the host's fused
        ingress (:meth:`_fused_ingress`), which inlines :meth:`inject`.
        """
        self.network.node(host)
        injector = HostInjector(self, host)
        ingress = self._ingress.get(host)
        if ingress is not None:
            injector.receive = ingress  # type: ignore[method-assign]
        return injector

    def attach_source(self, host: str,
                      arrivals: Iterable[Tuple[float, Packet]],
                      name: Optional[str] = None) -> PacketSource:
        """Replay an arrival stream into the fabric at ``host``."""
        injector = self.injector(host)
        source = PacketSource(self.sim, injector, arrivals,
                              name=name or f"{host}.source")
        self._sources.append(source)
        # Arrival prefetch: hand the host's fused NIC egress a handle to
        # this source (and the host's fused ingress) so it can pull
        # arrivals at its own completions.  Only valid with exactly one
        # source per host — a second attach disables the box for good,
        # since interleaving two streams needs the event queue.
        box = self._arrival_pull_boxes.get(host)
        if box is not None:
            count = self._host_source_count.get(host, 0) + 1
            self._host_source_count[host] = count
            box[0] = (source, source._receive) if count == 1 else None
        return source

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None, drain: bool = False) -> float:
        """Advance the simulation; optionally keep going until all packets
        in flight at ``until`` have left the fabric.

        Draining stops the attached sources first, so arrivals scheduled
        past ``until`` are discarded rather than replayed — only traffic
        already inside the fabric is flushed out.
        """
        now = self.sim.run(until=until)
        if drain:
            if until is not None:
                for source in self._sources:
                    source.stop()
            now = self.sim.run()
        return now

    # -- accounting --------------------------------------------------------
    def switch(self, name: str) -> SharedMemorySwitch:
        return self.node_switches[name]

    def sink(self, host: str) -> PacketSink:
        return self.host_sinks[host]

    def dropped_packets(self) -> int:
        return sum(s.stats.dropped for s in self.node_switches.values())

    def buffered_packets(self) -> int:
        return sum(s.buffered_packets() for s in self.node_switches.values())

    def in_flight_packets(self) -> int:
        """Packets physically inside the fabric: buffered in a scheduler,
        on a transmitter, or propagating on a wire.

        Counted by walking the ports — *not* derived from the other
        counters — so the conservation identity ``injected == delivered +
        dropped + lost_to_faults + in_flight`` is a real invariant that a
        leak (a packet vanishing without being counted anywhere) actually
        violates, rather than a tautology.
        """
        count = 0
        for switch in self.node_switches.values():
            for port in switch.ports.values():
                count += len(port.scheduler) + len(port._wire)
                if port._tx_packet is not None:
                    count += 1
        return count

    def conservation_check(self) -> Dict[str, int]:
        """Injected / delivered / dropped / lost / in-flight balance."""
        return {
            "injected": self.injected_packets,
            "delivered": self.delivered_packets,
            "dropped": self.dropped_packets(),
            "lost_to_faults": self.lost_to_faults,
            "in_flight": self.in_flight_packets(),
        }

    def fault_summary(self) -> Dict[str, Any]:
        """Fault-injection outcome: topology churn and loss-by-cause.

        Empty when the fabric runs without a fault plan, so callers can
        treat "no faults configured" and "faults configured but none
        fired" uniformly via ``.get(...)``.
        """
        if self._fault_injector is None:
            return {}
        injector = self._fault_injector
        return {
            "topology_changes": injector.topology_changes,
            "lost_by_cause": dict(injector.lost_by_cause),
            "down_links": sorted(injector.down_links),
            "down_switches": sorted(injector.down_switches),
        }

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat counter mapping for the metrics registry.

        Conservation totals, per-node/per-port traffic counters, buffer
        occupancy, and fault blackholes — pulled lazily at registry
        ``snapshot()`` time, so the hot path pays nothing.
        """
        out: Dict[str, float] = dict(self.conservation_check())
        out["fused_ports"] = self.fused_ports
        for name in sorted(self.node_switches):
            out.update(self.node_switches[name].metrics_snapshot())
        faults = self.fault_summary()
        if faults:
            out["faults.topology_changes"] = faults["topology_changes"]
            out["faults.down_links"] = len(faults["down_links"])
            out["faults.down_switches"] = len(faults["down_switches"])
            for cause, count in sorted(faults["lost_by_cause"].items()):
                out[f"faults.lost.{cause}"] = count
        return out

    def stats_by_node(self) -> Dict[str, Dict]:
        """JSON-friendly per-node stats with per-port breakdowns."""
        out = {}
        for name in sorted(self.node_switches):
            stats = self.node_switches[name].stats
            out[name] = {
                "received": stats.received,
                "transmitted": stats.transmitted,
                "dropped_admission": stats.dropped_admission,
                "dropped_scheduler": stats.dropped_scheduler,
                "per_port": stats.per_port_dict(),
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Fabric(network={self.network.name!r}, "
            f"injected={self.injected_packets}, "
            f"delivered={self.delivered_packets})"
        )
