"""A shared-memory output-queued switch model.

Ties the substrate together: N output ports, each with its own programmable
scheduler draining a fixed-rate link, all sharing one cell-accounted packet
buffer — the architecture the paper targets (a 64-port 10 Gbit/s
shared-memory switch).

The switch does not model parsing or the match-action pipeline; packets
arrive already annotated with their output port, which is all the
scheduling subsystem cares about.  Each port's scheduler is taken as the
factory builds it: the PIFO backend is chosen there (or by
:class:`~repro.net.fabric.Fabric`), not by the switch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.packet import Packet
from ..exceptions import RoutingError
from ..sim.link import OutputPort
from ..sim.simulator import Simulator
from .buffer import SharedBuffer

#: Paper's target configuration (Section 5.1).
DEFAULT_PORT_COUNT = 64
DEFAULT_PORT_RATE_BPS = 10e9


@dataclass
class PortSpec:
    """Description of one output port for heterogeneous switches.

    The fabric layer (:mod:`repro.net`) builds switches whose ports differ
    in rate and wire latency and whose egress feeds the next hop instead of
    a terminal sink; ``delivery`` is the pluggable hook the
    :class:`~repro.sim.link.OutputPort` calls with each transmitted packet.
    """

    name: str
    rate_bps: float = DEFAULT_PORT_RATE_BPS
    propagation_delay: float = 0.0
    delivery: Optional[Callable[[Packet], None]] = None


@dataclass
class PortCounters:
    """Per-port transmitted/dropped breakdown inside :class:`SwitchStats`."""

    port: OutputPort = field(repr=False)
    dropped_admission: int = 0
    dropped_scheduler: int = 0

    @property
    def transmitted(self) -> int:
        """The port's own count: a port transmits, the switch only reads."""
        return self.port.transmitted_packets

    def to_dict(self) -> Dict[str, int]:
        return {
            "transmitted": self.transmitted,
            "dropped_admission": self.dropped_admission,
            "dropped_scheduler": self.dropped_scheduler,
        }


@dataclass
class SwitchStats:
    """Aggregate counters for a switch run, with per-port breakdowns.

    Ingress stores one outcome per packet (``admitted`` or one of the two
    drops); ``received`` and ``transmitted`` are computed when read, the
    latter from the counts the switch's ``ports`` keep themselves.
    """

    ports: Dict[str, OutputPort] = field(repr=False)
    admitted: int = 0
    dropped_admission: int = 0
    dropped_scheduler: int = 0
    per_port: Dict[str, PortCounters] = field(default_factory=dict)

    def port(self, name: str) -> PortCounters:
        counters = self.per_port.get(name)
        if counters is None:
            counters = self.per_port[name] = PortCounters(self.ports[name])
        return counters

    @property
    def received(self) -> int:
        """Every packet offered to the switch met exactly one outcome."""
        return self.admitted + self.dropped_admission + self.dropped_scheduler

    @property
    def transmitted(self) -> int:
        return sum(port.transmitted_packets for port in self.ports.values())

    @property
    def dropped(self) -> int:
        """All drops, whatever the reason."""
        return self.dropped_admission + self.dropped_scheduler

    def per_port_dict(self) -> Dict[str, Dict[str, int]]:
        """JSON-friendly per-port breakdown (``repro report --json``)."""
        return {name: counters.to_dict()
                for name, counters in sorted(self.per_port.items())}


class SharedMemorySwitch:
    """An output-queued shared-memory switch with programmable schedulers.

    Parameters
    ----------
    sim:
        Driving simulator.
    scheduler_factory:
        Callable producing a fresh scheduler per output port (for example
        ``lambda port: ProgrammableScheduler(build_fig3_tree())``); it
        chooses the schedulers' PIFO backend.
    port_count / port_rate_bps:
        Number of output ports and per-port line rate.
    buffer:
        Shared buffer (default: the paper's 12 MB of 200 B cells).  A
        packet whose cells do not fit in the free part is dropped and
        counted as ``dropped_admission``.
    port_specs:
        Optional explicit port list (:class:`PortSpec`) overriding
        ``port_count`` / ``port_rate_bps``; used by the fabric layer to give
        each egress port its link's rate, wire latency and next-hop delivery
        hook.
    telemetry:
        Maintain per-port transmitted/dropped breakdowns in
        :class:`SwitchStats` (default).  Sweeps that only consume aggregate
        results disable this; the aggregate counters (received / admitted /
        dropped / transmitted) read the same either way.
    name:
        Switch label (node name inside a fabric).
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler_factory: Callable[[str], object],
        port_count: int = DEFAULT_PORT_COUNT,
        port_rate_bps: float = DEFAULT_PORT_RATE_BPS,
        buffer: Optional[SharedBuffer] = None,
        port_specs: Optional[Sequence[PortSpec]] = None,
        telemetry: bool = True,
        name: str = "switch",
    ) -> None:
        if port_specs is None:
            if port_count <= 0:
                raise ValueError("port_count must be positive")
            port_specs = [PortSpec(name=f"port{index}", rate_bps=port_rate_bps)
                          for index in range(port_count)]
        elif not port_specs:
            raise ValueError("port_specs must not be empty")
        self.sim = sim
        self.name = name
        self.buffer = buffer if buffer is not None else SharedBuffer()
        self.telemetry = telemetry
        self.ports: Dict[str, OutputPort] = {}
        self.stats = SwitchStats(self.ports)
        #: Forwarding table: destination address -> candidate egress port
        #: names (several under ECMP).  Installed by the fabric's routing
        #: pass; single-switch experiments never touch it.
        self.routes: Dict[str, List[str]] = {}
        #: Flow label -> CRC32 hash, so ECMP hashes each flow string once.
        self._flow_hashes: Dict[str, int] = {}
        release = self._make_release_callback()
        for spec in port_specs:
            if spec.name in self.ports:
                raise ValueError(f"duplicate port name {spec.name!r}")
            port = OutputPort(
                sim=sim,
                scheduler=scheduler_factory(spec.name),
                rate_bps=spec.rate_bps,
                name=spec.name,
                on_departure=release,
                propagation_delay=spec.propagation_delay,
                delivery=spec.delivery,
            )
            self.ports[spec.name] = port
            if telemetry:
                # The breakdown lists every port, whether or not it saw traffic.
                self.stats.port(spec.name)

    # -- buffer release on transmit -------------------------------------------------
    def _make_release_callback(self) -> Callable[[Packet], None]:
        """Every port's departure callback: return the packet's cells.

        The fabric's fused ports inline this body (and identity-check the
        port's ``on_departure`` against it).
        """
        buffer = self.buffer

        def _release(packet: Packet) -> None:
            cells = (packet.length + buffer.cell_bytes - 1) // buffer.cell_bytes
            if buffer.used_cells >= cells:
                buffer.used_cells -= cells
                buffer.used_bytes -= packet.length
            else:
                # Fed directly without ingress accounting (tests); clamp.
                buffer.used_cells = 0
                buffer.used_bytes = max(0, buffer.used_bytes - packet.length)

        return _release

    # -- forwarding (fabric ingress path) --------------------------------------------
    def install_route(self, dst: str, ports: Sequence[str]) -> None:
        """Map a destination address to one or more egress ports (ECMP)."""
        unknown = [p for p in ports if p not in self.ports]
        if unknown:
            raise RoutingError(
                f"switch {self.name!r}: route to {dst!r} names unknown "
                f"ports {unknown}"
            )
        if not ports:
            raise RoutingError(f"switch {self.name!r}: empty route to {dst!r}")
        self.routes[dst] = list(ports)

    def select_port(self, packet: Packet) -> str:
        """Egress port for a packet, by destination + ECMP flow hash.

        The hash is CRC32 over the flow label — stable across runs and
        Python processes (unlike the builtin, seeded ``hash``), so ECMP
        placement is deterministic.
        """
        if packet.dst is None:
            raise RoutingError(
                f"switch {self.name!r}: packet {packet!r} has no dst address"
            )
        candidates = self.routes.get(packet.dst)
        if not candidates:
            raise RoutingError(
                f"switch {self.name!r}: no route to {packet.dst!r}"
            )
        if len(candidates) == 1:
            return candidates[0]
        flow_hashes = self._flow_hashes
        digest = flow_hashes.get(packet.flow)
        if digest is None:
            digest = flow_hashes[packet.flow] = zlib.crc32(packet.flow.encode())
        return candidates[digest % len(candidates)]

    def forward(self, packet: Packet) -> bool:
        """Fabric ingress: route by ``packet.dst`` and enqueue at egress."""
        return self.receive(packet, self.select_port(packet))

    # -- ingress ------------------------------------------------------------------------
    def receive(self, packet: Packet, output_port: str) -> bool:
        """Admit a packet to the shared buffer and its output port scheduler.

        Returns ``True`` when the packet was buffered; ``False`` when its
        cells do not fit in the free buffer (``dropped_admission``) or the
        scheduler refused it (``dropped_scheduler``).  The fabric's fused
        ingress inlines this body.
        """
        port = self.ports.get(output_port)
        if port is None:
            raise KeyError(f"unknown output port {output_port!r}")
        stats = self.stats
        buffer = self.buffer
        length = packet.length
        cells = (length + buffer.cell_bytes - 1) // buffer.cell_bytes
        if buffer.used_cells + cells > buffer.total_cells:
            stats.dropped_admission += 1
            if self.telemetry:
                stats.port(output_port).dropped_admission += 1
            return False
        buffer.used_cells += cells
        buffer.used_bytes += length
        if port.receive(packet):
            stats.admitted += 1
            return True
        buffer.used_cells -= cells
        buffer.used_bytes -= length
        stats.dropped_scheduler += 1
        if self.telemetry:
            stats.port(output_port).dropped_scheduler += 1
        return False

    # -- queries -------------------------------------------------------------------------
    def port(self, name: str) -> OutputPort:
        return self.ports[name]

    def port_names(self) -> List[str]:
        return list(self.ports)

    def buffered_packets(self) -> int:
        return sum(port.backlog_packets() for port in self.ports.values())

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat ``<switch>.<metric>`` counters for the metrics registry.

        Read lazily at registry snapshot time — the forwarding path never
        updates anything beyond the counters it already maintains.  With
        telemetry off the per-port counters are not tracked; the port-level
        backlog and drop counts (kept by the ports themselves) still are.
        """
        prefix = self.name
        stats = self.stats
        out: Dict[str, float] = {
            f"{prefix}.received": stats.received,
            f"{prefix}.admitted": stats.admitted,
            f"{prefix}.transmitted": stats.transmitted,
            f"{prefix}.dropped_admission": stats.dropped_admission,
            f"{prefix}.dropped_scheduler": stats.dropped_scheduler,
            f"{prefix}.buffer.used_cells": self.buffer.used_cells,
            f"{prefix}.buffer.used_bytes": self.buffer.used_bytes,
            f"{prefix}.buffer.total_cells": self.buffer.total_cells,
        }
        for name in sorted(self.ports):
            port = self.ports[name]
            out[f"{prefix}.{name}.backlog"] = port.backlog_packets()
            out[f"{prefix}.{name}.dropped"] = port.dropped_packets
            out[f"{prefix}.{name}.transmitted"] = port.transmitted_packets
        if self.telemetry:
            for name, counters in sorted(stats.per_port.items()):
                out[f"{prefix}.{name}.dropped_admission"] = \
                    counters.dropped_admission
                out[f"{prefix}.{name}.dropped_scheduler"] = \
                    counters.dropped_scheduler
        return out
