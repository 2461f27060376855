"""Output ports: a scheduler draining into a link of fixed capacity.

:class:`OutputPort` couples any scheduler object exposing the
``enqueue(packet, now)`` / ``dequeue(now)`` interface (the reference
:class:`~repro.core.scheduler.ProgrammableScheduler`, a hardware-model
scheduler, or one of the classic baselines) to a transmission link running
at a configurable line rate, inside a :class:`~repro.sim.simulator.Simulator`.
The port takes the scheduler as built; its PIFO backend is chosen where the
scheduler is.

Work conservation and shaping both fall out naturally:

* whenever the link goes idle the port asks the scheduler for the next
  packet;
* if the scheduler has buffered packets but none eligible (a shaping
  transaction is holding them back), the port schedules a wake-up at the
  scheduler's next release time instead of spinning.

Hot-path design
---------------
The port is a **self-rescheduling transmit loop**: the in-flight packet is
stored on the port and the completion event calls the *bound method*
``self._on_tx_complete`` — no per-packet closure is ever allocated.
Packets propagating on the wire sit in a FIFO deque drained by a second
bound-method event; since every packet on one port shares the port's
propagation delay, delivery order equals transmit order and the queue needs
no per-packet state.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..core.packet import Packet
from .simulator import Simulator
from .sink import PacketSink


class OutputPort:
    """A single output port: scheduler + transmitter at ``rate_bps``.

    Parameters
    ----------
    sim:
        The simulator driving this port.
    scheduler:
        Scheduler draining into the link.  Must provide ``enqueue(packet,
        now)`` returning bool, ``dequeue(now)`` returning a packet or
        ``None`` and ``__len__``; ``next_shaping_release()`` is optional and
        used for non-work-conserving schedulers.
    rate_bps:
        Line rate in bits per second (10 Gbit/s per port in the paper's
        target switch).
    sink:
        Destination for transmitted packets; a fresh :class:`PacketSink` is
        created when omitted.
    on_departure:
        Optional callback invoked with each packet after transmission; the
        switch returns the packet's buffer cells through it.
    propagation_delay:
        Wire latency in seconds between this port and its destination.
        Transmission finishes (and the link frees up for the next packet)
        after ``length_bits / rate_bps``; the packet reaches the sink or the
        delivery hook ``propagation_delay`` later.  Defaults to 0.0 so all
        single-port experiments are bit-identical to the pre-fabric code.
    delivery:
        Optional delivery hook: when set, transmitted packets are handed to
        ``delivery(packet)`` (after the propagation delay) *instead of* being
        recorded in this port's sink.  This is how the network fabric layer
        (:mod:`repro.net`) chains a switch egress port to the next hop's
        ingress; the terminal hop keeps ``delivery=None`` and sinks locally.
    """

    __slots__ = (
        "sim", "scheduler", "rate_bps", "name", "sink",
        "on_departure", "propagation_delay", "delivery", "busy",
        "transmitted_packets", "transmitted_bytes", "dropped_packets",
        "_wakeup", "_tx_packet", "_wire", "_inv_rate", "_has_release",
        "_tx_complete", "faulted",
    )

    def __init__(
        self,
        sim: Simulator,
        scheduler,
        rate_bps: float,
        name: str = "port",
        sink: Optional[PacketSink] = None,
        on_departure: Optional[Callable[[Packet], None]] = None,
        propagation_delay: float = 0.0,
        delivery: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        self.sim = sim
        self.scheduler = scheduler
        self.rate_bps = rate_bps
        self._inv_rate = 8.0 / rate_bps  # seconds per byte
        self.name = name
        self.sink = sink if sink is not None else PacketSink(name=f"{name}.sink")
        self.on_departure = on_departure
        self.propagation_delay = propagation_delay
        self.delivery = delivery
        self.busy = False
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.dropped_packets = 0
        self._wakeup = None
        #: Packet currently on the transmitter (None when idle).
        self._tx_packet: Optional[Packet] = None
        #: Packets in flight on the wire (propagation_delay > 0), FIFO.
        self._wire: deque = deque()
        #: Whether the scheduler can report shaping releases (cached; the
        #: hasattr probe is too expensive to repeat after every dequeue).
        self._has_release = hasattr(scheduler, "next_shaping_release")
        #: Transmit-completion callback.  Defaults to the generic
        #: :meth:`_on_tx_complete`; the fabric layer replaces it with a
        #: fused per-hop closure (see ``repro.net.fabric``) that inlines
        #: delivery, next-hop ingress and buffer release.
        self._tx_complete: Callable[[], None] = self._on_tx_complete
        #: Administratively down (fault injection).  A faulted port never
        #: starts a new transmission; the fault layer (``repro.net.faults``)
        #: wraps ``_tx_complete`` to blackhole the packet already in flight.
        self.faulted = False

    # -- ingress ---------------------------------------------------------------
    def receive(self, packet: Packet) -> bool:
        """Hand a packet to the scheduler and kick the transmitter."""
        now = self.sim.now
        packet.arrival_time = now
        if not self.scheduler.enqueue(packet, now=now):
            self.dropped_packets += 1
            return False
        if not self.busy:
            self._try_transmit()
        return True

    # -- egress ------------------------------------------------------------------
    def _try_transmit(self) -> None:
        if self.busy or self.faulted:
            return
        sim = self.sim
        packet = self.scheduler.dequeue(now=sim.now)
        if packet is None:
            self._arm_wakeup()
            return
        self.busy = True
        self._tx_packet = packet
        sim.schedule(packet.length * self._inv_rate, self._tx_complete)

    def _on_tx_complete(self) -> None:
        sim = self.sim
        packet = self._tx_packet
        now = sim.now
        self._tx_packet = None
        packet.departure_time = now
        self.busy = False
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.length
        if self.propagation_delay > 0.0:
            # The link frees up immediately (pipelining); the packet
            # lands at the far end one wire latency later.  FIFO: same
            # delay per port.
            self._wire.append(packet)
            sim.schedule(self.propagation_delay, self._on_wire_arrival)
        elif self.delivery is not None:
            self.delivery(packet)
        else:
            self.sink.record(packet)
        if self.on_departure is not None:
            self.on_departure(packet)
        # Self-reschedule: pull the next packet without leaving the event.
        next_packet = self.scheduler.dequeue(now=now)
        if next_packet is None:
            self._arm_wakeup()
            return
        self.busy = True
        self._tx_packet = next_packet
        sim.schedule(next_packet.length * self._inv_rate, self._tx_complete)

    def _on_wire_arrival(self) -> None:
        packet = self._wire.popleft()
        if self.delivery is not None:
            self.delivery(packet)
        else:
            self.sink.record(packet)

    def _arm_wakeup(self) -> None:
        """Schedule a retry at the scheduler's next shaping release."""
        if not self._has_release:
            return
        next_release = self.scheduler.next_shaping_release()
        if next_release is None or next_release <= self.sim.now:
            return
        if self._wakeup is not None:
            self.sim.cancel(self._wakeup)
        self._wakeup = self.sim.schedule_at(next_release, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        self._try_transmit()

    # -- queries -------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of elapsed time the link spent transmitting."""
        if self.sim.now <= 0:
            return 0.0
        return (self.transmitted_bytes * 8.0 / self.rate_bps) / self.sim.now

    def backlog_packets(self) -> int:
        """Packets currently buffered in the scheduler."""
        return len(self.scheduler)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutputPort(name={self.name!r}, rate={self.rate_bps / 1e9:.3g} Gbit/s, "
            f"tx={self.transmitted_packets})"
        )
