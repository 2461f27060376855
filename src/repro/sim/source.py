"""Traffic sources: feed arrival streams into an output port.

A source pulls ``(time, packet)`` pairs from an iterator (typically built by
:mod:`repro.traffic.generators`) and schedules each arrival in the
simulator.  Arrivals are scheduled lazily — one event in flight per source —
so even very long workloads do not pre-materialise the whole event list.

Hot-path design
---------------
The source prefetches arrivals from the iterator in chunks
(:data:`PREFETCH_CHUNK` at a time) so the generator machinery runs once per
chunk rather than once per packet, and the single in-flight event calls the
bound method ``self._on_arrival`` with the pending packet stored on the
source — no per-packet closure.

A source owns its stream and drops each arrival as it emits it (every
consumption site clears the slot it consumed), so memory follows the
packets in flight, not the run length.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

from ..core.packet import Packet
from ..exceptions import TrafficError
from .simulator import Simulator

#: Arrivals pulled from the stream per refill.  Large enough to amortise
#: generator resumption, small enough that stopping a source mid-run wastes
#: almost nothing.
PREFETCH_CHUNK = 256


class PacketSource:
    """Replays an arrival stream into a destination port.

    Parameters
    ----------
    sim:
        The simulator.
    destination:
        Any object with a ``receive(packet)`` method (usually an
        :class:`~repro.sim.link.OutputPort`).
    arrivals:
        Iterable of ``(time, packet)`` pairs in non-decreasing time order.
    name:
        Label for debugging.
    """

    __slots__ = ("sim", "destination", "name", "_iterator", "generated_packets",
                 "_last_time", "_pending", "_pending_packet", "_batch", "_index",
                 "_arrival_cb", "_receive")

    def __init__(
        self,
        sim: Simulator,
        destination,
        arrivals: Iterable[Tuple[float, Packet]],
        name: str = "source",
    ) -> None:
        self.sim = sim
        self.destination = destination
        self.name = name
        self.generated_packets = 0
        self._last_time = -1.0
        self._pending = None
        self._pending_packet: Optional[Packet] = None
        #: Prefetched (time, packet) pairs and the cursor into them.
        self._batch: List[Tuple[float, Packet]] = []
        self._index = 0
        if isinstance(arrivals, list):
            # Already-materialised workload (perf builders): validate
            # ordering once, up front — no per-chunk refills in the hot
            # path — and walk a pointer copy: clearing consumed slots must
            # never alias the caller's list.
            self._iterator: Iterator[Tuple[float, Packet]] = iter(())
            self._check_order(arrivals)
            self._batch = arrivals[:]
        else:
            self._iterator = iter(arrivals)
        #: The arrival callback and the destination's receive, bound once —
        #: both run once per generated packet.
        self._arrival_cb = self._on_arrival
        self._receive = destination.receive
        self._schedule_next()

    def _check_order(self, arrivals: List[Tuple[float, Packet]]) -> None:
        """Raise unless ``arrivals`` continue the stream in time order."""
        last = self._last_time
        for time, _packet in arrivals:
            if time < last - 1e-12:
                raise TrafficError(
                    f"source {self.name!r} produced arrivals out of order "
                    f"({time} after {last})"
                )
            last = time

    def _refill(self) -> bool:
        """Pull the next chunk of arrivals; returns False at end of stream."""
        batch = list(islice(self._iterator, PREFETCH_CHUNK))
        if not batch:
            return False
        self._check_order(batch)
        self._batch = batch
        self._index = 0
        return True

    def _schedule_next(self) -> None:
        if self._index >= len(self._batch) and not self._refill():
            self._pending = None
            self._pending_packet = None
            return
        time, packet = self._batch[self._index]
        self._batch[self._index] = None
        self._index += 1
        self._last_time = time
        self._pending_packet = packet
        self._pending = self.sim.schedule_at(time, self._arrival_cb)

    def _on_arrival(self) -> None:
        self.generated_packets += 1
        self._receive(self._pending_packet)
        self._schedule_next()

    # -- arrival prefetch (fused NIC egress) -------------------------------
    # A fused NIC egress that owns this source's host *pulls* arrivals at
    # its own transmit completions instead of waiting for the scheduled
    # arrival event: its pull loop (``repro.net.fabric``) reads the next
    # arrival and either takes it (consuming it without ever scheduling an
    # event — cancelling the one in flight if this is the first pull) or
    # parks it (re-arming the normal event so the source regains ownership,
    # e.g. past the current run horizon).

    def _park_arrival(self) -> None:
        """Hand stream ownership back to the source (schedule the event)."""
        if self._pending is None:
            self._schedule_next()

    def stop(self) -> None:
        """Cancel any not-yet-emitted arrival and drop the rest of the stream.

        Used by the fabric's drain phase so "finish the packets in flight"
        does not mean "replay the remainder of an arrival stream"."""
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None
            self._pending_packet = None
        self._iterator = iter(())
        self._batch = []
        self._index = 0

