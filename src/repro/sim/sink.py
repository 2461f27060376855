"""Packet sinks: record departures and expose per-flow statistics."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional


from ..core.packet import EMPTY_FIELDS, Packet, _pool, _POOL_LIMIT


class FlowAggregate:
    """Running per-flow counters maintained by a sink (updated in
    :meth:`PacketSink.record`).

    Holds everything the metrics layer needs — byte/packet counts, delay
    moments and extremes, first arrival and last departure — without
    retaining the packets themselves.
    """

    __slots__ = ("packets", "bytes", "delay_sum", "delay_max", "delay_min",
                 "first_arrival", "last_departure", "expected_bytes")

    def __init__(self) -> None:
        self.packets = 0
        self.bytes = 0
        self.delay_sum = 0.0
        self.delay_max = 0.0
        self.delay_min: Optional[float] = None
        self.first_arrival: Optional[float] = None
        self.last_departure: Optional[float] = None
        #: Total flow size in bytes, when packets carry a ``flow_size``
        #: field (the FCT workloads do) — lets the metrics layer decide
        #: whether the flow completed without retaining its packets.
        self.expected_bytes: Optional[int] = None

    @property
    def mean_delay(self) -> Optional[float]:
        if self.packets == 0:
            return None
        return self.delay_sum / self.packets


class PacketSink:
    """Collects packets leaving an output port.

    By default the sink keeps every departed packet (the single-port paper
    experiments are small enough that this is cheap) plus per-flow byte and
    packet counters, so both aggregate rates and per-packet delay
    distributions can be computed after a run.

    With ``keep_packets=False`` the sink runs in *streaming* mode: packets
    are folded into running per-flow aggregates (:class:`FlowAggregate`:
    counts, delay sum/min/max, first arrival, last departure) and then
    forgotten, so million-packet fabric runs hold O(flows) memory instead of
    O(packets).  Windowed queries (``throughput_bps`` / ``share_by_flow``
    with an explicit sub-window, per-packet ``delays``) need the retained
    packets and raise ``ValueError`` in streaming mode; whole-run variants
    keep working off the aggregates.
    """

    def __init__(self, name: str = "sink", keep_packets: bool = True,
                 recycle_packets: bool = False) -> None:
        if recycle_packets and keep_packets:
            raise ValueError("recycle_packets requires keep_packets=False")
        self.name = name
        self.keep_packets = keep_packets
        #: Return recorded packets to the :class:`~repro.core.packet.Packet`
        #: free list after folding them into the aggregates.  Only safe when
        #: this sink is the packet's terminal owner (fabric edge sinks in
        #: streaming mode); never combined with ``keep_packets``.
        self.recycle_packets = recycle_packets
        self.packets: List[Packet] = []
        self.recorded_packets = 0
        self.aggregates: Dict[str, FlowAggregate] = {}
        self.first_departure: Optional[float] = None
        self.last_departure: Optional[float] = None

    def record(self, packet: Packet) -> None:
        """Record a departed packet (its ``departure_time`` must be set)."""
        if self.keep_packets:
            self.packets.append(packet)
        self.recorded_packets += 1
        flow = packet.flow
        aggregate = self.aggregates.get(flow)
        if aggregate is None:
            aggregate = self.aggregates[flow] = FlowAggregate()
        aggregate.packets += 1
        aggregate.bytes += packet.length
        size = packet.fields.get("flow_size")
        if size is not None:
            aggregate.expected_bytes = size
        injection = packet.injection_time
        arrival = injection if injection is not None else packet.arrival_time
        if aggregate.first_arrival is None or arrival < aggregate.first_arrival:
            aggregate.first_arrival = arrival
        departure = packet.departure_time
        if departure is not None:
            if (aggregate.last_departure is None
                    or departure > aggregate.last_departure):
                aggregate.last_departure = departure
            delay = departure - arrival
            aggregate.delay_sum += delay
            if delay > aggregate.delay_max:
                aggregate.delay_max = delay
            if aggregate.delay_min is None or delay < aggregate.delay_min:
                aggregate.delay_min = delay
            if self.first_departure is None:
                self.first_departure = departure
            self.last_departure = departure
        if self.recycle_packets:
            # Packet.recycle, inlined (the streaming fabric sink is the
            # canonical recycler and runs once per delivered packet).
            if len(_pool) < _POOL_LIMIT:
                packet.fields = EMPTY_FIELDS
                packet._hops = None
                _pool.append(packet)

    # The per-flow byte/packet counters are views over the aggregates (one
    # source of truth; ``record`` stays a single update on the hot path).
    @property
    def bytes_by_flow(self) -> Dict[str, int]:
        return {flow: a.bytes for flow, a in self.aggregates.items()}

    @property
    def packets_by_flow(self) -> Dict[str, int]:
        return {flow: a.packets for flow, a in self.aggregates.items()}

    # -- aggregate queries ----------------------------------------------------
    def total_packets(self) -> int:
        return self.recorded_packets

    def total_bytes(self) -> int:
        return sum(self.bytes_by_flow.values())

    def flows(self) -> List[str]:
        return sorted(self.bytes_by_flow)

    def _require_packets(self, query: str) -> None:
        if not self.keep_packets:
            raise ValueError(
                f"{query} needs retained packets; sink {self.name!r} runs "
                "with keep_packets=False (use the whole-run aggregate "
                "queries instead)"
            )

    def throughput_bps(self, flow: Optional[str] = None,
                       start: float = 0.0, end: Optional[float] = None) -> float:
        """Average throughput over [start, end] in bits per second.

        ``end`` defaults to the last departure seen.  Packets are attributed
        to the window by their departure time.  In streaming mode only the
        whole-run window (``start == 0``, default ``end``) is answerable and
        is computed from the per-flow aggregates.
        """
        if end is None:
            end = self.last_departure or 0.0
        duration = end - start
        if duration <= 0:
            return 0.0
        if not self.keep_packets:
            if start != 0.0 or end != (self.last_departure or 0.0):
                self._require_packets("windowed throughput_bps")
            if flow is None:
                total_bytes = sum(self.bytes_by_flow.values())
            else:
                total_bytes = self.bytes_by_flow.get(flow, 0)
            return total_bytes * 8.0 / duration
        total_bits = 0
        for packet in self.packets:
            if packet.departure_time is None:
                continue
            if flow is not None and packet.flow != flow:
                continue
            if start <= packet.departure_time <= end:
                total_bits += packet.length_bits
        return total_bits / duration

    def share_by_flow(self, start: float = 0.0, end: Optional[float] = None) -> Dict[str, float]:
        """Fraction of delivered bytes per flow over a window."""
        if not self.keep_packets:
            if start != 0.0 or (end is not None and end != self.last_departure):
                self._require_packets("windowed share_by_flow")
            grand_total = sum(self.bytes_by_flow.values())
            if grand_total == 0:
                return {}
            return {flow: count / grand_total
                    for flow, count in sorted(self.bytes_by_flow.items())}
        if end is None:
            end = self.last_departure or 0.0
        totals: Dict[str, int] = defaultdict(int)
        for packet in self.packets:
            if packet.departure_time is None:
                continue
            if start <= packet.departure_time <= end:
                totals[packet.flow] += packet.length
        grand_total = sum(totals.values())
        if grand_total == 0:
            return {}
        return {flow: count / grand_total for flow, count in sorted(totals.items())}

    def delays(self, flow: Optional[str] = None) -> List[float]:
        """Arrival-to-departure delays of recorded packets."""
        self._require_packets("per-packet delays")
        values = []
        for packet in self.packets:
            if flow is not None and packet.flow != flow:
                continue
            delay = packet.total_delay
            if delay is not None:
                values.append(delay)
        return values

    def delay_stats(self, flow: Optional[str] = None) -> Dict[str, Optional[float]]:
        """Whole-run delay summary (count/mean/min/max) from the aggregates.

        Works in both retained and streaming modes; delays are end-to-end
        (injection-to-departure) for fabric packets and arrival-to-departure
        otherwise.
        """
        if flow is not None:
            selected = [self.aggregates[flow]] if flow in self.aggregates else []
        else:
            selected = list(self.aggregates.values())
        count = sum(a.packets for a in selected)
        minima = [a.delay_min for a in selected if a.delay_min is not None]
        if count == 0:
            return {"count": 0, "mean": None, "min": None, "max": None}
        return {
            "count": count,
            "mean": sum(a.delay_sum for a in selected) / count,
            "min": min(minima) if minima else None,
            "max": max(a.delay_max for a in selected),
        }

    def departure_order(self) -> List[str]:
        """Flow labels in departure order (useful for ordering assertions)."""
        self._require_packets("departure_order")
        return [packet.flow for packet in self.packets]

    def __len__(self) -> int:
        return self.recorded_packets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "" if self.keep_packets else ", streaming"
        return f"PacketSink(name={self.name!r}, packets={self.recorded_packets}{mode})"
