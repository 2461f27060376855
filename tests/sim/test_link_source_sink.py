"""Tests for output ports, packet sources and sinks."""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction
from repro.baselines import FIFOQueue
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.exceptions import TrafficError
from repro.sim import OutputPort, PacketSink, PacketSource, Simulator
from repro.traffic import FlowSpec, cbr_arrivals


def fifo_port(sim, rate_bps=8e6):
    scheduler = ProgrammableScheduler(single_node_tree(FIFOTransaction()))
    return OutputPort(sim, scheduler, rate_bps=rate_bps, name="p")


class TestOutputPort:
    def test_single_packet_transmission_time(self):
        sim = Simulator()
        port = fifo_port(sim, rate_bps=8e6)  # 1 MB/s
        port.receive(Packet(flow="A", length=1000))
        sim.run()
        assert port.transmitted_packets == 1
        packet = port.sink.packets[0]
        assert packet.departure_time == pytest.approx(0.001)

    def test_back_to_back_serialisation(self):
        sim = Simulator()
        port = fifo_port(sim, rate_bps=8e6)
        for _ in range(3):
            port.receive(Packet(flow="A", length=1000))
        sim.run()
        departures = [p.departure_time for p in port.sink.packets]
        assert departures == pytest.approx([0.001, 0.002, 0.003])

    def test_works_with_baseline_scheduler(self):
        sim = Simulator()
        port = OutputPort(sim, FIFOQueue(), rate_bps=8e6)
        port.receive(Packet(flow="A", length=1000))
        sim.run()
        assert port.transmitted_packets == 1

    def test_utilization_under_light_load(self):
        sim = Simulator()
        port = fifo_port(sim, rate_bps=8e6)
        sim.schedule(0.0, lambda: port.receive(Packet(flow="A", length=1000)))
        sim.run(until=0.01)
        assert port.utilization == pytest.approx(0.1, rel=0.05)

    def test_drop_counted_when_scheduler_refuses(self):
        sim = Simulator()
        scheduler = ProgrammableScheduler(
            single_node_tree(FIFOTransaction(), pifo_capacity=1)
        )
        port = OutputPort(sim, scheduler, rate_bps=1e3)  # slow link, queue fills
        assert port.receive(Packet(flow="A", length=1000))
        assert port.receive(Packet(flow="A", length=1000)) or True  # may buffer
        port.receive(Packet(flow="A", length=1000))
        port.receive(Packet(flow="A", length=1000))
        assert port.dropped_packets >= 1

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            OutputPort(Simulator(), FIFOQueue(), rate_bps=0)


class TestPacketSource:
    def test_replays_arrivals_at_their_times(self):
        sim = Simulator()
        port = fifo_port(sim, rate_bps=80e6)
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        PacketSource(sim, port, cbr_arrivals(spec, duration=0.01))
        sim.run(until=0.02)
        # 8 Mbit/s with 8000-bit packets -> 1 packet per ms -> 10 arrivals in
        # the half-open window [0, 10 ms).
        assert port.transmitted_packets == 10

    def test_out_of_order_arrivals_rejected(self):
        sim = Simulator()
        port = fifo_port(sim)
        bad = [(0.1, Packet(flow="A", length=100)), (0.05, Packet(flow="A", length=100))]
        with pytest.raises(TrafficError):
            PacketSource(sim, port, bad)
            sim.run()

    def test_generated_packet_count(self):
        sim = Simulator()
        port = fifo_port(sim, rate_bps=80e6)
        arrivals = [(0.001 * i, Packet(flow="A", length=100)) for i in range(5)]
        source = PacketSource(sim, port, arrivals)
        sim.run()
        assert source.generated_packets == 5


class TestChainHops:
    """Ports chain through the delivery hook, as the fabric chains hops."""

    def test_packets_traverse_two_hops(self):
        sim = Simulator()
        first = fifo_port(sim, rate_bps=8e6)
        second = fifo_port(sim, rate_bps=8e6)
        first.delivery = second.receive
        first.receive(Packet(flow="A", length=1000))
        sim.run()
        assert first.transmitted_packets == 1
        assert second.transmitted_packets == 1
        assert second.sink.packets[0].departure_time == pytest.approx(0.002)

    def test_transform_applied_between_hops(self):
        sim = Simulator()
        first = fifo_port(sim)
        second = fifo_port(sim)

        def tag(packet):
            packet.set("hop", packet.get("hop", 0) + 1)
            return packet

        first.delivery = lambda packet: second.receive(tag(packet))
        first.receive(Packet(flow="A", length=1000))
        sim.run()
        assert second.sink.packets[0].get("hop") == 1

    def test_propagation_delay(self):
        sim = Simulator()
        first = fifo_port(sim, rate_bps=8e6)
        second = fifo_port(sim, rate_bps=8e6)
        first.delivery = second.receive
        first.propagation_delay = 0.005
        first.receive(Packet(flow="A", length=1000))
        sim.run()
        assert second.sink.packets[0].departure_time == pytest.approx(0.007)


class TestPacketSink:
    def test_share_by_flow(self):
        sink = PacketSink()
        for flow, count in (("A", 3), ("B", 1)):
            for _ in range(count):
                packet = Packet(flow=flow, length=1000)
                packet.departure_time = 0.001
                sink.record(packet)
        shares = sink.share_by_flow(end=0.01)
        assert shares["A"] == pytest.approx(0.75)

    def test_throughput_window(self):
        sink = PacketSink()
        packet = Packet(flow="A", length=1250)  # 10000 bits
        packet.departure_time = 0.5
        sink.record(packet)
        assert sink.throughput_bps(end=1.0) == pytest.approx(10000)
        assert sink.throughput_bps(start=0.6, end=1.0) == 0.0

    def test_departure_order_and_counts(self):
        sink = PacketSink()
        for flow in ("A", "B", "A"):
            packet = Packet(flow=flow, length=100)
            packet.departure_time = 0.0
            sink.record(packet)
        assert sink.departure_order() == ["A", "B", "A"]
        assert sink.packets_by_flow["A"] == 2
        assert sink.total_bytes() == 300
