"""Tests for the shared-memory switch substrate (buffer, thresholds,
switch)."""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.exceptions import BufferError_
from repro.sim import Simulator
from repro.switch import (
    AlwaysAdmit,
    DynamicThresholdPolicy,
    SharedBuffer,
    SharedMemorySwitch,
    StaticThresholdPolicy,
)


class TestSharedBuffer:
    def test_cell_accounting(self):
        buffer = SharedBuffer(capacity_bytes=2000, cell_bytes=200)
        assert buffer.total_cells == 10
        packet = Packet(flow="A", length=450)
        assert buffer.cells_for(packet) == 3
        buffer.allocate(packet, port="p0")
        assert buffer.used_cells == 3
        assert buffer.flow_cells("A") == 3
        assert buffer.port_cells("p0") == 3
        buffer.release(packet, port="p0")
        assert buffer.used_cells == 0

    def test_minimum_one_cell_per_packet(self):
        buffer = SharedBuffer(cell_bytes=200)
        assert buffer.cells_for(Packet(flow="A", length=64)) == 1

    def test_allocation_beyond_capacity_raises(self):
        buffer = SharedBuffer(capacity_bytes=400, cell_bytes=200)
        buffer.allocate(Packet(flow="A", length=400))
        with pytest.raises(BufferError_):
            buffer.allocate(Packet(flow="B", length=200))
        assert buffer.drops_no_space == 1

    def test_release_unallocated_raises(self):
        buffer = SharedBuffer()
        with pytest.raises(BufferError_):
            buffer.release(Packet(flow="A", length=100))

    def test_occupancy_snapshot(self):
        buffer = SharedBuffer(capacity_bytes=1000, cell_bytes=200)
        buffer.allocate(Packet(flow="A", length=200))
        occupancy = buffer.occupancy()
        assert occupancy.utilization == pytest.approx(0.2)
        assert occupancy.free_cells == 4

    def test_paper_default_dimensions(self):
        buffer = SharedBuffer()
        assert buffer.capacity_bytes == 12 * 1024 * 1024
        assert buffer.cell_bytes == 200
        # Roughly 60K cells, the worst-case packet count of Section 5.1.
        assert 60_000 <= buffer.total_cells <= 63_000


class TestAdmissionPolicies:
    def test_always_admit_respects_physical_capacity(self):
        buffer = SharedBuffer(capacity_bytes=400, cell_bytes=200)
        policy = AlwaysAdmit()
        assert policy.admit(buffer, Packet(flow="A", length=400))
        buffer.allocate(Packet(flow="A", length=400))
        assert not policy.admit(buffer, Packet(flow="B", length=200))

    def test_static_per_flow_threshold(self):
        buffer = SharedBuffer(capacity_bytes=4000, cell_bytes=200)
        policy = StaticThresholdPolicy(flow_limit_cells=2)
        first = Packet(flow="A", length=200)
        assert policy.admit(buffer, first)
        buffer.allocate(first)
        second = Packet(flow="A", length=200)
        assert policy.admit(buffer, second)
        buffer.allocate(second)
        assert not policy.admit(buffer, Packet(flow="A", length=200))
        assert policy.admit(buffer, Packet(flow="B", length=200))

    def test_static_per_port_threshold(self):
        buffer = SharedBuffer(capacity_bytes=4000, cell_bytes=200)
        policy = StaticThresholdPolicy(port_limit_cells=1)
        packet = Packet(flow="A", length=200)
        assert policy.admit(buffer, packet, port="p0")
        buffer.allocate(packet, port="p0")
        assert not policy.admit(buffer, Packet(flow="B", length=200), port="p0")
        assert policy.admit(buffer, Packet(flow="B", length=200), port="p1")

    def test_dynamic_threshold_shrinks_as_buffer_fills(self):
        buffer = SharedBuffer(capacity_bytes=2000, cell_bytes=200)  # 10 cells
        policy = DynamicThresholdPolicy(alpha=1.0)
        admitted = 0
        while True:
            packet = Packet(flow="hog", length=200)
            if not policy.admit(buffer, packet):
                break
            buffer.allocate(packet)
            admitted += 1
        # With alpha=1 a single flow stops at about half the buffer.
        assert admitted == 5
        # A different flow can still get in.
        assert policy.admit(buffer, Packet(flow="new", length=200))

    def test_dynamic_threshold_validation(self):
        with pytest.raises(ValueError):
            DynamicThresholdPolicy(alpha=0)
        with pytest.raises(ValueError):
            DynamicThresholdPolicy(key="queue")


class TestSharedMemorySwitch:
    def make_switch(self, ports=4, admission=None):
        sim = Simulator()
        switch = SharedMemorySwitch(
            sim=sim,
            scheduler_factory=lambda name: ProgrammableScheduler(
                single_node_tree(FIFOTransaction())
            ),
            port_count=ports,
            port_rate_bps=8e6,
            admission=admission,
        )
        return sim, switch

    def test_packets_forwarded_out_their_port(self):
        sim, switch = self.make_switch()
        switch.receive(Packet(flow="A", length=1000), output_port="port1")
        switch.receive(Packet(flow="B", length=1000), output_port="port2")
        sim.run()
        assert switch.port("port1").transmitted_packets == 1
        assert switch.port("port2").transmitted_packets == 1
        assert switch.stats.transmitted == 2

    def test_buffer_released_after_transmit(self):
        sim, switch = self.make_switch()
        switch.receive(Packet(flow="A", length=1000), output_port="port0")
        sim.run()
        assert switch.buffer.used_cells == 0

    def test_admission_policy_drops_are_counted(self):
        sim, switch = self.make_switch(
            admission=StaticThresholdPolicy(flow_limit_cells=1)
        )
        assert switch.receive(Packet(flow="A", length=200), output_port="port0")
        assert not switch.receive(Packet(flow="A", length=200), output_port="port0")
        assert switch.stats.dropped_admission == 1

    @pytest.mark.parametrize("telemetry", [True, False])
    def test_scheduler_full_reject_releases_cells(self, telemetry):
        sim = Simulator()
        switch = SharedMemorySwitch(
            sim=sim,
            scheduler_factory=lambda name: ProgrammableScheduler(
                single_node_tree(FIFOTransaction(), pifo_capacity=2)
            ),
            port_count=1,
            port_rate_bps=8e6,
            telemetry=telemetry,
        )
        burst = [Packet(flow="A", length=1000) for _ in range(5)]
        accepted = [p for p in burst if switch.receive(p, output_port="port0")]
        # Capacity 2 plus the head already on the transmitter.
        assert len(accepted) == switch.stats.admitted == 3
        assert switch.stats.dropped_scheduler == 2
        assert switch.buffer.used_cells == sum(
            switch.buffer.cells_for(p) for p in accepted)
        sim.run()
        assert switch.stats.transmitted == 3
        assert switch.buffer.used_cells == 0

    def test_unknown_port_raises(self):
        _sim, switch = self.make_switch()
        with pytest.raises(KeyError):
            switch.receive(Packet(flow="A", length=100), output_port="port99")

    def test_sixty_four_port_construction(self):
        sim = Simulator()
        switch = SharedMemorySwitch(
            sim=sim,
            scheduler_factory=lambda name: ProgrammableScheduler(
                single_node_tree(FIFOTransaction())
            ),
        )
        assert len(switch.port_names()) == 64
