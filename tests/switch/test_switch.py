"""Tests for the shared-memory switch substrate (cell-accounted buffer,
switch)."""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.sim import Simulator
from repro.switch import SharedBuffer, SharedMemorySwitch


def fifo_switch(buffer=None, ports=4):
    sim = Simulator()
    switch = SharedMemorySwitch(
        sim=sim,
        scheduler_factory=lambda name: ProgrammableScheduler(
            single_node_tree(FIFOTransaction())
        ),
        port_count=ports,
        port_rate_bps=8e6,
        buffer=buffer,
    )
    return sim, switch


class TestSharedBuffer:
    def test_cell_accounting(self):
        buffer = SharedBuffer(capacity_bytes=2000, cell_bytes=200)
        assert buffer.total_cells == 10
        packet = Packet(flow="A", length=450)
        assert buffer.cells_for(packet) == 3
        sim, switch = fifo_switch(buffer)
        assert switch.receive(packet, output_port="port0")
        assert (buffer.used_cells, buffer.used_bytes) == (3, 450)
        sim.run()
        assert (buffer.used_cells, buffer.used_bytes) == (0, 0)

    def test_minimum_one_cell_per_packet(self):
        buffer = SharedBuffer(cell_bytes=200)
        assert buffer.cells_for(Packet(flow="A", length=64)) == 1

    def test_occupancy_snapshot(self):
        buffer = SharedBuffer(capacity_bytes=1000, cell_bytes=200)
        _sim, switch = fifo_switch(buffer)
        switch.receive(Packet(flow="A", length=200), output_port="port0")
        snapshot = switch.metrics_snapshot()
        assert snapshot["switch.buffer.used_cells"] == 1
        assert snapshot["switch.buffer.used_bytes"] == 200
        assert snapshot["switch.buffer.total_cells"] == 5

    def test_paper_default_dimensions(self):
        buffer = SharedBuffer()
        assert buffer.capacity_bytes == 12 * 1024 * 1024
        assert buffer.cell_bytes == 200
        # Roughly 60K cells, the worst-case packet count of Section 5.1.
        assert 60_000 <= buffer.total_cells <= 63_000


class TestSharedMemorySwitch:
    def make_switch(self, ports=4, buffer=None):
        return fifo_switch(buffer, ports)

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
        # A one-cell buffer: the second packet's cell does not fit.
        sim, switch = self.make_switch(
            buffer=SharedBuffer(capacity_bytes=200, cell_bytes=200)
        )
        assert switch.receive(Packet(flow="A", length=200), output_port="port0")
        assert not switch.receive(Packet(flow="A", length=200), output_port="port0")
        assert switch.stats.dropped_admission == 1

    def test_release_without_ingress_clamps(self):
        # A packet fed straight to a port never took cells; its release
        # leaves the occupancy at zero instead of going negative.
        sim, switch = self.make_switch()
        switch.port("port0").receive(Packet(flow="A", length=1000))
        sim.run()
        assert switch.port("port0").transmitted_packets == 1
        assert (switch.buffer.used_cells, switch.buffer.used_bytes) == (0, 0)

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
