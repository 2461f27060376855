"""Tests for the Hierarchies-with-Shaping tree (Figure 4)."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    FIG4_RIGHT_RATE_BPS,
    build_fig4_tree,
    build_shaped_hierarchy,
)
from repro.core import Packet, ProgrammableScheduler
from repro.metrics import max_windowed_rate_bps
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import FlowSpec, cbr_arrivals, merge_arrivals


class TestTreeConstruction:
    def test_fig4_right_node_is_shaped(self):
        tree = build_fig4_tree()
        assert tree.node("Right").shaping is not None
        assert tree.node("Left").shaping is None
        # Figure 4c's token-bucket program: r is the rate in bytes/s.
        assert tree.node("Right").shaping.params["r"] * 8 == FIG4_RIGHT_RATE_BPS

    def test_generic_builder_applies_limits_selectively(self):
        tree = build_shaped_hierarchy(
            class_flows={"video": {"v1": 1.0}, "bulk": {"b1": 1.0}},
            class_weights={"video": 1.0, "bulk": 1.0},
            class_rate_limits_bps={"bulk": 5e6},
        )
        assert tree.node("bulk").shaping is not None
        assert tree.node("video").shaping is None


class TestShapingBehaviour:
    def test_right_class_held_back_without_wall_clock_progress(self):
        scheduler = ProgrammableScheduler(build_fig4_tree(right_burst_bytes=1500))
        for _ in range(5):
            scheduler.enqueue(Packet(flow="C", length=1500), now=0.0)
        # Only the burst-allowance worth of Right traffic is eligible at t=0.
        eligible = scheduler.drain(now=0.0)
        assert len(eligible) == 1
        assert len(scheduler) == 4

    def test_left_class_never_blocked_by_right_shaper(self):
        scheduler = ProgrammableScheduler(build_fig4_tree(right_burst_bytes=1500))
        for _ in range(3):
            scheduler.enqueue(Packet(flow="C", length=1500), now=0.0)
            scheduler.enqueue(Packet(flow="A", length=1500), now=0.0)
        eligible = scheduler.drain(now=0.0)
        assert sum(1 for p in eligible if p.flow == "A") == 3

    def test_right_rate_limited_to_10mbps_on_a_link(self):
        """The Figure 4 experiment in miniature: Right offers far more than
        10 Mbit/s but never receives more, regardless of offered load."""
        sim = Simulator()
        scheduler = ProgrammableScheduler(build_fig4_tree())
        port = OutputPort(sim, scheduler, rate_bps=100e6)
        duration = 0.2
        streams = []
        for flow in ("A", "B", "C", "D"):
            spec = FlowSpec(name=flow, rate_bps=50e6, packet_size=1500)
            streams.append(cbr_arrivals(spec, duration=duration))
        PacketSource(sim, port, merge_arrivals(*streams))
        sim.run(until=duration)
        right_rate = max_windowed_rate_bps(
            port.sink.packets, window_s=0.02, flows=["C", "D"], skip_first_windows=1
        )
        assert right_rate <= FIG4_RIGHT_RATE_BPS * 1.15
        # And Left picks up the remaining capacity (work conservation at the
        # root is preserved for unshaped classes).
        left_bytes = sum(p.length for p in port.sink.packets if p.flow in "AB")
        right_bytes = sum(p.length for p in port.sink.packets if p.flow in "CD")
        assert left_bytes > right_bytes * 3

    def test_increasing_offered_load_does_not_increase_right_throughput(self):
        def right_rate(offered_per_flow_bps):
            sim = Simulator()
            scheduler = ProgrammableScheduler(build_fig4_tree())
            port = OutputPort(sim, scheduler, rate_bps=100e6)
            duration = 0.1
            streams = [
                cbr_arrivals(FlowSpec(name=f, rate_bps=offered_per_flow_bps,
                                      packet_size=1500), duration)
                for f in ("C", "D")
            ]
            PacketSource(sim, port, merge_arrivals(*streams))
            sim.run(until=duration)
            return port.sink.throughput_bps(start=0.02, end=duration)

        low_load = right_rate(10e6)
        high_load = right_rate(40e6)
        assert high_load <= low_load * 1.2
        assert high_load <= FIG4_RIGHT_RATE_BPS * 1.3
