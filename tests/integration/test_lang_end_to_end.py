"""End-to-end: a hierarchy programmed *entirely* in the transaction language.

The strongest programmability claim is that the Figure 3/Figure 4 hierarchies
can be expressed as program text only — no hand-written transaction classes —
and still produce the paper's bandwidth shares on the simulated switch.
These tests build HPFQ and Hierarchies-with-Shaping from
:mod:`repro.lang.programs` sources and compare against both the expected
shares and the :mod:`repro.algorithms` builders of the same trees.
"""

from __future__ import annotations

import pytest

from repro.algorithms import build_fig3_tree
from repro.core import Packet, ProgrammableScheduler
from repro.lang.trees import (
    build_fig3_tree_from_programs,
    build_fig4_tree_from_programs,
)
from repro.metrics import max_share_error
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import FlowSpec, cbr_arrivals, merge_arrivals

LINK_RATE = 100e6
DURATION = 0.05
FIG3_EXPECTED = {"A": 0.03, "B": 0.07, "C": 0.36, "D": 0.54}


def run_port(tree, rates, duration=DURATION):
    sim = Simulator()
    scheduler = ProgrammableScheduler(tree)
    port = OutputPort(sim, scheduler, rate_bps=LINK_RATE, name="port0")
    streams = [
        cbr_arrivals(FlowSpec(name=flow, rate_bps=rate, packet_size=1500), duration)
        for flow, rate in rates.items()
        if rate > 0
    ]
    PacketSource(sim, port, merge_arrivals(*streams))
    sim.run(until=duration)
    return port


class TestHPFQFromPrograms:
    def test_shares_match_figure3(self):
        port = run_port(
            build_fig3_tree_from_programs(),
            {flow: LINK_RATE for flow in "ABCD"},
        )
        shares = port.sink.share_by_flow(start=0.01, end=DURATION)
        assert max_share_error(shares, FIG3_EXPECTED) < 0.03

    def test_departure_order_matches_hand_written_tree(self):
        """On a deterministic backlogged workload the program-built tree and
        the hand-written tree produce the same departure sequence."""
        prog_sched = ProgrammableScheduler(build_fig3_tree_from_programs())
        hand_sched = ProgrammableScheduler(build_fig3_tree())
        for round_index in range(25):
            for flow in "ABCD":
                prog_sched.enqueue(Packet(flow=flow, length=1500))
                hand_sched.enqueue(Packet(flow=flow, length=1500))
        prog_order = [packet.flow for packet in prog_sched.drain()]
        hand_order = [packet.flow for packet in hand_sched.drain()]
        assert prog_order == hand_order

    def test_tree_validates_and_reports_structure(self):
        tree = build_fig3_tree_from_programs()
        assert tree.depth() == 2
        assert {node.name for node in tree.leaves()} == {"Left", "Right"}
        description = tree.describe()
        assert "stfq" in description


class TestShapedHierarchyFromPrograms:
    def test_right_class_capped_at_10mbps(self):
        port = run_port(
            build_fig4_tree_from_programs(),
            {"A": 30e6, "B": 30e6, "C": 40e6, "D": 40e6},
            duration=0.1,
        )
        right = sum(
            port.sink.throughput_bps(flow=flow, start=0.02, end=0.1) for flow in "CD"
        )
        left = sum(
            port.sink.throughput_bps(flow=flow, start=0.02, end=0.1) for flow in "AB"
        )
        assert right <= 10e6 * 1.2
        assert right >= 10e6 * 0.6
        assert left >= 55e6

    def test_compiled_and_interpreted_trees_schedule_identically(self):
        """The lang backend must be invisible to the scheduler: the compiled
        tree and the interpreter-forced tree emit the same departures."""
        compiled_sched = ProgrammableScheduler(
            build_fig3_tree_from_programs(backend="compiled")
        )
        interpreted_sched = ProgrammableScheduler(
            build_fig3_tree_from_programs(backend="interpreted")
        )
        for round_index in range(25):
            for flow in "ABCD":
                compiled_sched.enqueue(Packet(flow=flow, length=1500))
                interpreted_sched.enqueue(Packet(flow=flow, length=1500))
        compiled_order = [p.flow for p in compiled_sched.drain()]
        interpreted_order = [p.flow for p in interpreted_sched.drain()]
        assert compiled_order == interpreted_order

    def test_shaper_defers_elements(self):
        scheduler = ProgrammableScheduler(build_fig4_tree_from_programs())
        # A burst of Right-class packets beyond the burst allowance must be
        # held back by the shaping program.
        for _ in range(6):
            scheduler.enqueue(Packet(flow="C", length=1500), now=0.0)
        immediately = scheduler.drain(now=0.0)
        assert len(immediately) < 6
        assert scheduler.next_shaping_release() is not None
        later = scheduler.drain_timed(until=10.0)
        assert len(immediately) + len(later) == 6
