"""Equivalence of the mesh-backed hardware scheduler and the reference engine.

The hardware model must agree with the reference PIFO semantics whenever the
Section 5.2 structural assumption holds (ranks do not decrease within a
flow).  Ties between flows may legitimately resolve differently — the flow
scheduler orders reinserted heads by reinsertion time rather than original
arrival — so the strong (exact-order) checks use tie-free workloads and the
weaker checks assert per-flow order and identical service counts.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    EarliestDeadlineFirstTransaction,
    FIFOTransaction,
    build_fig3_tree,
    build_fig4_tree,
)
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.hardware import HardwareScheduler, MeshCompiler


def per_flow_order(packets):
    grouped = {}
    for packet in packets:
        grouped.setdefault(packet.flow, []).append(packet.get("seq"))
    return grouped


class TestExactEquivalenceWithoutTies:
    def test_fifo_with_distinct_arrival_times(self):
        reference = ProgrammableScheduler(single_node_tree(FIFOTransaction()))
        hardware = HardwareScheduler(single_node_tree(FIFOTransaction()))
        rng = random.Random(0)
        for i in range(100):
            flow = rng.choice("ABC")
            now = i * 1e-6
            reference.enqueue(Packet(flow=flow, length=100, fields={"seq": i}), now=now)
            hardware.enqueue(Packet(flow=flow, length=100, fields={"seq": i}), now=now)
        ref_order = [p.get("seq") for p in reference.drain()]
        hw_order = [p.get("seq") for p in hardware.drain()]
        assert ref_order == hw_order
        assert hardware.stats == reference.stats
        assert hardware.stats.enqueued == hardware.stats.dequeued == 100

    def test_edf_with_unique_deadlines(self):
        reference = ProgrammableScheduler(
            single_node_tree(EarliestDeadlineFirstTransaction())
        )
        hardware = HardwareScheduler(
            single_node_tree(EarliestDeadlineFirstTransaction())
        )
        rng = random.Random(1)
        deadlines = rng.sample(range(10_000), 80)
        for i, deadline in enumerate(deadlines):
            # One flow per packet keeps within-flow monotonicity trivially.
            for scheduler in (reference, hardware):
                scheduler.enqueue(
                    Packet(flow=f"f{i}", length=100,
                           fields={"deadline": deadline, "seq": i})
                )
        assert [p.get("seq") for p in reference.drain()] == [
            p.get("seq") for p in hardware.drain()
        ]


class TestHierarchicalEquivalence:
    def test_hpfq_same_per_flow_order_and_service(self):
        reference = ProgrammableScheduler(build_fig3_tree())
        hardware = HardwareScheduler(build_fig3_tree())
        rng = random.Random(7)
        for i in range(300):
            flow = rng.choice("ABCD")
            length = rng.choice([500, 1000, 1500])
            reference.enqueue(Packet(flow=flow, length=length, fields={"seq": i}))
            hardware.enqueue(Packet(flow=flow, length=length, fields={"seq": i}))
        ref_out = reference.drain()
        hw_out = hardware.drain()
        assert len(ref_out) == len(hw_out) == 300
        assert per_flow_order(ref_out) == per_flow_order(hw_out)
        # Departure orders agree except possibly at tie-rank positions.
        mismatches = sum(
            1 for a, b in zip(ref_out, hw_out) if a.get("seq") != b.get("seq")
        )
        assert mismatches <= len(ref_out) * 0.05
        assert hardware.stats == reference.stats

    def test_shaped_tree_same_eligibility_times(self):
        reference = ProgrammableScheduler(build_fig4_tree(right_burst_bytes=1500))
        hardware = HardwareScheduler(build_fig4_tree(right_burst_bytes=1500))
        for i in range(10):
            for scheduler in (reference, hardware):
                scheduler.enqueue(Packet(flow="C", length=1500, fields={"seq": i}),
                                  now=0.0)
        assert reference.next_shaping_release() == pytest.approx(
            hardware.next_shaping_release()
        )
        ref_now = [p.get("seq") for p in reference.drain(now=0.0)]
        hw_now = [p.get("seq") for p in hardware.drain(now=0.0)]
        assert ref_now == hw_now
        # Mid-run: some packets still suspended behind the token bucket.
        assert hardware.stats == reference.stats
        later = 1.0
        assert [p.get("seq") for p in reference.drain(now=later)] == [
            p.get("seq") for p in hardware.drain(now=later)
        ]
        assert hardware.stats == reference.stats
        assert hardware.stats.shaping_releases == 10


@given(
    st.lists(
        st.tuples(st.sampled_from("ABCD"), st.sampled_from([500, 1000, 1500])),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_hpfq_service_counts_match(arrivals):
    """For any arrival pattern, reference and hardware serve exactly the same
    multiset of packets per flow in the same within-flow order."""
    reference = ProgrammableScheduler(build_fig3_tree())
    hardware = HardwareScheduler(build_fig3_tree())
    for i, (flow, length) in enumerate(arrivals):
        reference.enqueue(Packet(flow=flow, length=length, fields={"seq": i}))
        hardware.enqueue(Packet(flow=flow, length=length, fields={"seq": i}))
    ref_out = reference.drain()
    hw_out = hardware.drain()
    assert per_flow_order(ref_out) == per_flow_order(hw_out)
    assert hardware.stats == reference.stats


class TestDocumentedDeviation:
    def test_decreasing_ranks_within_a_flow_deviate_from_ideal_pifo(self):
        """When a flow's ranks decrease (violating the Section 5.2
        assumption), the rank-store FIFO serialises the flow and the hardware
        order differs from the ideal PIFO — exactly the limitation the paper
        states for its design."""
        reference = ProgrammableScheduler(single_node_tree(EarliestDeadlineFirstTransaction()))
        hardware = HardwareScheduler(single_node_tree(EarliestDeadlineFirstTransaction()))
        # Same flow, deadlines decreasing: 30, 20, 10; another flow at 15.
        workload = [("f", 30), ("f", 20), ("other", 15), ("f", 10)]
        for i, (flow, deadline) in enumerate(workload):
            for scheduler in (reference, hardware):
                scheduler.enqueue(
                    Packet(flow=flow, length=100, fields={"deadline": deadline, "seq": i})
                )
        ref_order = [p.get("seq") for p in reference.drain()]
        hw_order = [p.get("seq") for p in hardware.drain()]
        assert ref_order == [3, 2, 1, 0]   # ideal PIFO: pure deadline order
        assert hw_order != ref_order        # hardware: head-of-flow blocking
        # Flow f's packets leave in arrival order (head-of-flow FIFO), not in
        # deadline order, because the rank store serialises the flow.
        f_positions = [seq for seq in hw_order if seq in (0, 1, 3)]
        assert f_positions == [0, 1, 3]


def test_masked_shaping_token_is_deferred_not_dropped():
    """Regression: a PFC mask on a shaped node's flow at release time must
    defer the shaping token, not discard its calendar entry."""
    scheduler = HardwareScheduler(build_fig4_tree())
    for _ in range(6):
        scheduler.enqueue(Packet(flow="C", length=1500, arrival_time=0.0))
    slot = scheduler.program.shaping_assignment["Right"]
    block = scheduler.mesh.blocks[slot.block]
    pending = scheduler.next_shaping_release()
    assert pending is not None

    block.mask_flow("Right")
    assert scheduler.process_shaping_releases(now=1e9) == 0
    # Paused tokens are invisible to next_shaping_release (they cannot
    # fire, and advertising them would shadow other nodes' releases) but
    # must not be lost from the calendar.
    assert scheduler.next_shaping_release() is None

    block.unmask_flow("Right")
    assert scheduler.next_shaping_release() == pending
    released = scheduler.process_shaping_releases(now=1e9)
    assert released > 0
    assert len(scheduler.drain(now=1e9)) == 6


def test_reset_preserves_custom_compiler_capacities():
    """Regression: reset() must recompile with the caller's compiler, not
    silently revert to default block capacities."""
    compiler = MeshCompiler(capacity_flows=8, logical_pifos_per_block=16)
    scheduler = HardwareScheduler(build_fig3_tree(), compiler=compiler)
    block = next(iter(scheduler.mesh.blocks.values()))
    assert block.flow_scheduler.capacity_flows == 8
    assert block.logical_pifo_count == 16
    scheduler.reset()
    block = next(iter(scheduler.mesh.blocks.values()))
    assert block.flow_scheduler.capacity_flows == 8
