"""Tests for the STFQ / WFQ scheduling transaction (Figure 1)."""

from __future__ import annotations

import pytest

from repro.algorithms import STFQTransaction, WFQTransaction, build_wfq_tree
from repro.core import Packet, ProgrammableScheduler, TransactionContext


def ctx(flow, length, now=0.0):
    return TransactionContext(now=now, element_flow=flow, element_length=length)


class TestSTFQTransaction:
    def test_first_packet_gets_virtual_time(self):
        txn = STFQTransaction()
        assert txn(Packet(flow="A", length=1000), ctx("A", 1000)) == 0.0

    def test_back_to_back_packets_spaced_by_length_over_weight(self):
        txn = STFQTransaction(weights={"A": 2.0})
        first = txn(Packet(flow="A", length=1000), ctx("A", 1000))
        second = txn(Packet(flow="A", length=1000), ctx("A", 1000))
        assert first == 0.0
        assert second == pytest.approx(500.0)  # 1000 / weight 2

    def test_higher_weight_gets_smaller_start_increments(self):
        heavy = STFQTransaction(weights={"H": 10.0})
        light = STFQTransaction(weights={"L": 1.0})
        for _ in range(3):
            heavy_rank = heavy(Packet(flow="H", length=1000), ctx("H", 1000))
            light_rank = light(Packet(flow="L", length=1000), ctx("L", 1000))
        assert heavy_rank < light_rank

    def test_start_time_uses_max_of_virtual_time_and_last_finish(self):
        txn = STFQTransaction()
        txn(Packet(flow="A", length=1000), ctx("A", 1000))  # finish = 1000
        # Advance virtual time beyond A's finish tag via the dequeue hook.
        txn.on_dequeue(None, TransactionContext(extras={"rank": 5000.0}))
        rank = txn(Packet(flow="A", length=1000), ctx("A", 1000))
        assert rank == pytest.approx(5000.0)

    def test_new_flow_starts_at_current_virtual_time(self):
        txn = STFQTransaction()
        txn(Packet(flow="A", length=1000), ctx("A", 1000))
        txn.on_dequeue(None, TransactionContext(extras={"rank": 800.0}))
        rank = txn(Packet(flow="B", length=1000), ctx("B", 1000))
        assert rank == pytest.approx(800.0)

    def test_virtual_time_never_moves_backwards(self):
        txn = STFQTransaction()
        txn.on_dequeue(None, TransactionContext(extras={"rank": 100.0}))
        txn.on_dequeue(None, TransactionContext(extras={"rank": 50.0}))
        assert txn.state["virtual_time"] == 100.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            STFQTransaction(weights={"A": 0.0})
        with pytest.raises(ValueError):
            STFQTransaction(default_weight=-1.0)

    def test_wfq_alias(self):
        assert WFQTransaction is STFQTransaction


class TestWFQBehaviour:
    def test_equal_weights_alternate(self):
        scheduler = ProgrammableScheduler(build_wfq_tree({"A": 1.0, "B": 1.0}))
        for _ in range(4):
            scheduler.enqueue(Packet(flow="A", length=1000))
            scheduler.enqueue(Packet(flow="B", length=1000))
        order = [p.flow for p in scheduler.drain()]
        # Perfect alternation after the first pair.
        assert order.count("A") == order.count("B") == 4
        for i in range(0, 8, 2):
            assert {order[i], order[i + 1]} == {"A", "B"}

    def test_weighted_shares_in_drain_order(self):
        scheduler = ProgrammableScheduler(build_wfq_tree({"A": 1.0, "B": 3.0}))
        for _ in range(12):
            scheduler.enqueue(Packet(flow="A", length=1000))
            scheduler.enqueue(Packet(flow="B", length=1000))
        order = [p.flow for p in scheduler.drain()]
        first_12 = order[:12]
        assert first_12.count("B") == 9
        assert first_12.count("A") == 3

    def test_unequal_packet_sizes_share_bytes_not_packets(self):
        scheduler = ProgrammableScheduler(build_wfq_tree({"A": 1.0, "B": 1.0}))
        # A sends 500-byte packets, B sends 1500-byte packets.
        for _ in range(30):
            scheduler.enqueue(Packet(flow="A", length=500))
        for _ in range(10):
            scheduler.enqueue(Packet(flow="B", length=1500))
        order = scheduler.drain()
        # In any prefix covering whole "rounds", bytes should be balanced.
        bytes_a = sum(p.length for p in order[:20] if p.flow == "A")
        bytes_b = sum(p.length for p in order[:20] if p.flow == "B")
        assert abs(bytes_a - bytes_b) <= 1500

    def test_idle_flow_does_not_accumulate_credit(self):
        scheduler = ProgrammableScheduler(build_wfq_tree({"A": 1.0, "B": 1.0}))
        # A is active alone for a while.
        for _ in range(10):
            scheduler.enqueue(Packet(flow="A", length=1000))
        drained = scheduler.drain()
        assert len(drained) == 10
        # Now B becomes active; it must not starve A by claiming the service
        # it "missed" while idle (virtual time protects against this).
        for _ in range(6):
            scheduler.enqueue(Packet(flow="A", length=1000))
            scheduler.enqueue(Packet(flow="B", length=1000))
        order = [p.flow for p in scheduler.drain()]
        assert order[:2].count("B") <= 1
        assert order.count("A") == 6
