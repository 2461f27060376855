"""Tests for fine-grained priority transactions (SJF, SRPT, LAS, EDF)."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    EarliestDeadlineFirstTransaction,
    FieldRankTransaction,
    LeastAttainedServiceTransaction,
    ShortestJobFirstTransaction,
    SRPTTransaction,
)
from repro.core import Packet, ProgrammableScheduler, TransactionContext, single_node_tree
from repro.exceptions import TransactionError


def pkt(flow="A", length=1000, **fields):
    return Packet(flow=flow, length=length, fields=fields)


class TestFieldRank:
    def test_rank_equals_field(self):
        txn = FieldRankTransaction("anything")
        assert txn(pkt(anything=17), TransactionContext()) == 17

    def test_missing_field_raises(self):
        txn = FieldRankTransaction("missing")
        with pytest.raises(TransactionError):
            txn(pkt(), TransactionContext())


class TestSJFAndSRPT:
    def test_sjf_orders_by_flow_size(self):
        scheduler = ProgrammableScheduler(single_node_tree(ShortestJobFirstTransaction()))
        big = pkt(flow="big", flow_size=1_000_000)
        small = pkt(flow="small", flow_size=10_000)
        scheduler.enqueue(big)
        scheduler.enqueue(small)
        assert scheduler.dequeue() is small

    def test_srpt_orders_by_remaining_size(self):
        scheduler = ProgrammableScheduler(single_node_tree(SRPTTransaction()))
        nearly_done = pkt(flow="f1", remaining_size=2000)
        just_started = pkt(flow="f2", remaining_size=900_000)
        scheduler.enqueue(just_started)
        scheduler.enqueue(nearly_done)
        assert scheduler.dequeue() is nearly_done

    def test_srpt_switch_local_ordering_within_buffer(self):
        """Packets already buffered keep their relative order when a new
        smaller-remaining packet arrives: only the newcomer jumps ahead."""
        scheduler = ProgrammableScheduler(single_node_tree(SRPTTransaction()))
        a = pkt(flow="f0", remaining_size=7)
        b = pkt(flow="f1", remaining_size=9)
        c = pkt(flow="f1", remaining_size=8)
        for packet in (a, b, c):
            scheduler.enqueue(packet)
        d = pkt(flow="f1", remaining_size=6)
        scheduler.enqueue(d)
        assert scheduler.drain() == [d, a, c, b]


class TestEDF:
    def test_earliest_deadline_first(self):
        scheduler = ProgrammableScheduler(
            single_node_tree(EarliestDeadlineFirstTransaction())
        )
        late = pkt(flow="late", deadline=9.0)
        soon = pkt(flow="soon", deadline=1.0)
        scheduler.enqueue(late)
        scheduler.enqueue(soon)
        assert scheduler.dequeue() is soon

    def test_missing_deadline_raises(self):
        scheduler = ProgrammableScheduler(
            single_node_tree(EarliestDeadlineFirstTransaction())
        )
        with pytest.raises(TransactionError):
            scheduler.enqueue(pkt())


class TestLAS:
    def test_untagged_packets_use_switch_state(self):
        txn = LeastAttainedServiceTransaction()
        ctx_a = TransactionContext(element_flow="A", element_length=1000)
        assert txn(pkt(flow="A"), ctx_a) == 0
        assert txn(pkt(flow="A"), ctx_a) == 1000
        assert txn(pkt(flow="A"), ctx_a) == 2000

    def test_new_flow_preferred_over_old_heavy_flow(self):
        scheduler = ProgrammableScheduler(
            single_node_tree(LeastAttainedServiceTransaction())
        )
        for _ in range(5):
            scheduler.enqueue(pkt(flow="elephant"))
        scheduler.enqueue(pkt(flow="mouse"))
        order = [p.flow for p in scheduler.drain()]
        # The mouse has attained no service, so it goes ahead of all but the
        # elephant's first packet (which also has rank 0 and arrived first).
        assert order.index("mouse") == 1

    def test_tagged_attained_service_is_honoured(self):
        """LAS counts in the switch; a host tag is read by the field rank."""
        ctx = TransactionContext(element_flow="A", element_length=1000)
        tagged = pkt(flow="A", attained_service=5000)
        assert FieldRankTransaction("attained_service")(tagged, ctx) == 5000
        assert LeastAttainedServiceTransaction()(tagged, ctx) == 0
