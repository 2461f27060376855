"""Tests for Least Slack-Time First (Figure 6)."""

from __future__ import annotations

import pytest

from repro.algorithms import LSTFTransaction, stamp_wait_time
from repro.core import Packet, ProgrammableScheduler, TransactionContext, single_node_tree
from repro.exceptions import TransactionError
from repro.lang.programs import lstf_program
from repro.net import Fabric, get_scenario
from repro.net.scenarios import URGENT_SLACK
from repro.sim import Simulator
from repro.traffic import merge_arrivals


def pkt(flow="A", slack=None, prev_wait=0.0):
    fields = {}
    if slack is not None:
        fields["slack"] = slack
    if prev_wait:
        fields["prev_wait_time"] = prev_wait
    return Packet(flow=flow, length=1000, fields=fields)


class TestLSTFTransaction:
    def test_rank_is_slack(self):
        txn = LSTFTransaction()
        assert txn(pkt(slack=0.02), TransactionContext()) == pytest.approx(0.02)

    def test_slack_decremented_by_previous_wait(self):
        txn = LSTFTransaction()
        packet = pkt(slack=0.05, prev_wait=0.02)
        rank = txn(packet, TransactionContext())
        assert rank == pytest.approx(0.03)
        # The transaction writes the decremented slack back into the packet.
        assert packet.get("slack") == pytest.approx(0.03)
        assert packet.get("prev_wait_time") == 0.0

    def test_missing_slack_raises(self):
        with pytest.raises(TransactionError):
            LSTFTransaction()(pkt(), TransactionContext())

    def test_stamp_wait_time_accumulates(self):
        packet = pkt(slack=1.0)
        stamp_wait_time(packet, 0.01)
        stamp_wait_time(packet, 0.02)
        assert packet.get("prev_wait_time") == pytest.approx(0.03)


class TestLSTFOrdering:
    def test_least_slack_leaves_first(self):
        scheduler = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        urgent = pkt(flow="urgent", slack=0.001)
        relaxed = pkt(flow="relaxed", slack=0.5)
        scheduler.enqueue(relaxed)
        scheduler.enqueue(urgent)
        assert scheduler.dequeue() is urgent

    def test_upstream_wait_promotes_packet(self):
        """A packet that already waited a long time upstream overtakes one
        with nominally smaller slack but no waiting history."""
        scheduler = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        waited = pkt(flow="waited", slack=0.10, prev_wait=0.09)   # effective 0.01
        fresh = pkt(flow="fresh", slack=0.05)                     # effective 0.05
        scheduler.enqueue(fresh)
        scheduler.enqueue(waited)
        assert scheduler.dequeue() is waited

    def test_two_hop_slack_chain(self):
        """Simulate two switches: slack decreases hop by hop by the wait time
        experienced at the previous hop."""
        hop1 = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        hop2 = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        packet = pkt(flow="A", slack=0.1)
        hop1.enqueue(packet, now=0.0)
        out = hop1.dequeue(now=0.0)
        stamp_wait_time(out, 0.04)  # waited 40 ms at hop 1
        hop2.enqueue(out, now=0.04)
        final = hop2.dequeue(now=0.04)
        assert final.get("slack") == pytest.approx(0.06)


class TestLSTFOnAChain:
    @pytest.mark.parametrize("make_lstf", [LSTFTransaction, lstf_program],
                             ids=["LSTFTransaction", "lstf_program"])
    def test_slack_is_budget_minus_upstream_waits(self, make_lstf):
        """On fig6_chain's input (three switches, cross traffic at every
        hop), each hop subtracts only the wait since the previous one: an
        urgent packet leaves the last switch with its 20 ms budget minus
        every wait but the last (stamped after the last LSTF ran)."""
        scenario = get_scenario("fig6_chain")
        duration = scenario.quick_duration
        fabric = Fabric(
            Simulator(), scenario.topology(),
            lambda switch, port: ProgrammableScheduler(
                single_node_tree(make_lstf())),
            keep_packets=True, telemetry=True)
        by_host = {}
        for demand in scenario.demands:
            by_host.setdefault(demand.src, []).append(
                demand.build_arrivals(duration))
        for host, streams in sorted(by_host.items()):
            fabric.attach_source(host, merge_arrivals(*streams))
        fabric.run(until=duration, drain=True)
        urgent = [packet for packet in fabric.sink("h_dst").packets
                  if packet.flow == "urgent"]
        assert len(urgent) == 20
        for packet in urgent:
            waits = [queueing for _node, _arrival, queueing, _departure
                     in packet.hops]
            assert len(waits) == 4  # h_src's NIC, s1, s2, s3
            assert packet.get("slack") == pytest.approx(
                URGENT_SLACK - sum(waits[:-1]), abs=1e-12)
