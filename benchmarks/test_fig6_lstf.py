"""Figure 6 / Section 3.1 — Least Slack-Time First.

Regenerates: deadline-miss behaviour of LSTF vs FIFO at a congested port.
Paper claim: LSTF (programmed as a one-line scheduling transaction)
schedules packets in increasing slack order, so urgent packets meet
deadlines that FIFO misses.
"""

from __future__ import annotations

import random

from conftest import report

from repro.algorithms import FIFOTransaction, LSTFTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.sim import OutputPort, PacketSource, Simulator

LINK_RATE = 10e6  # deliberately slow so queues build
DURATION = 0.2


def make_arrivals(seed=0):
    """A congested mix: many relaxed packets and a few urgent ones."""
    rng = random.Random(seed)
    arrivals = []
    time = 0.0
    for index in range(200):
        time += rng.expovariate(2000.0)  # ~2000 pkt/s offered vs ~833 pkt/s capacity
        urgent = index % 10 == 0
        slack = 0.02 if urgent else 0.5
        arrivals.append(
            (time, Packet(flow="urgent" if urgent else "bulk", length=600,
                          fields={"slack": slack}))
        )
    return arrivals


def run_with(transaction_factory, seed=0):
    sim = Simulator()
    scheduler = ProgrammableScheduler(single_node_tree(transaction_factory()))
    port = OutputPort(sim, scheduler, rate_bps=LINK_RATE)
    PacketSource(sim, port, make_arrivals(seed))
    sim.run(until=DURATION)
    urgent_delays = [p.total_delay for p in port.sink.packets if p.flow == "urgent"]
    bulk_delays = [p.total_delay for p in port.sink.packets if p.flow == "bulk"]
    return urgent_delays, bulk_delays


def test_fig6_lstf_prioritises_low_slack_packets():
    def run_both():
        return run_with(LSTFTransaction), run_with(FIFOTransaction)

    (lstf_urgent, lstf_bulk), (fifo_urgent, fifo_bulk) = run_both()
    lstf_max = max(lstf_urgent)
    fifo_max = max(fifo_urgent)
    report(
        "Figure 6: urgent-packet delay, LSTF vs FIFO (slack budget 20 ms)",
        [
            {"scheduler": "LSTF", "max_urgent_delay_ms": lstf_max * 1e3,
             "mean_bulk_delay_ms": 1e3 * sum(lstf_bulk) / len(lstf_bulk)},
            {"scheduler": "FIFO", "max_urgent_delay_ms": fifo_max * 1e3,
             "mean_bulk_delay_ms": 1e3 * sum(fifo_bulk) / len(fifo_bulk)},
        ],
    )
    # LSTF keeps urgent packets within their slack budget; FIFO does not.
    assert lstf_max <= 0.02
    assert fifo_max > lstf_max
    assert len(lstf_urgent) == len(fifo_urgent)


def test_fig6_slack_ordering_is_exact_at_a_single_queue():
    def departure_slacks():
        scheduler = ProgrammableScheduler(single_node_tree(LSTFTransaction()))
        rng = random.Random(3)
        for _ in range(300):
            scheduler.enqueue(
                Packet(flow="x", length=100, fields={"slack": rng.uniform(0, 1)})
            )
        return [p.get("slack") for p in scheduler.drain()]

    slacks = departure_slacks()
    assert slacks == sorted(slacks)
