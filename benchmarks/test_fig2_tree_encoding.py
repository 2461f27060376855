"""Figure 2 — a tree of PIFOs encodes the instantaneous scheduling order.

Regenerates: the P3, P1, P2, P4 example of Figure 2 and measures the cost of
encoding/decoding scheduling order through a two-level PIFO tree at scale.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import build_fig3_tree
from repro.core import PIFO, Packet, ProgrammableScheduler


def figure2_order():
    root, left, right = PIFO(name="root"), PIFO(name="L"), PIFO(name="R")
    for index, child in enumerate(["L", "R", "R", "L"]):
        root.push(child, rank=index)
    left.push("P3", 0)
    left.push("P4", 1)
    right.push("P1", 0)
    right.push("P2", 1)
    order = []
    while root:
        child = root.pop()
        order.append(left.pop() if child == "L" else right.pop())
    return order


def test_fig2_instantaneous_order():
    order = figure2_order()
    report("Figure 2: PIFO-tree order encoding",
           [{"paper_order": "P3, P1, P2, P4", "measured_order": ", ".join(order)}])
    assert order == ["P3", "P1", "P2", "P4"]


def test_fig2_tree_walk_throughput():
    """Every packet makes it through the enqueue path (leaf-to-root
    transactions) and the dequeue path (root-to-leaf reference walk) of a
    two-level tree."""
    packets = [Packet(flow=flow, length=1000) for flow in "ABCD" for _ in range(250)]

    def enqueue_dequeue_all():
        scheduler = ProgrammableScheduler(build_fig3_tree())
        for packet in packets:
            scheduler.enqueue(packet)
        return len(scheduler.drain())

    count = enqueue_dequeue_all()
    assert count == 1000
