"""Section 3.5 — limitations of the PIFO abstraction.

Regenerates: the pFabric counter-example (a single PIFO cannot reorder a
flow's already-buffered packets) and the output-rate-limiting transient.
The point of this benchmark is to confirm the *negative* result: the
reproduction exhibits exactly the gap the paper describes.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import SRPTTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree

PFABRIC_ARRIVALS = [("p0", 7), ("p1", 9), ("p1", 8), ("p1", 6)]
PFABRIC_DESIRED = ["p1(9)", "p1(8)", "p1(6)", "p0(7)"]


def run_pfabric_example():
    scheduler = ProgrammableScheduler(single_node_tree(SRPTTransaction()))
    for flow, remaining in PFABRIC_ARRIVALS:
        scheduler.enqueue(
            Packet(flow=flow, length=100,
                   fields={"remaining_size": remaining,
                           "label": f"{flow}({remaining})"})
        )
    return [p.get("label") for p in scheduler.drain()]


def test_sec35_single_pifo_cannot_express_pfabric():
    pifo_order = run_pfabric_example()
    report(
        "Section 3.5: pFabric ordering vs what one PIFO can do",
        [
            {"schedule": "pFabric (desired)", "order": ", ".join(PFABRIC_DESIRED)},
            {"schedule": "SRPT on one PIFO", "order": ", ".join(pifo_order)},
        ],
    )
    assert pifo_order != PFABRIC_DESIRED
    # The already-buffered packets p1(9), p1(8) keep their relative order and
    # their position relative to p0(7); only the new arrival p1(6) chose its
    # own slot.
    assert pifo_order.index("p0(7)") < pifo_order.index("p1(8)")
    assert pifo_order.index("p1(8)") < pifo_order.index("p1(9)")
    assert pifo_order[0] == "p1(6)"


def test_sec35_buffered_elements_order_is_immutable():
    """Arrivals never change the relative order of elements already in a
    PIFO, measured over a large random workload."""
    import random

    def check(seed=0, operations=2000):
        from repro.core import PIFO

        rng = random.Random(seed)
        pifo = PIFO()
        violations = 0
        for op_index in range(operations):
            snapshot = [id(e) for e in pifo]
            buffered = set(snapshot)
            pifo.push(object(), rng.randint(0, 100))
            after = [id(e) for e in pifo]
            after_filtered = [e for e in after if e in buffered]
            if after_filtered != snapshot:
                violations += 1
            if op_index % 7 == 0 and pifo:
                pifo.pop()
        return violations

    violations = check()
    assert violations == 0
