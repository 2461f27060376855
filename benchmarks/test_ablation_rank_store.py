"""Ablation (Section 5.2) — flow scheduler + rank store vs a flat sorted
array.

The paper rejects the naive design (sort all ~60 K buffered packets) because
it needs one comparator per packet; the chosen design sorts only the ~1 K
flow heads.  This ablation quantifies both the hardware argument (parallel
comparators required) and the software analogue (Python insert cost scaling
with sorted-structure size).
"""

from __future__ import annotations

import random

from conftest import report

from repro.core import PIFO
from repro.hardware import FlowSchedulerDesign, PIFOBlock, flat_sorted_array_comparisons

BUFFERED_PACKETS = 60_000
FLOWS = 1_000


def test_ablation_comparator_requirements():
    def compute():
        flat = flat_sorted_array_comparisons(BUFFERED_PACKETS)
        decomposed = FlowSchedulerDesign(num_flows=1024).num_flows
        return flat, decomposed

    flat, decomposed = compute()
    report(
        "Ablation: parallel comparators required",
        [
            {"design": "flat sorted array (all packets)", "comparators": flat,
             "feasible_at_1GHz": False},
            {"design": "flow scheduler + rank store", "comparators": decomposed,
             "feasible_at_1GHz": True},
        ],
    )
    assert flat / decomposed >= 50


def test_ablation_sorted_structure_size():
    """With 60 K packets over 1 K flows, the flow scheduler holds at most one
    entry per flow while the flat PIFO holds every packet."""
    def run(packets=20_000, flows=FLOWS):
        rng = random.Random(0)
        flat = PIFO()
        block = PIFOBlock(capacity_flows=flows, rank_store_capacity=packets)
        virtual_time = 0.0
        for i in range(packets):
            flow = f"f{rng.randrange(flows)}"
            virtual_time += 1.0
            flat.push((flow, i), virtual_time)
            block.enqueue(0, rank=virtual_time, flow=flow, metadata=i)
        return len(flat), len(block.flow_scheduler), len(block.rank_store)

    flat_size, heads, stored = run()
    report(
        "Ablation: sorted-structure occupancy (20 K packets, 1 K flows)",
        [
            {"design": "flat PIFO", "sorted_entries": flat_size, "fifo_entries": 0},
            {"design": "flow scheduler + rank store", "sorted_entries": heads,
             "fifo_entries": stored},
        ],
    )
    assert flat_size == 20_000
    assert heads <= FLOWS
    assert heads + stored == 20_000
