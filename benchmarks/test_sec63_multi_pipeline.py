"""Section 6.3 — multi-pipeline switches sharing one scheduler subsystem.

The paper argues the PIFO block extends to switches whose aggregate packet
rate exceeds one pipeline's billion packets/s (e.g. a 3.2 Tbit/s Tomahawk
needs ~6 ingress and ~6 egress pipelines).  This experiment offers each
block a Tomahawk-class load and sweeps the number of ports the block
exposes: with one enqueue/dequeue per cycle most scheduler slots are lost,
and the loss disappears once the block provides as many ports as pipelines.
"""

from __future__ import annotations

import random

from conftest import report

from repro.extensions import MultiPipelineBlock, PipelinePortConfig, required_pipelines

AGGREGATE_CAPACITY_BPS = 3.2e12
CYCLES = 2_000
FLOWS = 64


def _offered_load(pipelines_needed: int, seed: int = 1):
    """Per-cycle enqueue requests for a switch needing ``pipelines_needed``
    ingress pipelines (one minimum-size packet per pipeline per cycle)."""
    rng = random.Random(seed)
    load = []
    for cycle in range(1, CYCLES + 1):
        requests = [
            (f"f{rng.randrange(FLOWS)}", float(cycle) + i * 1e-3)
            for i in range(pipelines_needed)
        ]
        load.append((cycle, requests))
    return load


def test_sec63_scheduler_slots_vs_port_count():
    pipelines_needed = required_pipelines(AGGREGATE_CAPACITY_BPS)
    offered = _offered_load(pipelines_needed)

    def run():
        results = {}
        for ports in (1, 2, 4, pipelines_needed):
            block = MultiPipelineBlock(
                ports=PipelinePortConfig(ports, ports),
                strict=True,
                rank_store_capacity=CYCLES * pipelines_needed + 1,
            )
            for cycle, requests in offered:
                for index, (flow, rank) in enumerate(requests):
                    block.enqueue(0, rank=rank, flow=flow, cycle=cycle,
                                  pipeline=index % ports)
            results[ports] = block.stats.enqueue_loss_fraction
        return results

    loss_by_ports = run()
    report(
        "Section 6.3: scheduler-slot loss vs block port count "
        f"(offered load = {pipelines_needed} enqueues/cycle)",
        [
            {"block_ports": ports, "enqueue_loss_fraction": loss,
             "sufficient": loss == 0.0}
            for ports, loss in sorted(loss_by_ports.items())
        ],
    )
    # One port loses most slots at Tomahawk-class load; provisioning as many
    # ports as pipelines removes the loss entirely, as Section 6.3 claims.
    assert loss_by_ports[1] > 0.5
    assert loss_by_ports[pipelines_needed] == 0.0
    assert loss_by_ports[4] <= loss_by_ports[2] <= loss_by_ports[1]
