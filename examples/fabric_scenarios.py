"""Network-fabric tour: topologies, routing, and declarative scenarios.

Three stops:

1. run the built-in ``fig6_chain`` scenario (LSTF vs per-hop FIFO on a
   3-switch chain) and print the urgent-packet verdict;
2. build a custom dumbbell scenario from scratch — topology builder,
   traffic matrix, one scheduler variant per contender — and run it;
3. peek under the hood: route a single packet across a leaf-spine fabric
   and print its per-hop delay decomposition.

Run with::

    python examples/fabric_scenarios.py
"""

from __future__ import annotations

from repro.algorithms import FIFOTransaction, SRPTTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.net import (
    Demand,
    Fabric,
    Scenario,
    dumbbell,
    get_scenario,
    leaf_spine,
)
from repro.sim import Simulator


def transaction_factory(transaction_class, pifo_backend=None):
    def factory(switch, port):
        return ProgrammableScheduler(single_node_tree(transaction_class()),
                                     pifo_backend=pifo_backend)

    return factory


def single_node_variant(transaction_class):
    """A scenario variant:
    ``(lang_backend, pifo_backend) -> (switch, port) -> scheduler``.

    This example ignores the lang back end; a scenario swept over it would
    pass it to the program factories in :mod:`repro.lang.programs`.
    """
    return lambda lang_backend, pifo_backend: transaction_factory(
        transaction_class, pifo_backend)


def stop1_builtin_scenario() -> None:
    print("== 1. Built-in scenario: LSTF vs per-hop FIFO on a chain ==")
    scenario = get_scenario("fig6_chain")
    for label, result in scenario.run(quick=True).items():
        urgent = result.flow_stats["urgent"]
        verdict = "meets" if urgent["max_delay"] <= 0.02 else "MISSES"
        print(
            f"  {label:<5} max urgent delay "
            f"{urgent['max_delay'] * 1e3:6.2f} ms -> {verdict} the 20 ms budget"
        )


def stop2_custom_scenario() -> None:
    print("\n== 2. Custom dumbbell: SRPT vs FIFO over one bottleneck ==")
    scenario = Scenario(
        name="dumbbell_fct",
        title="SRPT vs FIFO on a dumbbell bottleneck",
        topology=lambda: dumbbell(hosts_per_side=2, access_rate_bps=1e9,
                                  bottleneck_rate_bps=0.5e9),
        demands=[
            Demand(src="l0", dst="r0", kind="flows", rate_bps=0.35e9, seed=1),
            Demand(src="l1", dst="r1", kind="flows", rate_bps=0.35e9, seed=2),
        ],
        variants={
            "SRPT": single_node_variant(SRPTTransaction),
            "FIFO": single_node_variant(FIFOTransaction),
        },
        duration=0.1,
        keep_packets=False,
    )
    for label, result in scenario.run().items():
        fct = result.fct
        print(
            f"  {label:<5} {fct.count} flows, mean FCT {fct.mean * 1e3:6.2f} ms,"
            f" p99 {fct.p99 * 1e3:7.2f} ms"
        )


def stop3_per_hop_decomposition() -> None:
    print("\n== 3. One packet across a leaf-spine fabric, hop by hop ==")
    sim = Simulator()
    net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1,
                     host_rate_bps=1e9, propagation_delay=2e-6)
    fabric = Fabric(sim, net, transaction_factory(FIFOTransaction))
    packet = Packet(flow="probe", length=1500, dst="h1_0")
    fabric.attach_source("h0_0", [(0.0, packet)])
    fabric.run(drain=True)
    for node, delay in packet.per_hop_delays().items():
        print(f"  {node:<8} {delay * 1e6:8.2f} us")
    print(f"  end-to-end (incl. wires): {packet.end_to_end_delay * 1e6:8.2f} us")


if __name__ == "__main__":
    stop1_builtin_scenario()
    stop2_custom_scenario()
    stop3_per_hop_decomposition()
