"""Figure 8 / Section 3.3 — minimum rate guarantees.

Regenerates: throughput of a flow with a 20 Mbit/s guarantee while an
aggressive best-effort flow overloads the port, plus the collapsed-tree
ablation showing why the two-level tree is required (intra-flow ordering).
"""

from __future__ import annotations

from conftest import report, run_overload_experiment

from repro.algorithms import build_collapsed_min_rate_tree, build_min_rate_tree
from repro.core import Packet, ProgrammableScheduler

LINK_RATE = 50e6
GUARANTEE = 20e6
DURATION = 0.1


def run_min_rate(guaranteed_offered_bps=25e6, bulk_offered_bps=100e6):
    tree = build_min_rate_tree(
        ["guaranteed", "bulk"], {"guaranteed": GUARANTEE}, burst_bytes=6000
    )
    return run_overload_experiment(
        tree,
        {"guaranteed": guaranteed_offered_bps, "bulk": bulk_offered_bps},
        LINK_RATE,
        DURATION,
    )


def test_fig8_guaranteed_flow_receives_its_minimum_rate():
    port = run_min_rate()
    guaranteed_rate = port.sink.throughput_bps(flow="guaranteed", start=0.02, end=DURATION)
    bulk_rate = port.sink.throughput_bps(flow="bulk", start=0.02, end=DURATION)
    report(
        "Figure 8: min-rate guarantee under overload (guarantee = 20 Mbit/s)",
        [
            {"flow": "guaranteed", "offered_Mbps": 25, "measured_Mbps": guaranteed_rate / 1e6},
            {"flow": "bulk", "offered_Mbps": 100, "measured_Mbps": bulk_rate / 1e6},
        ],
    )
    assert guaranteed_rate >= GUARANTEE * 0.9
    # The port stays fully used: bulk soaks up the rest.
    assert guaranteed_rate + bulk_rate >= LINK_RATE * 0.95


def test_fig8_guarantee_inactive_when_flow_sends_little():
    """A guaranteed flow offering less than its guarantee simply gets what it
    offers; the guarantee is a floor, not a reservation."""
    port = run_min_rate(guaranteed_offered_bps=5e6)
    guaranteed_rate = port.sink.throughput_bps(flow="guaranteed", start=0.02, end=DURATION)
    report("Figure 8: under-offering flow",
           [{"offered_Mbps": 5, "measured_Mbps": guaranteed_rate / 1e6}])
    assert guaranteed_rate <= 6e6
    assert guaranteed_rate >= 4e6


def test_fig8_ablation_collapsed_tree_reorders_flow():
    """Section 3.3's argument for the 2-level tree: collapsing it into a
    single transaction reorders packets within a flow, the 2-level tree does
    not."""
    def run_ablation():
        def departure_tags(tree):
            scheduler = ProgrammableScheduler(tree)
            for i in range(3):
                scheduler.enqueue(Packet(flow="f", length=1400, fields={"i": i}), now=0.0)
            scheduler.enqueue(Packet(flow="f", length=1400, fields={"i": 3}), now=1.0)
            return [p.get("i") for p in scheduler.drain(now=1.0)]

        collapsed = departure_tags(build_collapsed_min_rate_tree({"f": 8e6},
                                                                 burst_bytes=1500))
        two_level = departure_tags(build_min_rate_tree(["f"], {"f": 8e6},
                                                       burst_bytes=1500))
        return collapsed, two_level

    collapsed, two_level = run_ablation()
    report(
        "Figure 8 ablation: intra-flow departure order",
        [
            {"variant": "collapsed single node", "order": collapsed,
             "in_order": collapsed == sorted(collapsed)},
            {"variant": "two-level tree", "order": two_level,
             "in_order": two_level == sorted(two_level)},
        ],
    )
    assert two_level == sorted(two_level)
    assert collapsed != sorted(collapsed)
