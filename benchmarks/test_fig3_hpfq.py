"""Figure 3 / Section 2.2 — Hierarchical Packet Fair Queueing on a PIFO tree.

Regenerates: the class- and flow-level bandwidth split of the Figure 3a
hierarchy (Left:Right = 1:9, A:B = 3:7, C:D = 4:6) under full overload, and
compares against the hierarchical-DRR baseline.
"""

from __future__ import annotations

from conftest import measured_shares, report, run_overload_experiment

from repro.algorithms import build_fig3_tree
from repro.baselines import HierarchicalDRR
from repro.metrics import max_share_error

LINK_RATE = 100e6
DURATION = 0.05
EXPECTED = {"A": 0.03, "B": 0.07, "C": 0.36, "D": 0.54}


def run_hpfq():
    return run_overload_experiment(
        build_fig3_tree(), {flow: LINK_RATE for flow in "ABCD"}, LINK_RATE, DURATION
    )


def test_fig3_hpfq_hierarchy_shares():
    port = run_hpfq()
    shares = measured_shares(port, list("ABCD"), start=0.01, end=DURATION)
    report(
        "Figure 3: HPFQ per-flow shares (weights 1:9, 3:7, 4:6)",
        [
            {"flow": flow, "expected": EXPECTED[flow], "measured": shares[flow]}
            for flow in "ABCD"
        ],
    )
    assert max_share_error(shares, EXPECTED) < 0.03
    left = shares["A"] + shares["B"]
    right = shares["C"] + shares["D"]
    assert abs(left - 0.1) < 0.02
    assert abs(right - 0.9) < 0.02


def test_fig3_hpfq_matches_hierarchical_drr_baseline():
    def run_baseline():
        hdrr = HierarchicalDRR(
            class_weights={"Left": 1.0, "Right": 9.0},
            class_flows={"Left": {"A": 3.0, "B": 7.0}, "Right": {"C": 4.0, "D": 6.0}},
        )
        return run_overload_experiment(
            None, {flow: LINK_RATE for flow in "ABCD"}, LINK_RATE, DURATION,
            scheduler=hdrr,
        )

    baseline_port = run_baseline()
    baseline_shares = measured_shares(baseline_port, list("ABCD"), 0.01, DURATION)
    report(
        "Figure 3: hierarchical DRR baseline shares",
        [
            {"flow": flow, "expected": EXPECTED[flow], "measured": baseline_shares[flow]}
            for flow in "ABCD"
        ],
    )
    assert max_share_error(baseline_shares, EXPECTED) < 0.06


def test_fig3_partial_backlog_redistributes_within_class():
    """When flow C goes idle, its share goes to D (same class), not to Left:
    the defining isolation property of hierarchical fair queueing."""
    def run_partial():
        rates = {"A": LINK_RATE, "B": LINK_RATE, "C": 0.0, "D": LINK_RATE}
        return run_overload_experiment(build_fig3_tree(), rates, LINK_RATE, DURATION)

    port = run_partial()
    shares = measured_shares(port, list("ABCD"), start=0.01, end=DURATION)
    report(
        "Figure 3: shares with flow C idle",
        [{"flow": flow, "measured": shares[flow]} for flow in "ABCD"],
    )
    assert shares["C"] == 0.0
    assert abs(shares["D"] - 0.9) < 0.03
    assert abs((shares["A"] + shares["B"]) - 0.1) < 0.03
