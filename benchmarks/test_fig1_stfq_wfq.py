"""Figure 1 / Section 2.1 — STFQ programmed on a PIFO gives weighted fair
queueing.

Regenerates: per-flow bandwidth shares of backlogged flows with unequal
weights, compared against the exact weighted allocation and the GPS fluid
reference.  Paper claim: the STFQ scheduling transaction realises WFQ on a
single PIFO.
"""

from __future__ import annotations

from conftest import measured_shares, report, run_overload_experiment

from repro.algorithms import build_wfq_tree
from repro.baselines import DeficitRoundRobin
from repro.metrics import expected_weighted_shares, max_share_error, weighted_jain_index

WEIGHTS = {"w1": 1.0, "w2": 2.0, "w4": 4.0, "w8": 8.0}
LINK_RATE = 100e6
DURATION = 0.05


def run_stfq():
    tree = build_wfq_tree(WEIGHTS)
    return run_overload_experiment(
        tree, {flow: LINK_RATE for flow in WEIGHTS}, LINK_RATE, DURATION
    )


def test_fig1_stfq_weighted_shares():
    port = run_stfq()
    shares = measured_shares(port, list(WEIGHTS), start=0.01, end=DURATION)
    expected = expected_weighted_shares(WEIGHTS)
    report(
        "Figure 1: STFQ-on-PIFO weighted fair shares",
        [
            {
                "flow": flow,
                "weight": WEIGHTS[flow],
                "expected_share": expected[flow],
                "measured_share": shares[flow],
            }
            for flow in WEIGHTS
        ],
    )
    assert max_share_error(shares, expected) < 0.03
    assert weighted_jain_index(shares, WEIGHTS) > 0.99
    # The port must stay work conserving: the link is saturated.
    assert port.utilization > 0.95


def test_fig1_stfq_vs_drr_baseline():
    """STFQ and the switch-standard DRR approximation agree on long-run
    shares; STFQ is smoother packet by packet (smaller max share error)."""
    def run_both():
        stfq_port = run_stfq()
        drr_port = run_overload_experiment(
            None,
            {flow: LINK_RATE for flow in WEIGHTS},
            LINK_RATE,
            DURATION,
            scheduler=DeficitRoundRobin(weights=WEIGHTS, quantum_bytes=1500),
        )
        return stfq_port, drr_port

    stfq_port, drr_port = run_both()
    expected = expected_weighted_shares(WEIGHTS)
    stfq_error = max_share_error(
        measured_shares(stfq_port, list(WEIGHTS), 0.01, DURATION), expected
    )
    drr_error = max_share_error(
        measured_shares(drr_port, list(WEIGHTS), 0.01, DURATION), expected
    )
    report(
        "Figure 1: STFQ vs DRR share error",
        [
            {"scheduler": "STFQ on PIFO", "max_share_error": stfq_error},
            {"scheduler": "DRR baseline", "max_share_error": drr_error},
        ],
    )
    assert stfq_error < 0.03
    assert drr_error < 0.08
