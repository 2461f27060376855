"""Figure 4 / Section 2.3 — Hierarchies with Shaping.

Regenerates: throughput of the Right class as offered load increases.  Paper
claim: the token-bucket shaping transaction caps Right at 10 Mbit/s
regardless of offered load, while Left remains work conserving.
"""

from __future__ import annotations

from conftest import report, run_overload_experiment

from repro.algorithms import FIG4_RIGHT_RATE_BPS, build_fig4_tree
from repro.metrics import max_windowed_rate_bps

LINK_RATE = 100e6
DURATION = 0.1
OFFERED_LOADS = (5e6, 20e6, 50e6)


def right_class_rate(offered_per_flow_bps):
    port = run_overload_experiment(
        build_fig4_tree(),
        {"A": 30e6, "B": 30e6, "C": offered_per_flow_bps, "D": offered_per_flow_bps},
        LINK_RATE,
        DURATION,
    )
    sustained = port.sink.throughput_bps(start=0.02, end=DURATION)
    right = sum(
        port.sink.throughput_bps(flow=f, start=0.02, end=DURATION) for f in "CD"
    )
    left = sum(
        port.sink.throughput_bps(flow=f, start=0.02, end=DURATION) for f in "AB"
    )
    peak_right = max_windowed_rate_bps(
        port.sink.packets, window_s=0.02, flows=["C", "D"], skip_first_windows=1
    )
    return {"total": sustained, "right": right, "left": left, "right_peak": peak_right}


def test_fig4_right_class_capped_regardless_of_load():
    def sweep():
        return {load: right_class_rate(load) for load in OFFERED_LOADS}

    results = sweep()
    report(
        "Figure 4: Right-class throughput vs offered load (cap = 10 Mbit/s)",
        [
            {
                "offered_per_flow_Mbps": load / 1e6,
                "right_Mbps": results[load]["right"] / 1e6,
                "right_peak_Mbps": results[load]["right_peak"] / 1e6,
                "left_Mbps": results[load]["left"] / 1e6,
            }
            for load in OFFERED_LOADS
        ],
    )
    for load in OFFERED_LOADS:
        measured = results[load]
        if 2 * load <= FIG4_RIGHT_RATE_BPS:
            # Below the cap the Right class gets what it asks for.
            assert measured["right"] >= 2 * load * 0.9
        else:
            # Above the cap it is pinned at ~10 Mbit/s.
            assert measured["right"] <= FIG4_RIGHT_RATE_BPS * 1.15
            assert measured["right"] >= FIG4_RIGHT_RATE_BPS * 0.7
        # Left class is never starved by the shaper.
        assert measured["left"] >= 55e6


def test_fig4_left_class_absorbs_unused_capacity():
    result = right_class_rate(50e6)
    report(
        "Figure 4: work conservation for the unshaped class",
        [{"left_Mbps": result["left"] / 1e6, "right_Mbps": result["right"] / 1e6}],
    )
    # Left offered 60 Mbit/s and Right is capped, so Left should get ~60.
    assert result["left"] >= 55e6
