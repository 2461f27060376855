"""Ablation (Section 3.5, "Output rate limiting") — input-side vs output-side
rate limiting.

The PIFO shaping transaction limits on the input side: once elements have
been released into the shared scheduling PIFO they can drain at line rate.
The paper describes the resulting transient: if a higher-priority class
starves the shaped class for a while, the released-but-unsent backlog later
leaves in a line-rate burst.  An output-side token bucket does not have this
transient.  This benchmark reproduces exactly that contrast.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import (
    ClassPriorityTransaction,
    FIFOTransaction,
    TokenBucketShapingTransaction,
)
from repro.baselines import OutputTokenBucketShaper
from repro.core import FlowIn, ProgrammableScheduler, ScheduleTree, TreeNode
from repro.metrics import max_windowed_rate_bps
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import FlowSpec, cbr_arrivals, merge_arrivals

LINK_RATE = 100e6
SHAPED_RATE = 10e6
DURATION = 0.4
STARVE_UNTIL = 0.2


def build_input_shaped_tree():
    """Strict priority between 'high' and rate-limited 'low' using the PIFO
    shaping transaction (input-side limiting)."""
    root = TreeNode(
        name="Root",
        scheduling=ClassPriorityTransaction({"high": 0, "low": 1}),
    )
    root.add_child(
        TreeNode(name="high", predicate=FlowIn(["high"]), scheduling=FIFOTransaction())
    )
    root.add_child(
        TreeNode(
            name="low",
            predicate=FlowIn(["low"]),
            scheduling=FIFOTransaction(),
            shaping=TokenBucketShapingTransaction(rate_bps=SHAPED_RATE,
                                                  burst_bytes=3000),
        )
    )
    return ScheduleTree(root)


def workload(duration):
    low = cbr_arrivals(FlowSpec(name="low", rate_bps=30e6, packet_size=1500), duration)
    # The high-priority class saturates the link until STARVE_UNTIL.
    high = cbr_arrivals(
        FlowSpec(name="high", rate_bps=LINK_RATE, packet_size=1500,
                 end_time=STARVE_UNTIL),
        duration,
    )
    return merge_arrivals(low, high)


def run_input_side():
    sim = Simulator()
    port = OutputPort(sim, ProgrammableScheduler(build_input_shaped_tree()),
                      rate_bps=LINK_RATE)
    PacketSource(sim, port, workload(DURATION))
    sim.run(until=DURATION)
    return port


def run_output_side():
    """Same workload where the low class goes through a classic output-side
    token-bucket shaper on its own queue (high bypasses on a separate port
    feeding the same measurement, approximating an egress shaper)."""
    sim = Simulator()
    shaper_port = OutputPort(
        sim, OutputTokenBucketShaper(rate_bps=SHAPED_RATE, burst_bytes=3000),
        rate_bps=LINK_RATE,
    )
    low = cbr_arrivals(FlowSpec(name="low", rate_bps=30e6, packet_size=1500), DURATION)
    PacketSource(sim, shaper_port, low)
    sim.run(until=DURATION)
    return shaper_port


def test_ablation_input_side_bursts_after_starvation():
    def run_both():
        return run_input_side(), run_output_side()

    input_port, output_port = run_both()
    window = 0.01
    input_peak = max_windowed_rate_bps(
        [p for p in input_port.sink.packets if p.flow == "low"],
        window_s=window, skip_first_windows=1,
    )
    output_peak = max_windowed_rate_bps(
        output_port.sink.packets, window_s=window, skip_first_windows=1
    )
    input_mean = input_port.sink.throughput_bps(flow="low", start=0.02, end=DURATION)
    report(
        "Ablation: input-side (PIFO shaping txn) vs output-side rate limiting",
        [
            {"design": "input-side shaping", "peak_10ms_Mbps": input_peak / 1e6,
             "long_run_Mbps": input_mean / 1e6},
            {"design": "output-side token bucket", "peak_10ms_Mbps": output_peak / 1e6,
             "long_run_Mbps": output_port.sink.throughput_bps(start=0.02, end=DURATION) / 1e6},
        ],
    )
    # Long-term both respect the 10 Mbit/s limit...
    assert input_mean <= SHAPED_RATE * 1.3
    # ...but after the starvation period the input-side design briefly sends
    # the released backlog well above the rate limit, while the output-side
    # shaper never exceeds it by more than one burst.
    assert input_peak > SHAPED_RATE * 2
    assert output_peak <= SHAPED_RATE * 1.5
