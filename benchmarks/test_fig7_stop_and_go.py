"""Figure 7 / Section 3.2 — Stop-and-Go queueing.

Regenerates: per-packet delay bound and burst smoothing under a framing
shaping transaction.  Paper claim: every packet departs at the end of its
arrival frame, so per-hop delay is bounded by 2T and bursts are smoothed.
"""

from __future__ import annotations

from conftest import report

from repro.algorithms import (
    FIFOTransaction,
    StopAndGoShapingTransaction,
    worst_case_delay_bound,
)
from repro.core import MatchAll, Packet, ProgrammableScheduler, ScheduleTree, TreeNode
from repro.metrics import windowed_rates
from repro.sim import OutputPort, PacketSource, Simulator
from repro.traffic import FlowSpec, onoff_arrivals

FRAME = 0.010
LINK_RATE = 100e6
DURATION = 0.5


def build_tree():
    root = TreeNode(name="Root", scheduling=FIFOTransaction())
    root.add_child(
        TreeNode(
            name="Framed",
            predicate=MatchAll(),
            scheduling=FIFOTransaction(),
            shaping=StopAndGoShapingTransaction(frame_length=FRAME),
        )
    )
    return ScheduleTree(root)


def run_stop_and_go():
    sim = Simulator()
    port = OutputPort(sim, ProgrammableScheduler(build_tree()), rate_bps=LINK_RATE)
    spec = FlowSpec(name="bursty", rate_bps=40e6, packet_size=1500)
    PacketSource(sim, port,
                 onoff_arrivals(spec, duration=DURATION, mean_on_s=0.005,
                                mean_off_s=0.02, seed=11))
    sim.run(until=DURATION)
    return port


def test_fig7_per_hop_delay_bounded_by_two_frames():
    port = run_stop_and_go()
    delays = [p.total_delay for p in port.sink.packets]
    bound = worst_case_delay_bound(FRAME) + 1500 * 8 / LINK_RATE
    report(
        "Figure 7: Stop-and-Go delay (frame T = 10 ms)",
        [
            {
                "packets": len(delays),
                "max_delay_ms": max(delays) * 1e3,
                "bound_2T_ms": worst_case_delay_bound(FRAME) * 1e3,
            }
        ],
    )
    assert delays, "expected traffic to be delivered"
    assert max(delays) <= bound
    # Non-work-conserving: minimum delay is not ~0; packets wait for frames.
    assert min(delays) > 0.0


def test_fig7_departures_confined_to_the_next_frame():
    """The framing property behind Stop-and-Go's smoothness guarantee: every
    packet arriving during frame k becomes eligible exactly at the start of
    frame k+1 and is transmitted within that frame, so per-frame output never
    mixes traffic from different arrival frames."""
    port = run_stop_and_go()
    serialization = 1500 * 8 / LINK_RATE
    frame_slack = 0
    for packet in port.sink.packets:
        arrival_frame = int(packet.arrival_time / FRAME)
        eligible = (arrival_frame + 1) * FRAME
        assert packet.departure_time >= eligible - 1e-9
        # Transmission completes within the next frame (with a little slack
        # for packets queued behind others of the same frame).
        if packet.departure_time > eligible + FRAME:
            frame_slack += 1
    departure_samples = windowed_rates(port.sink.packets, window_s=FRAME)
    busy_frames = sum(1 for s in departure_samples if s.bits > 0)
    report(
        "Figure 7: framing discipline",
        [
            {
                "packets": len(port.sink.packets),
                "late_beyond_next_frame": frame_slack,
                "busy_output_frames": busy_frames,
            }
        ],
    )
    # At 40 Mbit/s offered vs 100 Mbit/s line rate a frame's worth of traffic
    # always fits in the following frame.
    assert frame_slack == 0
