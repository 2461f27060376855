"""End-to-end tests for the fabric: forwarding, hop stamps, per-port stats."""

from __future__ import annotations

import gc

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.exceptions import RoutingError
from repro.lang.trees import build_fig4_tree_from_programs
from repro.net import Fabric, Network, dumbbell, leaf_spine, linear_chain
from repro.obs import metrics
from repro.sim import Simulator


def fifo_factory(switch, port):
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


def make_chain_fabric(num_switches=2, **kwargs):
    sim = Simulator()
    net = linear_chain(num_switches, link_rate_bps=1e6, **kwargs)
    return sim, Fabric(sim, net, fifo_factory)


class TestForwarding:
    def test_single_packet_crosses_the_chain(self):
        sim, fabric = make_chain_fabric(2)
        packet = Packet(flow="f", length=1000, dst="h_dst")
        fabric.attach_source("h_src", [(0.0, packet)])
        fabric.run(drain=True)
        assert fabric.delivered_packets == 1
        sink = fabric.sink("h_dst")
        assert sink.total_packets() == 1
        assert packet.src == "h_src"
        # One hop record per traversed node: NIC + both switches.
        assert [hop[0] for hop in packet.hops] == ["h_src", "s1", "s2"]

    def test_end_to_end_delay_decomposes_into_hops(self):
        sim, fabric = make_chain_fabric(3)
        packet = Packet(flow="f", length=1000, dst="h_dst")
        fabric.attach_source("h_src", [(0.0, packet)])
        fabric.run(drain=True)
        per_hop = packet.per_hop_delays()
        assert set(per_hop) == {"h_src", "s1", "s2", "s3"}
        assert packet.end_to_end_delay == pytest.approx(sum(per_hop.values()))
        # 4 store-and-forward transmissions of 8000 bits at 1 Mbit/s.
        assert packet.end_to_end_delay == pytest.approx(4 * 8e-3)

    def test_propagation_delay_adds_wire_time_per_link(self):
        sim = Simulator()
        net = linear_chain(2, link_rate_bps=1e6, propagation_delay=1e-3)
        fabric = Fabric(sim, net, fifo_factory)
        packet = Packet(flow="f", length=1000, dst="h_dst")
        fabric.attach_source("h_src", [(0.0, packet)])
        fabric.run(drain=True)
        # 3 transmissions + 3 wires.
        assert packet.end_to_end_delay == pytest.approx(3 * 8e-3 + 3 * 1e-3)

    def test_queueing_delay_is_stamped_for_downstream_lstf(self):
        sim, fabric = make_chain_fabric(2)
        packets = [Packet(flow=f"f{i}", length=1000, dst="h_dst")
                   for i in range(3)]
        fabric.attach_source("h_src", [(0.0, p) for p in packets])
        fabric.run(drain=True)
        # The third packet queued behind two transmissions at the NIC and
        # carries the accumulated wait in prev_wait_time.
        assert packets[2].get("prev_wait_time") > 0

    def test_bidirectional_traffic(self):
        sim, fabric = make_chain_fabric(2)
        forward = Packet(flow="fwd", length=1000, dst="h_dst")
        backward = Packet(flow="rev", length=1000, dst="h_src")
        fabric.attach_source("h_src", [(0.0, forward)])
        fabric.attach_source("h_dst", [(0.0, backward)])
        fabric.run(drain=True)
        assert fabric.sink("h_dst").total_packets() == 1
        assert fabric.sink("h_src").total_packets() == 1

    def test_dumbbell_shares_bottleneck(self):
        sim = Simulator()
        net = dumbbell(hosts_per_side=2, access_rate_bps=10e6,
                       bottleneck_rate_bps=1e6)
        fabric = Fabric(sim, net, fifo_factory)
        for index, src in enumerate(("l0", "l1")):
            packets = [Packet(flow=src, length=1000, dst=f"r{index}")
                       for _ in range(5)]
            fabric.attach_source(src, [(0.0, p) for p in packets])
        fabric.run(drain=True)
        assert fabric.delivered_packets == 10
        stats = fabric.switch("s_left").stats
        assert stats.port("to_s_right").transmitted == 10


class TestECMP:
    def test_flows_spread_over_spines_deterministically(self):
        def run_once():
            sim = Simulator()
            net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1,
                             host_rate_bps=1e9)
            fabric = Fabric(sim, net, fifo_factory, ecmp=True)
            arrivals = [
                (0.0, Packet(flow=f"flow{i}", length=1000, dst="h1_0"))
                for i in range(32)
            ]
            fabric.attach_source("h0_0", arrivals)
            fabric.run(drain=True)
            stats = fabric.switch("leaf0").stats
            return {port: counters.transmitted
                    for port, counters in stats.per_port.items()}

        first, second = run_once(), run_once()
        # Stable CRC32 hashing: identical placement run to run, and both
        # spines carry some of the 32 flows.
        assert first == second
        assert first["to_spine0"] > 0
        assert first["to_spine1"] > 0

    def test_single_flow_never_splits(self):
        sim = Simulator()
        net = leaf_spine(leaves=2, spines=2, hosts_per_leaf=1)
        fabric = Fabric(sim, net, fifo_factory, ecmp=True)
        arrivals = [(0.0, Packet(flow="one", length=1000, dst="h1_0"))
                    for _ in range(16)]
        fabric.attach_source("h0_0", arrivals)
        fabric.run(drain=True)
        stats = fabric.switch("leaf0").stats
        used = [p for p, c in stats.per_port.items()
                if p.startswith("to_spine") and c.transmitted]
        assert len(used) == 1


class TestReinstallRoutes:
    """Rerouting a live fabric reaches the fused ingresses: every flow's
    memoised egress is forgotten, so no packet follows the old path."""

    @staticmethod
    def run(fused):
        sim = Simulator()
        fabric = Fabric(sim, leaf_spine(2, 2, 2, host_rate_bps=1e9),
                        fifo_factory, ecmp=True, telemetry=False,
                        fused_delivery=None if fused else False)
        assert (fabric.fused_ports > 0) == fused
        # Eight flows into h1_0, in bursts every 100 us that drain in
        # between: nothing is in flight when the routes change.
        for index, host in enumerate(("h0_0", "h0_1")):
            fabric.attach_source(host, [
                ((k + 0.5) * 1e-4,
                 Packet(flow=f"f{4 * index + i}", length=500, dst="h1_0"))
                for k in range(80) for i in range(4)])
        fabric.run(until=4e-3)
        assert fabric.conservation_check()["in_flight"] == 0
        port = fabric.switch("spine0").port("to_leaf1")
        before = port.transmitted_packets
        fabric.reinstall_routes(
            link_filter=lambda a, b: "spine0" not in (a, b))
        fabric.run(drain=True)
        departures = [(p.flow, p.departure_time)
                      for p in fabric.sink("h1_0").packets]
        return before, port.transmitted_packets - before, departures

    def test_reroute_clears_the_fused_target_caches(self):
        before, after, departures = self.run(fused=True)
        assert before > 0
        assert len(departures) == 640
        assert (before, after, departures) == self.run(fused=False)
        assert after == 0


class TestRoutingErrors:
    def test_packet_without_dst_is_rejected(self):
        sim, fabric = make_chain_fabric(2)
        with pytest.raises(RoutingError):
            fabric.inject("h_src", Packet(flow="f", length=100))

    def test_packet_to_self_is_rejected(self):
        sim, fabric = make_chain_fabric(2)
        with pytest.raises(RoutingError):
            fabric.inject("h_src", Packet(flow="f", length=100, dst="h_src"))


class TestDrainSemantics:
    def test_drain_flushes_in_flight_without_replaying_sources(self):
        sim, fabric = make_chain_fabric(2)
        # One packet every ms for a full second; we stop at 2.5 ms.
        arrivals = ((i * 1e-3, Packet(flow="f", length=500, dst="h_dst"))
                    for i in range(1000))
        fabric.attach_source("h_src", arrivals)
        now = fabric.run(until=2.5e-3, drain=True)
        # Arrivals at 0/1/2 ms were injected; the rest were discarded, not
        # replayed to exhaustion.
        assert fabric.injected_packets == 3
        assert fabric.conservation_check()["in_flight"] == 0
        assert now < 0.1

    def test_unbounded_source_terminates_under_drain(self):
        import itertools

        sim, fabric = make_chain_fabric(2)
        arrivals = ((i * 1e-3, Packet(flow="f", length=500, dst="h_dst"))
                    for i in itertools.count())
        fabric.attach_source("h_src", arrivals)
        fabric.run(until=5e-3, drain=True)
        assert fabric.conservation_check()["in_flight"] == 0


class TestDrainTail:
    """Once its source has stopped, a backlogged port is the only actor
    left: it must still serialise one packet per event, back to back."""

    @pytest.mark.parametrize("fused", [True, False])
    def test_backlog_departs_back_to_back_one_event_per_packet(self, fused):
        # Fast NIC into a 10x-slower egress: s1's port backlogs at once
        # and keeps draining long after the NIC has sent its last packet.
        network = Network("bottleneck")
        network.add_host("h_src")
        network.add_switch("s1")
        network.add_host("h_dst")
        network.add_link("h_src", "s1", rate_bps=1e8)
        network.add_link("s1", "h_dst", rate_bps=1e7)

        def factory(switch, port):
            return ProgrammableScheduler(single_node_tree(FIFOTransaction()),
                                         tree_kernel=fused)

        sim = Simulator()
        fabric = Fabric(sim, network, factory, telemetry=not fused,
                        host_scheduler_factory=factory,
                        fused_delivery=None if fused else False)
        assert (fabric.fused_ports > 0) == fused
        lengths = [500 + 37 * (i % 28) for i in range(120)]
        fabric.attach_source("h_src", [
            (0.0, Packet(flow="f", length=length, dst="h_dst"))
            for length in lengths])

        fabric.run(until=0.02)
        assert fabric.injected_packets == len(lengths)
        assert not fabric.switch("h_src").port("to_s1").busy
        events_before = sim.events_processed
        left = len(lengths) - fabric.delivered_packets
        assert left > 90
        fabric.run(drain=True)
        assert sim.events_processed - events_before == left

        # Packet 0 cuts through s1 the instant the NIC finishes it; from
        # then on the port never idles, so departures are a running sum.
        expected, t = [], lengths[0] * (8.0 / 1e8)
        for length in lengths:
            t = t + length * (8.0 / 1e7)
            expected.append(t)
        sink = fabric.sink("h_dst")
        assert [p.departure_time for p in sink.packets] == expected


class TestAccounting:
    def test_conservation_counters(self):
        sim, fabric = make_chain_fabric(2)
        arrivals = [(i * 1e-4, Packet(flow="f", length=500, dst="h_dst"))
                    for i in range(50)]
        fabric.attach_source("h_src", arrivals)
        fabric.run(until=0.002)
        partial = fabric.conservation_check()
        assert partial["injected"] == (partial["delivered"] + partial["dropped"]
                                       + partial["in_flight"])
        fabric.run(drain=True)
        final = fabric.conservation_check()
        assert final["in_flight"] == 0
        assert final["delivered"] + final["dropped"] == final["injected"]

    def test_stats_by_node_reports_per_port(self):
        sim, fabric = make_chain_fabric(2)
        fabric.attach_source(
            "h_src", [(0.0, Packet(flow="f", length=500, dst="h_dst"))]
        )
        fabric.run(drain=True)
        stats = fabric.stats_by_node()
        assert stats["s1"]["per_port"]["to_s2"]["transmitted"] == 1
        assert stats["s2"]["per_port"]["to_h_dst"]["transmitted"] == 1


class TestShapedKernelOnFusedPorts:
    """A shaped tree runs a kernel, but its ports may not cut through.

    The fused closures read ``kernel_work_conserving`` — not "a kernel is
    installed" — before they treat an empty dequeue as "nothing to send":
    under shaping the packet is buffered and held, so the port has to
    enqueue, find nothing eligible and arm the shaping wake-up.
    """

    def _fabric(self, fused=True):
        def factory(switch, port):
            return ProgrammableScheduler(build_fig4_tree_from_programs())

        sim = Simulator()
        fabric = Fabric(sim, linear_chain(3, link_rate_bps=1e8), factory,
                        host_scheduler_factory=factory, telemetry=False,
                        fused_delivery=None if fused else False)
        ports = [port for switch in fabric.node_switches.values()
                 for port in switch.ports.values()]
        assert fabric.fused_ports == (len(ports) if fused else 0)
        assert all(port.scheduler.tree_kernel is not None
                   and not port.scheduler.kernel_work_conserving
                   for port in ports)
        return sim, fabric

    def _dropped_by_schedulers(self, fabric):
        return sum(switch.stats.dropped_scheduler
                   for switch in fabric.node_switches.values())

    def test_held_packet_arms_the_wakeup_instead_of_dropping(self):
        sim, fabric = self._fabric()
        # Two packets drain Right's 3000 B bucket; the third reaches an
        # idle NIC port 0.5 ms later with 625 B of tokens and is held for
        # the other 875 B / 1.25 MB/s = 0.7 ms.
        fabric.attach_source("h_src", [
            (when, Packet(flow="C", length=1500, dst="h_dst"))
            for when in (0.0, 0.0, 5e-4)])
        fabric.run(until=6e-4)
        (port,) = fabric.node_switches["h_src"].ports.values()
        assert len(port.scheduler) == 1 and not port.busy
        assert port._wakeup is not None
        assert port.scheduler.next_shaping_release() == pytest.approx(1.2e-3)
        assert self._dropped_by_schedulers(fabric) == 0
        fabric.run(drain=True)
        assert self._dropped_by_schedulers(fabric) == 0
        conservation = fabric.conservation_check()
        assert conservation["delivered"] == conservation["injected"] == 3
        assert conservation["in_flight"] == 0

    def test_port_going_idle_over_held_packets_arms_the_wakeup(self):
        sim, fabric = self._fabric()
        # A and the two conforming C packets transmit back to back; when
        # the last completes only the held third C is buffered: dequeue
        # yields nothing and the port must wait for the release, not stall.
        flows = ["A", "C", "C", "C"]
        fabric.attach_source("h_src", [
            (0.0, Packet(flow=flow, length=1500, dst="h_dst"))
            for flow in flows])
        fabric.run(drain=True)
        assert self._dropped_by_schedulers(fabric) == 0
        conservation = fabric.conservation_check()
        assert conservation["delivered"] == conservation["injected"] == 4
        assert conservation["in_flight"] == 0
        assert sim.now > 1.2e-3

    def test_port_running_dry_matches_the_unfused_port(self, monkeypatch):
        # A fused shaped port that finds nothing buffered skips the dequeue
        # and the wake-up poll.  Suspended packets count as buffered: going
        # idle over them must still poll and arm the wake-up, or they are
        # stranded.  Both ways of running dry, against the unfused port.
        from repro.sim.link import OutputPort

        wakeups = []
        on_wakeup = OutputPort._on_wakeup
        monkeypatch.setattr(
            OutputPort, "_on_wakeup",
            lambda port: (wakeups.append(port.name), on_wakeup(port))[1])

        def run(fused):
            del wakeups[:]
            sim, fabric = self._fabric(fused)
            arrivals = (
                # Unshaped only: the ports drain with no release pending.
                [(0.0, flow) for flow in "ABAB"]
                # Right's bucket passes two and holds the rest: the ports
                # go idle over suspended packets, a release pending.
                + [(2e-3, "C")] * 5
                # And dry again, long after the last release.
                + [(5e-2, flow) for flow in "AD"])
            fabric.attach_source("h_src", [
                (when, Packet(flow=flow, length=1500, dst="h_dst"))
                for when, flow in arrivals])
            fabric.run(drain=True)
            conservation = fabric.conservation_check()
            assert conservation["delivered"] == conservation["injected"] == 11
            assert conservation["in_flight"] == 0
            return ([(packet.flow, packet.departure_time)
                     for packet in fabric.sink("h_dst").packets],
                    sim.events_processed, list(wakeups))

        departures, events, woken = run(True)
        assert (departures, events, woken) == run(False)
        assert len(woken) >= 3

    def test_compaction_rebuilds_the_heap_the_closures_hold(self):
        # Fused ports and PacketSource keep ``sim._raw_heap`` for the whole
        # run and heappush onto it, so EventQueue.compact() must rebuild
        # that list in place.  Re-armed shaping wake-ups cancel the armed
        # one, and on this shallow heap nearly every cancel compacts.
        def departures(fused):
            with metrics.collecting() as registry:
                sim, fabric = self._fabric(fused)
                heap = sim._raw_heap
                fabric.attach_source("h_src", [
                    (i * 1e-4, Packet(flow="ACDCBCCD"[i % 8], length=1500,
                                      dst="h_dst"))
                    for i in range(200)])
                fabric.run(drain=True)
                assert registry.snapshot()["sim.event_compactions"] >= 1
            assert sim._raw_heap is sim._queue._heap is heap
            assert fabric.conservation_check()["in_flight"] == 0
            return [(packet.flow, packet.departure_time)
                    for packet in fabric.sink("h_dst").packets]

        fused = departures(True)
        assert len(fused) == 200
        assert fused == departures(False)


class TestArrivalOwnership:
    """A source owns its arrivals and drops each one as it emits it: a
    finished run holds no delivered packet, a caller's list is never
    touched, and stop / park / re-take work on the cleared-slot storage."""

    PACKETS = 20_000

    @staticmethod
    def cbr(count, gap=4e-6):
        # 500 B every 4 us = 1 Gbit/s offered on 1 Gbit/s links.
        return [(i * gap, Packet(flow="load", length=500, dst="h_dst"))
                for i in range(count)]

    @staticmethod
    def streaming_chain(**kwargs):
        sim = Simulator()
        return sim, Fabric(sim, linear_chain(3, link_rate_bps=1e9),
                           fifo_factory, telemetry=False, **kwargs)

    @staticmethod
    def live_packets():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is Packet)

    @pytest.mark.parametrize("chunked", [False, True])
    def test_finished_run_retains_no_arrivals(self, chunked):
        from repro.core.packet import _POOL_LIMIT, clear_pool

        clear_pool()
        before = self.live_packets()
        arrivals = self.cbr(self.PACKETS)
        snapshot = list(arrivals)
        _, fabric = self.streaming_chain(keep_packets=False)
        fabric.attach_source("h_src", iter(arrivals) if chunked else arrivals)
        fabric.run(drain=True)
        assert fabric.sink("h_dst").total_packets() == self.PACKETS
        # The caller's list is the caller's: same pairs, same order.
        assert len(arrivals) == self.PACKETS
        assert all(a is b for a, b in zip(arrivals, snapshot))
        del arrivals, snapshot
        # What is left is the free list, not the run.
        assert self.live_packets() - before <= _POOL_LIMIT + 16
        clear_pool()

    def test_stop_mid_stream_discards_the_rest(self):
        arrivals = self.cbr(2000)
        snapshot = list(arrivals)
        _, fabric = self.streaming_chain(keep_packets=True)
        source = fabric.attach_source("h_src", arrivals)
        fabric.run(until=1000 * 4e-6)
        emitted = source.generated_packets
        assert 0 < emitted < 2000
        source.stop()
        fabric.run(drain=True)
        assert source.generated_packets == emitted
        assert source._batch == [] and source._pending is None
        assert fabric.conservation_check() == {
            "injected": emitted, "delivered": emitted, "dropped": 0,
            "lost_to_faults": 0, "in_flight": 0}
        delivered = fabric.sink("h_dst").packets
        assert len(delivered) == emitted
        assert all(p is pair[1] for p, pair in zip(delivered, snapshot))
        assert all(a is b for a, b in zip(arrivals, snapshot))

    @pytest.mark.parametrize("chunked", [False, True])
    def test_park_and_retake_deliver_every_arrival_once(self, chunked,
                                                        monkeypatch):
        """Run in short segments so the NIC's pull loop keeps hitting the
        horizon: it parks the arrival it peeked (the event path re-arms),
        the event fires, and the next completion re-takes the stream."""
        from repro.sim.source import PacketSource

        parks = []
        park = PacketSource._park_arrival

        def counting_park(source):
            parks.append(source._index)
            park(source)

        monkeypatch.setattr(PacketSource, "_park_arrival", counting_park)

        def run(fused, segments):
            # 0.9 load: the NIC goes idle between arrivals and pulls.
            arrivals = self.cbr(3000, gap=4e-6 / 0.9)
            _, fabric = self.streaming_chain(
                keep_packets=True, fused_delivery=None if fused else False)
            source = fabric.attach_source(
                "h_src", iter(arrivals) if chunked else arrivals)
            for k in range(1, segments):
                fabric.run(until=k * 3000 * 4e-6 / 0.9 / segments)
            fabric.run(drain=True)
            assert source.generated_packets == 3000
            return [(p.arrival_time, p.departure_time)
                    for p in fabric.sink("h_dst").packets]

        segmented = run(fused=True, segments=40)
        assert len(parks) >= 39
        assert len(segmented) == 3000
        assert segmented == run(fused=False, segments=1)

    def test_overload_burst_is_pulled_behind_the_clock(self):
        """A burst above the NIC's line rate after an idle gap: the pull
        loop takes the burst's first arrival, and at that packet's
        completion the next ones are already behind the clock — each is
        enqueued at its true instant with the port marked busy, so it
        cannot cut through a transmission still on the wire."""

        def bursts():
            # Six cycles of 100 arrivals at twice the line rate (500 B
            # every 2 us on 1 Gbit/s), then idle until the next 500 us.
            return [(cycle * 5e-4 + i * 2e-6,
                     Packet(flow=f"burst{cycle}", length=500, dst="h_dst"))
                    for cycle in range(6) for i in range(100)]

        def run(fused, segments):
            _, fabric = self.streaming_chain(
                keep_packets=True, fused_delivery=None if fused else False)
            source = fabric.attach_source("h_src", bursts())
            behind = []
            if fused:
                nic = fabric.switch("h_src").port("to_s1")
                box = fabric._arrival_pull_boxes["h_src"]
                _, ingress = box[0]

                def pulled(packet):
                    # The loop marks the port busy only around an arrival
                    # behind the clock.
                    behind.append(nic.busy)
                    return ingress(packet)

                box[0] = (source, pulled)
            for k in range(1, segments):
                fabric.run(until=k * 3.15e-3 / segments)
            fabric.run(drain=True)
            return ([(p.flow, p.arrival_time, p.departure_time)
                     for p in fabric.sink("h_dst").packets],
                    source.generated_packets, sum(behind))

        departures, generated, behind = run(fused=True, segments=9)
        assert behind >= 1
        assert generated == len(departures) == 600
        assert (departures, generated) == run(fused=False, segments=1)[:2]
