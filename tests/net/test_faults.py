"""Fault-injection subsystem: plans, blackholing, reconvergence, lockstep.

Pins the tentpole contract of the faults layer:

* a :class:`FaultPlan` validates against the topology before anything runs;
* a dead link blackholes the packet being serialised onto it into
  ``lost_to_faults`` while *queued* packets stay buffered (``in_flight``)
  and burst out on recovery;
* a dead switch darkens every adjacent link and ECMP reconverges onto the
  survivors;
* probabilistic loss is deterministic in the plan seed;
* the conservation identity
  ``injected == delivered + dropped + lost_to_faults + in_flight``
  holds under hypothesis-randomised fault plans on *both* datapaths
  (fused tree kernels vs fully interpreted), which stay lockstep-equal.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import FIFOTransaction
from repro.core import ProgrammableScheduler, single_node_tree
from repro.core.packet import Packet
from repro.exceptions import ConservationError, FaultError
from repro.net import (
    Fabric,
    FaultPlan,
    LinkDown,
    LinkLoss,
    LinkUp,
    SwitchDown,
    SwitchUp,
    flapping_link,
    get_scenario,
    linear_chain,
)
from repro.net.scenario import ScenarioResult
from repro.sim import Simulator


def fifo_factory(tree_kernel=True):
    def factory(switch, port):
        return ProgrammableScheduler(single_node_tree(FIFOTransaction()),
                                     tree_kernel=tree_kernel)
    return factory


def chain_fabric(plan, link_rate_bps=1e7, hops=2, tree_kernel=True):
    sim = Simulator()
    fabric = Fabric(
        sim,
        linear_chain(hops, link_rate_bps=link_rate_bps),
        fifo_factory(tree_kernel),
        fault_plan=plan,
        fused_delivery=None if tree_kernel else False,
    )
    return sim, fabric


def back_to_back(count, length=1500, gap=0.0005):
    """Packets addressed h_src -> h_dst arriving every ``gap`` seconds."""
    return [(i * gap, Packet(flow="f", length=length, dst="h_dst"))
            for i in range(count)]


def assert_conserved(fabric):
    c = fabric.conservation_check()
    assert c["injected"] == (c["delivered"] + c["dropped"]
                             + c["lost_to_faults"] + c["in_flight"]), c
    return c


class TestFaultPlanValidation:
    def test_unknown_link_raises(self):
        plan = FaultPlan(events=[LinkDown(0.01, "s1", "s9")])
        with pytest.raises(FaultError, match="unknown node"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))
        plan = FaultPlan(events=[LinkDown(0.01, "s1", "h_dst")])
        with pytest.raises(FaultError, match="no link"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))

    def test_switch_event_naming_host_raises(self):
        plan = FaultPlan(events=[SwitchDown(0.01, "h_src")])
        with pytest.raises(FaultError, match="is a host"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))

    def test_negative_time_raises(self):
        plan = FaultPlan(events=[LinkDown(-0.1, "s1", "s2")])
        with pytest.raises(FaultError, match=">= 0"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))

    def test_loss_rate_out_of_range_raises(self):
        plan = FaultPlan(losses=[LinkLoss("s1", "s2", rate=1.5)])
        with pytest.raises(FaultError, match=r"\[0, 1\]"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))

    def test_loss_window_backwards_raises(self):
        plan = FaultPlan(losses=[LinkLoss("s1", "s2", rate=0.1,
                                          start=0.2, end=0.1)])
        with pytest.raises(FaultError, match="ends before"):
            plan.validate(linear_chain(2, link_rate_bps=1e6))

    def test_flapping_link_validates_periods(self):
        with pytest.raises(FaultError, match="downtime < period"):
            flapping_link("a", "b", first_down=0.0, downtime=0.05,
                          period=0.05, cycles=1)
        events = flapping_link("a", "b", first_down=0.01, downtime=0.02,
                               period=0.05, cycles=2)
        assert [type(e) for e in events] == [LinkDown, LinkUp] * 2
        assert events[2].time == pytest.approx(0.06)

    def test_valid_plan_passes_and_empty_detected(self):
        network = linear_chain(2, link_rate_bps=1e6)
        FaultPlan(events=[SwitchDown(0.01, "s2"), SwitchUp(0.02, "s2")],
                  losses=[LinkLoss("s1", "s2", rate=0.5)]).validate(network)
        assert FaultPlan().empty()
        assert not FaultPlan(events=[LinkDown(0.0, "s1", "s2")]).empty()

    def test_fabric_validates_plan_at_construction(self):
        with pytest.raises(FaultError, match="unknown node"):
            chain_fabric(FaultPlan(events=[LinkDown(0.0, "s1", "s9")]))


class TestLinkDownBlackhole:
    def test_in_flight_packet_lost_queued_packets_stranded(self):
        # 1500 B at 10 Mbit/s = 1.2 ms serialisation: packets arrive every
        # 0.5 ms so the queue behind the first hop builds; that link dies
        # mid-run and never recovers, stranding the backlog.
        plan = FaultPlan(events=[LinkDown(0.004, "h_src", "s1")])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(20))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["lost_to_faults"] >= 1          # serialising at fault time
        assert c["in_flight"] > 0                # stranded behind the dead link
        assert c["delivered"] + c["lost_to_faults"] + c["in_flight"] == 20
        assert fabric.fault_summary()["lost_by_cause"]["link_down"] >= 1
        assert ("h_src", "s1") in fabric.fault_summary()["down_links"]

    def test_mid_chain_outage_blackholes_unroutable_arrivals(self):
        # Killing s1-s2 leaves the already-launched traffic with no path:
        # one packet dies on the wire, the rest blackhole as no_route at
        # s1 — never silently lost, never stuck.
        plan = FaultPlan(events=[LinkDown(0.004, "s1", "s2")])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(20))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["delivered"] + c["lost_to_faults"] == 20
        causes = fabric.fault_summary()["lost_by_cause"]
        assert causes["link_down"] >= 1
        assert causes["no_route"] >= 1

    def test_backlog_drains_after_recovery(self):
        # The whole burst is injected (and queued at the first hop) before
        # the outage starts, so the only packets lost are the one on the
        # transmitter and at most one on the wire; the rest wait out the
        # 16 ms of darkness and burst through on recovery.
        plan = FaultPlan(events=[LinkDown(0.004, "h_src", "s1"),
                                 LinkUp(0.02, "h_src", "s1")])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(20, gap=0.0001))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["in_flight"] == 0               # recovery burst flushed all
        assert c["delivered"] + c["lost_to_faults"] == 20
        assert 1 <= c["lost_to_faults"] <= 2
        assert fabric.fault_summary()["topology_changes"] == 2
        assert fabric.fault_summary()["down_links"] == []

    def test_unreachable_destination_counts_no_route(self):
        # Injections *during* the outage have no route at all (the chain
        # has no alternate path), so they blackhole at injection.
        plan = FaultPlan(events=[LinkDown(0.0, "s1", "s2")])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(5, gap=0.002))
        fabric.run(until=0.1, drain=True)
        c = assert_conserved(fabric)
        assert c["delivered"] == 0
        assert fabric.fault_summary()["lost_by_cause"]["no_route"] == 5


class TestSwitchDown:
    def test_dead_spine_reroutes_onto_survivor(self):
        results = get_scenario("dead_spine").run(quick=True, variant="SRPT")
        result = results["SRPT"]
        result.check_conservation()
        assert result.fault_summary["down_switches"] == ["spine1"]
        spine0 = result.stats_by_node["spine0"]
        spine1 = result.stats_by_node["spine1"]
        # After t=15 ms everything crosses spine0; spine1 froze at death.
        assert spine0["received"] > spine1["received"] > 0

    def test_switch_down_darkens_adjacent_links(self):
        plan = FaultPlan(events=[SwitchDown(0.004, "s2")])
        sim, fabric = chain_fabric(plan, hops=3)
        fabric.attach_source("h_src", back_to_back(20))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["delivered"] < 20
        summary = fabric.fault_summary()
        assert summary["down_switches"] == ["s2"]
        cause_total = sum(summary["lost_by_cause"].values())
        assert cause_total == c["lost_to_faults"] > 0

    def test_switch_recovery_restores_delivery(self):
        plan = FaultPlan(events=[SwitchDown(0.004, "s2"),
                                 SwitchUp(0.02, "s2")])
        sim, fabric = chain_fabric(plan, hops=3)
        fabric.attach_source("h_src", back_to_back(20))
        fabric.run(until=0.3, drain=True)
        c = assert_conserved(fabric)
        assert c["in_flight"] == 0
        assert c["delivered"] > 0
        assert c["delivered"] + c["lost_to_faults"] == 20


class TestLinkLoss:
    def test_rate_one_drops_every_crossing_packet(self):
        plan = FaultPlan(losses=[LinkLoss("s1", "s2", rate=1.0)])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(10, gap=0.002))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["delivered"] == 0
        assert fabric.fault_summary()["lost_by_cause"]["loss"] == 10

    def test_loss_is_deterministic_in_the_plan_seed(self):
        def run(seed):
            plan = FaultPlan(losses=[LinkLoss("s1", "s2", rate=0.4)],
                             seed=seed)
            sim, fabric = chain_fabric(plan)
            fabric.attach_source("h_src", back_to_back(50, gap=0.002))
            fabric.run(until=0.5, drain=True)
            assert_conserved(fabric)
            return fabric.conservation_check()

        assert run(0) == run(0)
        # A different seed draws a different loss pattern (with 50 draws at
        # 40% the chance of an identical outcome is negligible).
        assert run(0) != run(1)

    def test_loss_window_bounds_apply(self):
        plan = FaultPlan(losses=[LinkLoss("s1", "s2", rate=1.0,
                                          start=0.5, end=0.6)])
        sim, fabric = chain_fabric(plan)
        fabric.attach_source("h_src", back_to_back(10, gap=0.002))
        fabric.run(until=0.2, drain=True)
        c = assert_conserved(fabric)
        assert c["delivered"] == 10              # window never opened
        assert c["lost_to_faults"] == 0


class TestScenarioConservation:
    @pytest.mark.parametrize("name", ["chain_flap", "dead_spine"])
    def test_fault_scenarios_registered_and_conserve(self, name):
        scenario = get_scenario(name)
        assert scenario.fault_plan is not None
        results = scenario.run(quick=True)
        for result in results.values():
            counters = result.check_conservation()
            assert counters["injected"] > 0

    def test_chain_flap_loses_packets_to_faults(self):
        results = get_scenario("chain_flap").run(quick=True, variant="FIFO")
        result = results["FIFO"]
        assert result.lost_to_faults() > 0
        assert result.fault_summary["topology_changes"] > 0

    def test_check_conservation_raises_on_leak(self):
        result = ScenarioResult(
            scenario="synthetic", variant="A", duration=1.0,
            conservation={"injected": 10, "delivered": 8, "dropped": 0,
                          "lost_to_faults": 0, "in_flight": 1},
            flow_stats={}, fct=None, fct_short=None, stats_by_node={},
        )
        with pytest.raises(ConservationError, match="leaked packets"):
            result.check_conservation()

    @pytest.mark.parametrize("name", ["chain_flap", "dead_spine"])
    def test_fault_scenarios_lockstep_fused_vs_interpreted(self, name):
        scenario = get_scenario(name)
        fused = scenario.run(quick=True)
        plain = scenario.run(quick=True, tree_kernel=False)
        for variant in fused:
            a, b = fused[variant], plain[variant]
            assert a.conservation == b.conservation
            assert a.flow_stats == b.flow_stats
            assert a.fct == b.fct
            assert a.fault_summary == b.fault_summary


# ----------------------------------------------------------------------- #
# Hypothesis: conservation + lockstep under randomised fault plans         #
# ----------------------------------------------------------------------- #
arrival_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),    # gap in 10 us units
        st.integers(min_value=64, max_value=1500),  # length
    ),
    min_size=1,
    max_size=40,
)

fault_plans = st.builds(
    FaultPlan,
    events=st.lists(
        st.one_of(
            st.builds(LinkDown,
                      time=st.floats(min_value=0.0, max_value=0.02),
                      src=st.just("s1"), dst=st.just("s2")),
            st.builds(LinkUp,
                      time=st.floats(min_value=0.0, max_value=0.02),
                      src=st.just("s1"), dst=st.just("s2")),
            st.builds(SwitchDown,
                      time=st.floats(min_value=0.0, max_value=0.02),
                      node=st.just("s2")),
            st.builds(SwitchUp,
                      time=st.floats(min_value=0.0, max_value=0.02),
                      node=st.just("s2")),
        ),
        max_size=6,
    ),
    losses=st.lists(
        st.builds(LinkLoss,
                  src=st.just("s2"), dst=st.just("s3"),
                  rate=st.floats(min_value=0.0, max_value=1.0)),
        max_size=2,
    ),
    seed=st.integers(min_value=0, max_value=3),
)


def _build_arrivals(steps):
    out, time = [], Fraction(0)
    for gap, length in steps:
        time += Fraction(gap, 100_000)
        out.append((float(time),
                    Packet(flow="f", length=length, dst="h_dst")))
    return out


def _run_faulted_chain(steps, plan, tree_kernel):
    sim, fabric = chain_fabric(plan, link_rate_bps=1e8, hops=3,
                               tree_kernel=tree_kernel)
    fabric.attach_source("h_src", _build_arrivals(steps))
    fabric.run(until=0.05, drain=True)
    return fabric


class TestHypothesisFaultConservation:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=arrival_steps, plan=fault_plans)
    def test_conservation_and_lockstep_under_random_plans(self, steps, plan):
        fused = _run_faulted_chain(steps, plan, tree_kernel=True)
        plain = _run_faulted_chain(steps, plan, tree_kernel=False)
        for fabric in (fused, plain):
            c = assert_conserved(fabric)
            assert c["injected"] == len(steps)
        assert fused.conservation_check() == plain.conservation_check()
        assert fused.fault_summary() == plain.fault_summary()
        assert (fused.sink("h_dst").departure_order()
                == plain.sink("h_dst").departure_order())


class TestMidDrainConservation:
    @given(
        down_packet=st.integers(min_value=1, max_value=40),
        probe_delay=st.floats(min_value=0.0, max_value=0.005,
                              allow_nan=False, allow_infinity=False),
        recover=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_linkdown_mid_drain_conserves_at_every_instant(
            self, down_packet, probe_delay, recover):
        """Conservation holds at every instant, not just at quiescence.

        A 60-packet burst saturates the chain; the fault time is placed
        mid-serialisation of the ``down_packet``-th packet on the s1->s2
        link, i.e. between two back-to-back transmissions of a draining
        port.
        """
        tx_time = 1500 * 8 / 1e7           # per-packet serialisation time
        down_at = (down_packet + 0.5) * tx_time
        events = [LinkDown(down_at, "s1", "s2")]
        if recover:
            events.append(LinkUp(down_at + 0.01, "s1", "s2"))
        sim, fabric = chain_fabric(FaultPlan(events=events), hops=3)
        fabric.attach_source("h_src", back_to_back(60, gap=0.0))
        probes = []
        sim.schedule_at(down_at + probe_delay,
                        lambda: probes.append(assert_conserved(fabric)))
        fabric.run(drain=True)

        assert probes, "probe never fired"
        final = assert_conserved(fabric)
        assert final["lost_to_faults"] >= 1  # the mid-drain victim
        if recover:
            assert final["delivered"] > down_packet  # queued burst drained
