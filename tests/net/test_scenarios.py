"""Tests for the scenario engine and the built-in fabric scenarios.

These assert the two acceptance claims of the fabric layer:

* fig6_chain — LSTF on a 3-switch chain keeps urgent packets inside their
  20 ms end-to-end slack budget while per-hop FIFO blows it;
* leaf_spine_fct — SRPT on a 4-leaf/2-spine Clos shortens mean FCT and the
  short-flow tail against FIFO on the identical workload.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.exceptions import TrafficError
from repro.net import Demand, Scenario, get_scenario, linear_chain, list_scenarios
from repro.net.scenarios import URGENT_SLACK


def fifo_factory(switch, port):
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


class TestScenarioEngine:
    def test_registry_contains_builtins(self):
        names = [scenario.name for scenario in list_scenarios()]
        assert "fig6_chain" in names
        assert "leaf_spine_fct" in names
        assert "chain_flap" in names
        assert "dead_spine" in names
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_fault_scenarios_carry_plans_others_do_not(self):
        assert get_scenario("fig6_chain").fault_plan is None
        assert get_scenario("leaf_spine_fct").fault_plan is None
        assert get_scenario("chain_flap").fault_plan is not None
        assert get_scenario("dead_spine").fault_plan is not None

    def test_demand_kinds_validate(self):
        with pytest.raises(TrafficError):
            Demand(src="a", dst="b", kind="explicit").build_arrivals(1.0)
        with pytest.raises(TrafficError):
            list(Demand(src="a", dst="b", kind="mystery",
                        rate_bps=1e6).build_arrivals(1.0))

    def test_demand_addresses_packets(self):
        demand = Demand(src="h_src", dst="h_dst", kind="cbr", rate_bps=1e6,
                        packet_size=500)
        arrivals = list(demand.build_arrivals(0.01))
        assert arrivals
        assert all(p.src == "h_src" and p.dst == "h_dst" for _t, p in arrivals)

    def test_scenario_runs_each_variant_on_identical_workload(self):
        scenario = Scenario(
            name="tiny",
            title="tiny",
            topology=lambda: linear_chain(1, link_rate_bps=1e6),
            demands=[Demand(src="h_src", dst="h_dst", kind="cbr",
                            rate_bps=5e5, packet_size=500)],
            variants={"A": fifo_factory, "B": fifo_factory},
            duration=0.05,
        )
        results = scenario.run()
        assert set(results) == {"A", "B"}
        assert (results["A"].conservation["injected"]
                == results["B"].conservation["injected"] > 0)
        assert results["A"].flow_stats == results["B"].flow_stats

    def test_single_variant_selection(self):
        scenario = get_scenario("fig6_chain")
        results = scenario.run(quick=True, variant="LSTF")
        assert list(results) == ["LSTF"]

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError, match="unknown variant"):
            get_scenario("fig6_chain").run(quick=True, variant="nope")


class TestDemandSeeds:
    def test_demands_derive_distinct_seeds_by_flow_name(self):
        first = Demand(src="a", dst="z", kind="poisson", rate_bps=1e6,
                       flow="f1")
        second = Demand(src="b", dst="z", kind="poisson", rate_bps=1e6,
                        flow="f2")
        assert first.effective_seed(0) != second.effective_seed(0)
        times_1 = [t for t, _ in first.build_arrivals(0.05)]
        times_2 = [t for t, _ in second.build_arrivals(0.05)]
        assert times_1 != times_2  # not perfectly correlated streams

    def test_base_seed_changes_derived_streams(self):
        demand = Demand(src="a", dst="z", kind="poisson", rate_bps=1e6)
        assert demand.effective_seed(0) != demand.effective_seed(1)
        times_a = [t for t, _ in demand.build_arrivals(0.05, base_seed=0)]
        times_b = [t for t, _ in demand.build_arrivals(0.05, base_seed=1)]
        assert times_a != times_b

    def test_explicit_seed_override_honoured(self):
        demand = Demand(src="a", dst="z", kind="poisson", rate_bps=1e6,
                        seed=7)
        assert demand.effective_seed(0) == demand.effective_seed(99) == 7
        times_a = [t for t, _ in demand.build_arrivals(0.05, base_seed=0)]
        times_b = [t for t, _ in demand.build_arrivals(0.05, base_seed=99)]
        assert times_a == times_b

    def test_explicit_callable_receives_derived_seed(self):
        seen = []

        def mix(seed=0):
            seen.append(seed)
            return iter([(0.0, Packet(flow="x", length=100))])

        demand = Demand(src="a", dst="z", kind="explicit", arrivals=mix)
        list(demand.build_arrivals(0.01, base_seed=0))
        list(demand.build_arrivals(0.01, base_seed=1))
        assert seen[0] == demand.effective_seed(0)
        assert seen[1] == demand.effective_seed(1)
        assert seen[0] != seen[1]

    def test_explicit_callable_without_seed_still_works(self):
        demand = Demand(
            src="a", dst="z", kind="explicit",
            arrivals=lambda: iter([(0.0, Packet(flow="x", length=100))]),
        )
        assert len(list(demand.build_arrivals(0.01, base_seed=5))) == 1

    def test_fig6_mix_responds_to_base_seed(self):
        # The campaign engine's replicate factor must actually vary the
        # fig6 workload (the urgent/bulk mix is randomised per base seed).
        scenario = get_scenario("fig6_chain")
        main_demand = scenario.demands[0]
        times_a = [t for t, _ in main_demand.build_arrivals(0.2, base_seed=0)]
        times_b = [t for t, _ in main_demand.build_arrivals(0.2, base_seed=1)]
        assert times_a != times_b
        # ... while staying reproducible for a fixed base seed.
        again = [t for t, _ in main_demand.build_arrivals(0.2, base_seed=0)]
        assert times_a == again

    def test_load_scale_scales_offered_rate(self):
        demand = Demand(src="a", dst="z", kind="cbr", rate_bps=1e6,
                        packet_size=500)
        base = list(demand.build_arrivals(0.012))
        doubled = list(demand.build_arrivals(0.012, load_scale=2.0))
        assert len(doubled) == 2 * len(base)
        with pytest.raises(TrafficError):
            demand.build_arrivals(0.01, load_scale=0.0)


class TestProgramVariants:
    @pytest.mark.parametrize("scenario_name", ["fig6_chain", "leaf_spine_fct"])
    def test_program_twins_match_native_results(self, scenario_name):
        scenario = get_scenario(scenario_name)
        native = scenario.run(quick=True)
        for lang_backend in ("compiled", "interpreted"):
            programmed = scenario.run(quick=True, lang_backend=lang_backend)
            for label, result in native.items():
                assert programmed[label].flow_stats == result.flow_stats, (
                    f"{scenario_name}/{label} diverges under "
                    f"lang_backend={lang_backend}"
                )
                assert (programmed[label].conservation
                        == result.conservation)

    def test_missing_program_variant_raises(self):
        scenario = Scenario(
            name="no_programs",
            title="no programs",
            topology=lambda: linear_chain(1, link_rate_bps=1e6),
            demands=[Demand(src="h_src", dst="h_dst", kind="cbr",
                            rate_bps=5e5)],
            variants={"A": fifo_factory},
            duration=0.01,
        )
        with pytest.raises(KeyError, match="no program variant"):
            scenario.run(lang_backend="compiled")


class TestFig6Chain:
    @pytest.fixture(scope="class")
    def results(self):
        return get_scenario("fig6_chain").run(quick=True)

    def test_all_packets_accounted_for(self, results):
        for result in results.values():
            conservation = result.check_conservation()
            assert conservation["in_flight"] == 0
            assert conservation["lost_to_faults"] == 0
            assert (conservation["delivered"] + conservation["dropped"]
                    == conservation["injected"])

    def test_lstf_meets_budget_fifo_misses_it(self, results):
        lstf = results["LSTF"].flow_stats["urgent"]["max_delay"]
        fifo = results["FIFO"].flow_stats["urgent"]["max_delay"]
        assert lstf <= URGENT_SLACK
        assert fifo > URGENT_SLACK
        assert lstf < fifo

    def test_same_urgent_packets_in_both_variants(self, results):
        assert (results["LSTF"].flow_stats["urgent"]["packets"]
                == results["FIFO"].flow_stats["urgent"]["packets"] > 0)


class TestLeafSpineFCT:
    @pytest.fixture(scope="class")
    def results(self):
        return get_scenario("leaf_spine_fct").run(quick=True)

    def test_flows_complete_under_both_schedulers(self, results):
        for result in results.values():
            result.check_conservation()
            assert result.fct is not None
            assert result.fct.count > 0
        assert results["SRPT"].fct.count == results["FIFO"].fct.count

    def test_srpt_shortens_mean_and_short_flow_fct(self, results):
        srpt, fifo = results["SRPT"], results["FIFO"]
        assert srpt.fct.mean <= fifo.fct.mean
        assert srpt.fct_short.mean <= fifo.fct_short.mean
        assert srpt.fct_short.p99 <= fifo.fct_short.p99

    def test_per_port_stats_cover_the_fabric(self, results):
        stats = results["SRPT"].stats_by_node
        # Both spine uplinks of leaf0 saw traffic (ECMP spread).
        leaf0 = stats["leaf0"]["per_port"]
        assert leaf0["to_spine0"]["transmitted"] > 0
        assert leaf0["to_spine1"]["transmitted"] > 0


class TestSwitchCounterViews:
    """``SwitchStats.received`` / ``transmitted`` are computed when read:
    from the ingress outcomes, and from the ports' own counts.  Pin both
    against counts taken from outside the switch: what was offered to it —
    calls to ``receive`` on the interpreted hop; where a fused hop inlines
    that, what sources and upstream ports handed over — and calls to each
    port's departure callback, which every completion path must run."""

    @pytest.mark.parametrize("telemetry", [True, False])
    @pytest.mark.parametrize(
        "name", [scenario.name for scenario in list_scenarios()])
    def test_views_match_counts_taken_outside_the_switch(self, name,
                                                         telemetry):
        """Every registered scenario, both ways: ``chain_flap`` /
        ``dead_spine`` run a fault plan (interpreted delivery, the
        in-flight blackhole wrapper), telemetry on tracks the buffer and
        keeps per-port counters, telemetry off fuses ``fig6_chain`` /
        ``leaf_spine_fct`` ports (where a link has no latency) and their
        injection."""
        fabrics = []
        receive_calls, departed = Counter(), Counter()

        def tap(fabric):
            fabrics.append(fabric)
            for switch in fabric.node_switches.values():
                def receive(packet, port, switch=switch,
                            inner=switch.receive):
                    receive_calls[switch] += 1
                    return inner(packet, port)

                switch.receive = receive
                for port in switch.ports.values():
                    def on_departure(packet, port=port,
                                     inner=port.on_departure):
                        departed[port] += 1
                        inner(packet)

                    port.on_departure = on_departure

        scenario = get_scenario(name)
        scenario.run(quick=True, telemetry=telemetry, trace_hook=tap)
        assert fabrics
        for fabric in fabrics:
            assert bool(fabric.fused_ports) == (
                not telemetry and scenario.fault_plan is None)
            # Without faults every packet a source emits or an upstream
            # port transmits reaches the next switch (the run drains).
            handed_over = Counter()
            for source in fabric._sources:
                handed_over[fabric.switch(source.destination.host)] += \
                    source.generated_packets
            for node, switch in fabric.node_switches.items():
                for neighbor in fabric.network.links[node]:
                    if not fabric.network.is_host(neighbor):
                        handed_over[fabric.switch(neighbor)] += switch.port(
                            fabric.port_to(neighbor)).transmitted_packets
            for switch in fabric.node_switches.values():
                stats = switch.stats
                assert stats.received == (
                    stats.admitted + stats.dropped_admission
                    + stats.dropped_scheduler)
                if not fabric.fused_ports:
                    assert stats.received == receive_calls[switch]
                if scenario.fault_plan is None:
                    assert stats.received == handed_over[switch]
                ports = switch.ports.values()
                assert stats.transmitted == sum(
                    departed[port] for port in ports) == sum(
                    port.transmitted_packets for port in ports)
                assert set(stats.per_port) == (
                    set(switch.ports) if telemetry else set())
                for port_name, counters in stats.per_port.items():
                    assert counters.transmitted == departed[
                        switch.port(port_name)]
            assert sum(s.stats.transmitted
                       for s in fabric.node_switches.values()) > 0


class TestExperimentRegistryIntegration:
    def test_fig6_experiment_runs_on_the_chain(self):
        from repro.reporting import run_experiment

        result = run_experiment("fig6", quick=True)
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert by_scheduler["LSTF"]["meets_budget"] is True
        assert by_scheduler["FIFO"]["meets_budget"] is False
        assert by_scheduler["LSTF"]["hops"] == 3
        assert "per_node_stats" in result.details

    def test_chain_flap_experiment_reports_fault_columns(self):
        from repro.reporting import run_experiment

        result = run_experiment("chain_flap", quick=True)
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        for row in by_scheduler.values():
            assert row["lost_to_faults"] > 0
            assert row["topology_changes"] == 6  # 3 down/up cycles
        assert "conservation" in result.details

    def test_dead_spine_experiment_conserves(self):
        from repro.reporting import run_experiment

        result = run_experiment("dead_spine", quick=True)
        for name, counters in result.details["conservation"].items():
            assert counters["injected"] == (
                counters["delivered"] + counters["dropped"]
                + counters["lost_to_faults"] + counters["in_flight"]
            ), name

    def test_leaf_spine_experiment_reports_fct(self):
        from repro.reporting import run_experiment

        result = run_experiment("leaf_spine_fct", quick=True)
        by_scheduler = {row["scheduler"]: row for row in result.rows}
        assert (by_scheduler["SRPT"]["mean_fct_ms"]
                <= by_scheduler["FIFO"]["mean_fct_ms"])
        per_node = result.details["per_node_stats"]["SRPT"]
        assert "spine0" in per_node
        assert any(port.startswith("to_") for port in per_node["spine0"]["per_port"])
