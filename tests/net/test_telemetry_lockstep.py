"""Lockstep equivalence: telemetry must be pure observability.

The ``telemetry=`` flag threaded through :class:`~repro.net.Fabric`,
:meth:`~repro.net.Scenario.run` and the campaign engine strips per-hop
traces (``packet.hops``) and per-port switch-stat breakdowns from the
forwarding hot path.  These tests pin the
contract that makes it safe to run sweeps with telemetry off: a
telemetry-off run produces the *identical* packet departure order and the
identical :class:`~repro.net.scenario.ScenarioResult` aggregates as the
telemetry-on run — only the hops / per-port observability fields differ.

``prev_wait_time`` is deliberately *not* telemetry: it is in-band data the
paper's LSTF transaction consumes (Section 3.1), so it stays stamped in
both modes — asserted here via fig6_chain, where disabling it would change
LSTF's scheduling decisions and fail the comparison.
"""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import ProgrammableScheduler, single_node_tree
from repro.core.packet import Packet
from repro.net import Demand, Fabric, Scenario, get_scenario, linear_chain
from repro.sim import Simulator


def fifo_factory(switch, port):
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


def fifo_variant(lang_backend):
    """A scenario variant: every lang back end runs native FIFO."""
    return fifo_factory


def _strip_observability(result):
    """ScenarioResult fields that must match across telemetry modes."""
    return {
        "conservation": result.conservation,
        "flow_stats": result.flow_stats,
        "fct": result.fct,
        "fct_short": result.fct_short,
        "duration": result.duration,
        # per-node aggregates must match; per_port is telemetry-only.
        "node_aggregates": {
            node: {key: value for key, value in stats.items()
                   if key != "per_port"}
            for node, stats in result.stats_by_node.items()
        },
    }


class TestFabricLockstep:
    def _run(self, telemetry):
        sim = Simulator()
        fabric = Fabric(sim, linear_chain(3, link_rate_bps=1e7),
                        fifo_factory, telemetry=telemetry)
        arrivals = [
            (i * 0.0005, Packet(flow=f"f{i % 3}", length=700, dst="h_dst"))
            for i in range(60)
        ]
        fabric.attach_source("h_src", arrivals)
        fabric.run(drain=True)
        return fabric

    def test_departure_order_identical(self):
        on = self._run(telemetry=True)
        off = self._run(telemetry=False)
        sink_on = on.sink("h_dst")
        sink_off = off.sink("h_dst")
        assert sink_on.departure_order() == sink_off.departure_order()
        assert ([p.departure_time for p in sink_on.packets]
                == [p.departure_time for p in sink_off.packets])
        assert on.conservation_check() == off.conservation_check()

    def test_hops_recorded_only_with_telemetry(self):
        on = self._run(telemetry=True)
        off = self._run(telemetry=False)
        packet_on = on.sink("h_dst").packets[0]
        packet_off = off.sink("h_dst").packets[0]
        assert [hop[0] for hop in packet_on.hops] == ["h_src", "s1", "s2", "s3"]
        assert packet_off.hops == []

    def test_wait_time_stamped_in_both_modes(self):
        # prev_wait_time is in-band data (LSTF input), not telemetry.
        on = self._run(telemetry=True)
        off = self._run(telemetry=False)
        stamped_on = [p.get("prev_wait_time") for p in on.sink("h_dst").packets]
        stamped_off = [p.get("prev_wait_time") for p in off.sink("h_dst").packets]
        assert stamped_on == stamped_off
        assert all(value is not None for value in stamped_on)

    def test_per_port_stats_only_with_telemetry(self):
        on = self._run(telemetry=True)
        off = self._run(telemetry=False)
        stats_on = on.stats_by_node()
        stats_off = off.stats_by_node()
        assert stats_on["s1"]["per_port"]
        assert stats_off["s1"]["per_port"] == {}
        for node in stats_on:
            for key in ("received", "transmitted", "dropped_admission",
                        "dropped_scheduler"):
                assert stats_on[node][key] == stats_off[node][key]


class TestScenarioLockstep:
    @pytest.mark.parametrize("scenario_name", ["fig6_chain", "leaf_spine_fct"])
    def test_builtin_scenarios_identical_without_telemetry(self, scenario_name):
        scenario = get_scenario(scenario_name)
        with_telemetry = scenario.run(quick=True, telemetry=True)
        without_telemetry = scenario.run(quick=True, telemetry=False)
        assert set(with_telemetry) == set(without_telemetry)
        for variant in with_telemetry:
            assert (_strip_observability(with_telemetry[variant])
                    == _strip_observability(without_telemetry[variant])), (
                f"{scenario_name}/{variant} diverged with telemetry off"
            )

    def test_synthetic_scenario_identical_without_telemetry(self):
        scenario = Scenario(
            name="lockstep_tiny",
            title="lockstep tiny",
            topology=lambda: linear_chain(2, link_rate_bps=2e6),
            demands=[
                Demand(src="h_src", dst="h_dst", kind="poisson",
                       rate_bps=1.2e6, packet_size=500, flow="p"),
                Demand(src="h_src", dst="h_dst", kind="cbr",
                       rate_bps=4e5, packet_size=300, flow="c"),
            ],
            variants={"FIFO": fifo_variant},
            duration=0.2,
        )
        on = scenario.run(telemetry=True)["FIFO"]
        off = scenario.run(telemetry=False)["FIFO"]
        assert _strip_observability(on) == _strip_observability(off)
        assert on.delivered() > 0
