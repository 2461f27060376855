"""Lockstep equivalence: the fused datapath is pure specialisation.

The fused whole-tree kernels (:mod:`repro.lang.treekernel`) and the fused
fabric delivery closures (:meth:`repro.net.Fabric._fuse_hot_path`) replace
the interpreted per-packet machinery with generated straight-line code.
These tests pin the contract that makes that safe — and that the ISSUE's
acceptance criterion demands: a fused run produces the *identical* packet
departure order, departure times, per-flow aggregates and conservation
counters as the interpreted reference, across random tree shapes, PIFO
backends and telemetry modes.

The hypothesis suite drives a 3-switch chain fabric with randomised
arrival processes over a catalog of scheduler trees (FIFO, arrival
sequence, STFQ, two-level WFQ, HPFQ, and the shaping hierarchies: Fig. 4
from programs and native, Jitter-EDD, Hierarchical Round Robin); the
scenario tests pin the built-in fig6/leaf-spine experiments.  The
interpreted reference is obtained by pinning ``tree_kernel=False``
(scheduler kernels off) together with ``fused_delivery=False`` (fabric
fusion off) — the exact PR 5 datapath.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ArrivalSequenceTransaction,
    FIFOTransaction,
    STFQTransaction,
    build_fig3_tree,
    build_fig4_tree,
    build_hierarchical_round_robin_tree,
    build_jitter_edd_tree,
    build_wfq_tree,
)
from repro.core import ProgrammableScheduler, single_node_tree
from repro.core.packet import Packet
from repro.lang.trees import build_fig4_tree_from_programs
from repro.net import Fabric, get_scenario, linear_chain
from repro.sim import Simulator

#: Tree catalog: label -> (tree builder, flow universe the tree routes).
TREES = {
    "fifo": (lambda: single_node_tree(FIFOTransaction()),
             ["x", "y", "z"]),
    "arrival_seq": (lambda: single_node_tree(ArrivalSequenceTransaction()),
                    ["x", "y", "z"]),
    "stfq": (lambda: single_node_tree(
        STFQTransaction(weights={"x": 2.0, "y": 1.0})),
        ["x", "y", "z"]),
    "wfq2": (lambda: build_wfq_tree({"x": 3.0, "y": 1.0}),
             ["x", "y"]),
    "hpfq_fig3": (build_fig3_tree, ["A", "B", "C", "D"]),
    # Shaping: the walk suspends at the shaped node and resumes from the
    # calendar, and the port has to arm a wake-up instead of cutting through.
    "fig4_programs": (build_fig4_tree_from_programs, ["A", "B", "C", "D"]),
    "fig4_native": (build_fig4_tree, ["A", "B", "C", "D"]),
    "jitter_edd": (lambda: build_jitter_edd_tree({"x": 1e-4, "y": 3e-4}),
                   ["x", "y", "z"]),
    "hrr_stop_and_go": (lambda: build_hierarchical_round_robin_tree(
        {"fine": {"x": 1.0}, "coarse": {"y": 1.0, "z": 1.0}},
        {"fine": 2e-4, "coarse": 5e-4}),
        ["x", "y", "z"]),
}

SHAPED_TREES = ["fig4_programs", "fig4_native", "jitter_edd",
                "hrr_stop_and_go"]

BACKENDS = ["sorted", "calendar", "quantized"]


def _factory(tree_builder, tree_kernel):
    def factory(switch, port):
        return ProgrammableScheduler(tree_builder(),
                                     tree_kernel=tree_kernel)
    return factory


def _run_chain(tree_builder, arrivals, backend, telemetry, fused):
    sim = Simulator()
    fabric = Fabric(
        sim,
        linear_chain(3, link_rate_bps=1e8),
        _factory(tree_builder, tree_kernel=fused),
        pifo_backend=backend,
        telemetry=telemetry,
        keep_packets=True,
        fused_delivery=None if fused else False,
    )
    if fused:
        assert fabric.fused_ports > 0 or telemetry
    else:
        assert fabric.fused_ports == 0
    fabric.attach_source("h_src", arrivals)
    fabric.run(drain=True)
    return fabric


def _observables(fabric):
    sink = fabric.sink("h_dst")
    return {
        "order": sink.departure_order(),
        "departures": [p.departure_time for p in sink.packets],
        "conservation": fabric.conservation_check(),
        "aggregates": {
            flow: (agg.packets, agg.bytes, agg.mean_delay, agg.delay_max)
            for flow, agg in sink.aggregates.items()
        },
        "node_counters": {
            node: (switch.stats.received, switch.stats.transmitted,
                   switch.stats.dropped_admission,
                   switch.stats.dropped_scheduler)
            for node, switch in fabric.node_switches.items()
        },
    }


#: One random arrival stream: (gap_us, flow index, length) per packet.
#: Gaps land on a coarse grid (multiples of 10 us, often zero) so
#: same-timestamp events and idle/busy port transitions both occur —
#: the regimes where the batch drain and the cut-through transfer kernel
#: take different code paths from the interpreted engine.
arrival_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=64, max_value=1500),
    ),
    min_size=1,
    max_size=60,
)


def _build_arrivals(steps, flows):
    # Fractions keep arrival timestamps exact so both runs see identical
    # floats after conversion.
    out, time = [], Fraction(0)
    for gap, flow_index, length in steps:
        time += Fraction(gap, 100_000)
        # Odd lengths carry the Jitter-EDD metadata, even ones none at all
        # (the shared-empty-fields path).
        fields = ({"jitter_slack": (length % 7) * 2e-5,
                   "delay_bound": (length % 5) * 1e-4}
                  if length % 2 else None)
        out.append((float(time),
                    Packet(flow=flows[flow_index % len(flows)],
                           length=length, dst="h_dst", fields=fields)))
    return out


class TestHypothesisLockstep:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        steps=arrival_steps,
        tree_label=st.sampled_from(sorted(TREES)),
        backend=st.sampled_from(BACKENDS),
        telemetry=st.booleans(),
    )
    def test_fused_identical_to_interpreted(self, steps, tree_label,
                                            backend, telemetry):
        tree_builder, flows = TREES[tree_label]
        fused = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           backend, telemetry, fused=True)
        plain = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           backend, telemetry, fused=False)
        assert _observables(fused) == _observables(plain)

    @pytest.mark.parametrize("tree_label", SHAPED_TREES)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        steps=arrival_steps,
        backend=st.sampled_from(["sorted", "calendar", "quantized"]),
        telemetry=st.booleans(),
    )
    def test_shaped_trees_identical_to_interpreted(self, tree_label, steps,
                                                   backend, telemetry):
        tree_builder, flows = TREES[tree_label]
        fused = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           backend, telemetry, fused=True)
        for switch in fused.node_switches.values():
            for port in switch.ports.values():
                assert port.scheduler.tree_kernel is not None
        plain = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           backend, telemetry, fused=False)
        assert _observables(fused) == _observables(plain)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=arrival_steps)
    def test_telemetry_hops_identical_when_fused(self, steps):
        tree_builder, flows = TREES["fifo"]
        fused = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           "sorted", True, fused=True)
        plain = _run_chain(tree_builder, _build_arrivals(steps, flows),
                           "sorted", True, fused=False)
        hops_fused = [[h[0] for h in p.hops] for p in fused.sink("h_dst").packets]
        hops_plain = [[h[0] for h in p.hops] for p in plain.sink("h_dst").packets]
        assert hops_fused == hops_plain


class TestScenarioLockstep:
    @pytest.mark.parametrize("scenario_name", ["fig6_chain", "leaf_spine_fct"])
    def test_builtin_scenarios_identical_interpreted(self, scenario_name):
        scenario = get_scenario(scenario_name)
        fused = scenario.run(quick=True)
        plain = scenario.run(quick=True, tree_kernel=False)
        assert set(fused) == set(plain)
        for variant in fused:
            a, b = fused[variant], plain[variant]
            assert a.conservation == b.conservation
            assert a.flow_stats == b.flow_stats
            assert a.fct == b.fct
            assert a.fct_short == b.fct_short

    def test_tree_kernel_true_pins_kernels_on(self):
        scenario = get_scenario("fig6_chain")

        def switch_schedulers(tree_kernel):
            fabrics = []
            scenario.run(quick=True, tree_kernel=tree_kernel,
                         trace_hook=fabrics.append)
            schedulers = [
                port.scheduler
                for fabric in fabrics
                for name, switch in fabric.node_switches.items()
                if not fabric.network.is_host(name)
                for port in switch.ports.values()
            ]
            assert schedulers and all(
                isinstance(s, ProgrammableScheduler) for s in schedulers)
            return schedulers

        assert all(s.tree_kernel is not None
                   for s in switch_schedulers(True))
        assert all(s.tree_kernel is None
                   and s.kernel_fallback_reason == "disabled"
                   for s in switch_schedulers(False))
