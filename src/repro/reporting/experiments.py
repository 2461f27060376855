"""Runners for every quantitative experiment in the paper.

Each runner executes one table or figure of the paper on this library's
substrate and returns an :class:`ExperimentResult`: an identifier, a title,
structured rows (paper value next to measured value wherever the paper
states a number) and free-form notes about what to look for.

The registry :data:`EXPERIMENTS` maps experiment identifiers to runners and
is what the CLI, the report generator and the integration tests iterate
over.  Runners accept a ``quick`` flag so interactive use stays fast; the
modules under ``benchmarks/`` run the same experiments at full length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..algorithms import (
    FIG4_RIGHT_RATE_BPS,
    FIFOTransaction,
    StopAndGoShapingTransaction,
    build_fig3_tree,
    build_fig4_tree,
    build_min_rate_tree,
    build_wfq_tree,
    worst_case_delay_bound,
)
from ..core import MatchAll, ProgrammableScheduler, ScheduleTree, TreeNode
from ..hardware.area_model import (
    MeshDesign,
    parameter_variation_rows,
    table2_rows,
)
from ..hardware.atoms import AtomPipelineAnalyzer
from ..lang.analysis import spec_from_program
from ..lang.programs import PROGRAM_SOURCES, PROGRAM_STATE, SHAPING_PROGRAMS
from ..metrics import weighted_jain_index
from ..sim import OutputPort, PacketSource, Simulator
from ..traffic import FlowSpec, cbr_arrivals, merge_arrivals, onoff_arrivals


@dataclass
class ExperimentResult:
    """Structured outcome of one reproduced experiment."""

    experiment_id: str
    title: str
    rows: List[Dict]
    notes: str = ""
    #: Section/figure/table reference in the paper.
    paper_reference: str = ""
    #: Structured extras too bulky for the text table (for example the
    #: fabric scenarios' per-node/per-port switch counters); included in
    #: ``--json`` output only.
    details: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """JSON-friendly representation (used by the CLI's --json flag)."""
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "notes": self.notes,
            "rows": self.rows,
        }
        if self.details:
            payload["details"] = self.details
        return payload


# --------------------------------------------------------------------------- #
# Simulation helper                                                           #
# --------------------------------------------------------------------------- #
def _run_overload(
    tree,
    flow_rates_bps: Mapping[str, float],
    link_rate_bps: float,
    duration_s: float,
    packet_size: int = 1500,
):
    """Drive a scheduling tree with CBR flows on one output port."""
    sim = Simulator()
    scheduler = ProgrammableScheduler(tree)
    port = OutputPort(sim, scheduler, rate_bps=link_rate_bps, name="port0")
    streams = [
        cbr_arrivals(
            FlowSpec(name=flow, rate_bps=rate, packet_size=packet_size),
            duration=duration_s,
        )
        for flow, rate in flow_rates_bps.items()
        if rate > 0
    ]
    PacketSource(sim, port, merge_arrivals(*streams))
    sim.run(until=duration_s)
    return port


# --------------------------------------------------------------------------- #
# Hardware evaluation (Section 5)                                             #
# --------------------------------------------------------------------------- #
#: Component areas Table 1 states, in mm^2 (the last entry is a percentage).
PAPER_TABLE1_MM2 = {
    "flow_scheduler": 0.224,
    "rank_store": 0.445,
    "next_pointers": 0.148,
    "free_list": 0.148,
    "head_tail_count": 0.1476,
    "one_block": 1.11,
    "mesh_blocks": 5.55,
    "atoms": 1.8,
    "total": 7.35,
    "overhead_percent": 3.7,
}


def run_table1(quick: bool = False) -> ExperimentResult:
    """Table 1 — chip-area breakdown of a 5-block PIFO mesh."""
    design = MeshDesign()
    model = design.table1()
    rows = []
    for component, paper_value in PAPER_TABLE1_MM2.items():
        measured = model.get(component)
        rows.append(
            {
                "component": component,
                "paper": paper_value,
                "model": measured,
                "unit": "%" if component == "overhead_percent" else "mm^2",
            }
        )
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1: 5-block PIFO mesh area overhead",
        rows=rows,
        paper_reference="Section 5.3, Table 1",
        notes=(
            "Analytic area model calibrated to the published per-component "
            "figures; the headline claim is <4% overhead on a 200 mm^2 chip."
        ),
    )


def run_table2(quick: bool = False) -> ExperimentResult:
    """Table 2 — flow-scheduler area and timing vs number of flows."""
    rows = [
        {
            "flows": row["flows"],
            "paper_area_mm2": row["paper_area_mm2"],
            "model_area_mm2": row["model_area_mm2"],
            "paper_meets_1GHz": row["paper_meets_timing"],
            "model_meets_1GHz": row["model_meets_timing"],
        }
        for row in table2_rows()
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2: flow-scheduler scaling with the number of flows",
        rows=rows,
        paper_reference="Section 5.3, Table 2",
        notes="Area grows linearly with flows; timing closes up to 2048 flows.",
    )


def run_sec53_variations(quick: bool = False) -> ExperimentResult:
    """Section 5.3 — flow-scheduler area under parameter variations."""
    rows = [
        {
            "variation": row["variation"],
            "paper_area_mm2": row["paper_area_mm2"],
            "model_area_mm2": row["model_area_mm2"],
            "meets_1GHz": row["meets_timing"],
        }
        for row in parameter_variation_rows()
    ]
    return ExperimentResult(
        experiment_id="sec5.3",
        title="Section 5.3: rank width / logical PIFOs / metadata variations",
        rows=rows,
        paper_reference="Section 5.3",
        notes="All variations keep meeting timing at 1 GHz; only area moves.",
    )


def run_sec54_wiring(quick: bool = False) -> ExperimentResult:
    """Section 5.4 — full-mesh wiring cost between PIFO blocks."""
    design = MeshDesign()
    rows = [
        {"quantity": "wire sets (5-block full mesh)", "paper": 20,
         "model": design.wire_sets()},
        {"quantity": "bits per wire set", "paper": 106,
         "model": design.bits_per_wire_set()},
        {"quantity": "total mesh wires", "paper": 2120,
         "model": design.total_mesh_wires()},
    ]
    return ExperimentResult(
        experiment_id="sec5.4",
        title="Section 5.4: interconnecting PIFO blocks",
        rows=rows,
        paper_reference="Section 5.4",
        notes="A few thousand wires; RMT moves ~2x more between two stages.",
    )


def run_sec41_atoms(quick: bool = False) -> ExperimentResult:
    """Section 4.1 — every paper transaction mapped onto atom pipelines."""
    analyzer = AtomPipelineAnalyzer()
    rows = []
    for name in sorted(PROGRAM_SOURCES):
        kind = "shaping" if name in SHAPING_PROGRAMS else "scheduling"
        spec = spec_from_program(
            name, PROGRAM_SOURCES[name], state=PROGRAM_STATE[name], kind=kind
        )
        pipeline = analyzer.analyze(spec)
        rows.append(
            {
                "transaction": name,
                "kind": kind,
                "feasible": pipeline.feasible,
                "atoms": pipeline.total_atoms,
                "pipeline_depth": pipeline.pipeline_depth,
                "area_mm2": pipeline.area_mm2,
            }
        )
    return ExperimentResult(
        experiment_id="sec4.1",
        title="Section 4.1: transactions compiled onto Domino-style atoms",
        rows=rows,
        paper_reference="Section 4.1",
        notes=(
            "Every figure's transaction fits the atom vocabulary; the whole "
            "set uses a small fraction of the 300-atom budget."
        ),
    )


# --------------------------------------------------------------------------- #
# Behavioural experiments (Sections 2 and 3)                                   #
# --------------------------------------------------------------------------- #
LINK_RATE_BPS = 100e6


def run_fig1_wfq(quick: bool = False) -> ExperimentResult:
    """Figure 1 / Section 2.1 — STFQ delivers weighted fair shares."""
    duration = 0.03 if quick else 0.1
    weights = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
    tree = build_wfq_tree(weights)
    port = _run_overload(
        tree, {flow: LINK_RATE_BPS for flow in weights}, LINK_RATE_BPS, duration
    )
    shares = port.sink.share_by_flow(start=duration * 0.2, end=duration)
    total_weight = sum(weights.values())
    rows = [
        {
            "flow": flow,
            "weight": weight,
            "expected_share": weight / total_weight,
            "measured_share": shares.get(flow, 0.0),
        }
        for flow, weight in weights.items()
    ]
    fairness = weighted_jain_index(
        {flow: shares.get(flow, 0.0) for flow in weights}, weights
    )
    return ExperimentResult(
        experiment_id="fig1",
        title="Figure 1: STFQ weighted max-min shares under overload",
        rows=rows,
        paper_reference="Figure 1, Section 2.1",
        notes=f"Weighted Jain index of the measured shares: {fairness:.4f}.",
    )


def run_fig3_hpfq(quick: bool = False) -> ExperimentResult:
    """Figure 3 / Section 2.2 — HPFQ hierarchy 1:9, 3:7, 4:6."""
    duration = 0.03 if quick else 0.05
    expected = {"A": 0.03, "B": 0.07, "C": 0.36, "D": 0.54}
    port = _run_overload(
        build_fig3_tree(), {flow: LINK_RATE_BPS for flow in "ABCD"},
        LINK_RATE_BPS, duration,
    )
    shares = port.sink.share_by_flow(start=duration * 0.2, end=duration)
    rows = [
        {
            "flow": flow,
            "expected_share": expected[flow],
            "measured_share": shares.get(flow, 0.0),
        }
        for flow in "ABCD"
    ]
    rows.append({
        "flow": "Left (A+B)",
        "expected_share": 0.10,
        "measured_share": shares.get("A", 0.0) + shares.get("B", 0.0),
    })
    rows.append({
        "flow": "Right (C+D)",
        "expected_share": 0.90,
        "measured_share": shares.get("C", 0.0) + shares.get("D", 0.0),
    })
    return ExperimentResult(
        experiment_id="fig3",
        title="Figure 3: HPFQ class and flow shares",
        rows=rows,
        paper_reference="Figure 3, Section 2.2",
        notes="Link splits 1:9 across classes, then 3:7 and 4:6 within them.",
    )


def run_fig4_shaping(quick: bool = False) -> ExperimentResult:
    """Figure 4 / Section 2.3 — Right class capped at 10 Mbit/s."""
    duration = 0.05 if quick else 0.1
    offered_loads = (5e6, 50e6) if quick else (5e6, 20e6, 50e6)
    rows = []
    for offered in offered_loads:
        port = _run_overload(
            build_fig4_tree(),
            {"A": 30e6, "B": 30e6, "C": offered, "D": offered},
            LINK_RATE_BPS,
            duration,
        )
        start = duration * 0.2
        right = sum(
            port.sink.throughput_bps(flow=flow, start=start, end=duration)
            for flow in "CD"
        )
        left = sum(
            port.sink.throughput_bps(flow=flow, start=start, end=duration)
            for flow in "AB"
        )
        rows.append(
            {
                "offered_right_Mbps": 2 * offered / 1e6,
                "cap_Mbps": FIG4_RIGHT_RATE_BPS / 1e6,
                "measured_right_Mbps": right / 1e6,
                "measured_left_Mbps": left / 1e6,
            }
        )
    return ExperimentResult(
        experiment_id="fig4",
        title="Figure 4: Hierarchies with Shaping (Right limited to 10 Mbit/s)",
        rows=rows,
        paper_reference="Figure 4, Section 2.3",
        notes=(
            "Right stays at the cap no matter the offered load; Left remains "
            "work conserving and absorbs the rest of the link."
        ),
    )


def run_fig6_lstf(quick: bool = False) -> ExperimentResult:
    """Figure 6 / Section 3.1 — LSTF across a 3-hop chain vs per-hop FIFO.

    Runs the ``fig6_chain`` fabric scenario: the urgent/bulk mix traverses
    three switches with cross traffic entering at every hop, the fabric
    stamps each hop's queueing delay into the packet, and LSTF re-ranks on
    remaining slack at every switch.  This is the claim the paper actually
    makes ("minimises urgent-packet delay *across hops*"), which a single
    congested port cannot exercise.
    """
    from ..net.scenarios import FIG6_CHAIN, URGENT_SLACK

    results = FIG6_CHAIN.run(quick=quick)
    rows = []
    details: Dict[str, Dict] = {"per_node_stats": {}}
    for name, result in results.items():
        urgent = result.flow_stats.get("urgent", {})
        bulk = result.flow_stats.get("bulk", {})
        max_urgent = urgent.get("max_delay")
        rows.append(
            {
                "scheduler": name,
                "hops": 3,
                "urgent_slack_budget_ms": URGENT_SLACK * 1e3,
                "max_urgent_delay_ms": max_urgent * 1e3 if max_urgent else None,
                "meets_budget": (max_urgent is not None
                                 and max_urgent <= URGENT_SLACK),
                "mean_bulk_delay_ms": (bulk.get("mean_delay") or 0.0) * 1e3,
                "urgent_packets": urgent.get("packets", 0),
            }
        )
        details["per_node_stats"][name] = result.stats_by_node
    return ExperimentResult(
        experiment_id="fig6",
        title="Figure 6: LSTF vs per-hop FIFO urgent delay on a 3-switch chain",
        rows=rows,
        paper_reference="Figure 6, Section 3.1",
        notes=(
            "End-to-end urgent delay over the fabric: LSTF meets the 20 ms "
            "slack budget at every hop count; per-hop FIFO misses it as "
            "queues build."
        ),
        details=details,
    )


def run_leaf_spine_fct(quick: bool = False) -> ExperimentResult:
    """Section 3.4 on a fabric — SRPT vs FIFO FCT over a 4x2 leaf-spine."""
    from ..net.scenarios import LEAF_SPINE_FCT

    results = LEAF_SPINE_FCT.run(quick=quick)
    rows = []
    details: Dict[str, Dict] = {"per_node_stats": {}}
    for name, result in results.items():
        fct, short = result.fct, result.fct_short
        rows.append(
            {
                "scheduler": name,
                "flows": fct.count if fct else 0,
                "mean_fct_ms": fct.mean * 1e3 if fct else None,
                "p99_fct_ms": fct.p99 * 1e3 if fct else None,
                "short_mean_fct_ms": short.mean * 1e3 if short else None,
                "short_p99_fct_ms": short.p99 * 1e3 if short else None,
                "delivered_packets": result.delivered(),
                "dropped_packets": result.conservation["dropped"],
            }
        )
        details["per_node_stats"][name] = result.stats_by_node
    return ExperimentResult(
        experiment_id="leaf_spine_fct",
        title="Section 3.4 on a fabric: SRPT vs FIFO FCT, 4-leaf/2-spine Clos",
        rows=rows,
        paper_reference="Section 3.4",
        notes=(
            "Identical heavy-tailed workload (two senders incast per "
            "receiver, ECMP over both spines) under both schedulers: SRPT "
            "shortens mean FCT and the short-flow tail."
        ),
        details=details,
    )


def run_chain_flap(quick: bool = False) -> ExperimentResult:
    """Robustness — LSTF vs FIFO on a chain with a flapping link."""
    from ..net.scenarios import CHAIN_FLAP

    results = CHAIN_FLAP.run(quick=quick)
    rows = []
    details: Dict[str, Dict] = {"conservation": {}}
    for name, result in results.items():
        counters = result.check_conservation()
        urgent = result.flow_stats.get("urgent", {})
        max_urgent = urgent.get("max_delay")
        rows.append(
            {
                "scheduler": name,
                "delivered": counters["delivered"],
                "dropped": counters["dropped"],
                "lost_to_faults": counters["lost_to_faults"],
                "topology_changes": result.fault_summary.get(
                    "topology_changes", 0),
                "max_urgent_delay_ms": (max_urgent * 1e3
                                        if max_urgent else None),
            }
        )
        details["conservation"][name] = counters
    return ExperimentResult(
        experiment_id="chain_flap",
        title="Fault injection: flapping chain link with lossy tail hop",
        rows=rows,
        paper_reference="robustness extension (not in paper)",
        notes=(
            "The s1-s2 link flaps down/up three times while s2-s3 drops "
            "0.5% of packets; the chain has no alternate path, so packets "
            "arriving during an outage blackhole into lost_to_faults and "
            "injected == delivered + dropped + lost_to_faults + in_flight "
            "is verified for every variant."
        ),
        details=details,
    )


def run_dead_spine(quick: bool = False) -> ExperimentResult:
    """Robustness — leaf-spine incast with one spine failing mid-run."""
    from ..net.scenarios import DEAD_SPINE

    results = DEAD_SPINE.run(quick=quick)
    rows = []
    details: Dict[str, Dict] = {"conservation": {}}
    for name, result in results.items():
        counters = result.check_conservation()
        fct = result.fct
        rows.append(
            {
                "scheduler": name,
                "delivered": counters["delivered"],
                "dropped": counters["dropped"],
                "lost_to_faults": counters["lost_to_faults"],
                "flows_completed": fct.count if fct else 0,
                "mean_fct_ms": fct.mean * 1e3 if fct else None,
            }
        )
        details["conservation"][name] = counters
    return ExperimentResult(
        experiment_id="dead_spine",
        title="Fault injection: spine switch dies under ECMP incast",
        rows=rows,
        paper_reference="robustness extension (not in paper)",
        notes=(
            "spine1 fails 15 ms in; ECMP routing reconverges onto spine0 "
            "and the incast completes over half the fabric capacity. "
            "Conservation is verified for every variant."
        ),
        details=details,
    )


def run_fig7_stop_and_go(quick: bool = False) -> ExperimentResult:
    """Figure 7 / Section 3.2 — framing bounds per-hop delay by 2T."""
    frame = 0.010
    link_rate = 100e6
    duration = 0.2 if quick else 0.5

    root = TreeNode(name="Root", scheduling=FIFOTransaction())
    root.add_child(
        TreeNode(
            name="Framed",
            predicate=MatchAll(),
            scheduling=FIFOTransaction(),
            shaping=StopAndGoShapingTransaction(frame_length=frame),
        )
    )
    sim = Simulator()
    port = OutputPort(sim, ProgrammableScheduler(ScheduleTree(root)), rate_bps=link_rate)
    spec = FlowSpec(name="bursty", rate_bps=40e6, packet_size=1500)
    PacketSource(
        sim, port,
        onoff_arrivals(spec, duration=duration, mean_on_s=0.005, mean_off_s=0.02,
                       seed=11),
    )
    sim.run(until=duration)
    delays = [p.total_delay for p in port.sink.packets]
    rows = [
        {
            "frame_T_ms": frame * 1e3,
            "packets": len(delays),
            "min_delay_ms": (min(delays) * 1e3) if delays else None,
            "max_delay_ms": (max(delays) * 1e3) if delays else None,
            "bound_2T_ms": worst_case_delay_bound(frame) * 1e3,
        }
    ]
    return ExperimentResult(
        experiment_id="fig7",
        title="Figure 7: Stop-and-Go per-hop delay bound",
        rows=rows,
        paper_reference="Figure 7, Section 3.2",
        notes=(
            "Every packet departs at the end of its arrival frame: delay is "
            "bounded by 2T and never ~0 (non-work-conserving)."
        ),
    )


def run_fig8_min_rate(quick: bool = False) -> ExperimentResult:
    """Figure 8 / Section 3.3 — a 20 Mbit/s guarantee under overload."""
    duration = 0.05 if quick else 0.1
    link_rate = 50e6
    guarantee = 20e6
    tree = build_min_rate_tree(
        ["guaranteed", "bulk"], {"guaranteed": guarantee}, burst_bytes=6000
    )
    port = _run_overload(
        tree, {"guaranteed": 25e6, "bulk": 100e6}, link_rate, duration
    )
    start = duration * 0.2
    guaranteed_rate = port.sink.throughput_bps(flow="guaranteed", start=start, end=duration)
    bulk_rate = port.sink.throughput_bps(flow="bulk", start=start, end=duration)
    rows = [
        {"flow": "guaranteed", "offered_Mbps": 25.0, "guarantee_Mbps": guarantee / 1e6,
         "measured_Mbps": guaranteed_rate / 1e6},
        {"flow": "bulk", "offered_Mbps": 100.0, "guarantee_Mbps": None,
         "measured_Mbps": bulk_rate / 1e6},
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title="Figure 8: minimum-rate guarantee under overload",
        rows=rows,
        paper_reference="Figure 8, Section 3.3",
        notes=(
            "The guaranteed flow holds its floor; the best-effort flow soaks "
            "up the remaining link capacity."
        ),
    )


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: identifier, short description, runner."""

    experiment_id: str
    description: str
    paper_reference: str
    runner: Callable[[bool], ExperimentResult]


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        ExperimentSpec("table1", "5-block PIFO mesh chip-area breakdown",
                       "Table 1", run_table1),
        ExperimentSpec("table2", "Flow-scheduler scaling with number of flows",
                       "Table 2", run_table2),
        ExperimentSpec("sec5.3", "Flow-scheduler parameter variations",
                       "Section 5.3", run_sec53_variations),
        ExperimentSpec("sec5.4", "Full-mesh wiring between PIFO blocks",
                       "Section 5.4", run_sec54_wiring),
        ExperimentSpec("sec4.1", "Transactions mapped onto Domino-style atoms",
                       "Section 4.1", run_sec41_atoms),
        ExperimentSpec("fig1", "STFQ weighted fair shares",
                       "Figure 1", run_fig1_wfq),
        ExperimentSpec("fig3", "HPFQ hierarchical shares",
                       "Figure 3", run_fig3_hpfq),
        ExperimentSpec("fig4", "Hierarchies with Shaping rate cap",
                       "Figure 4", run_fig4_shaping),
        ExperimentSpec("fig6", "LSTF vs per-hop FIFO on a 3-switch chain",
                       "Figure 6", run_fig6_lstf),
        ExperimentSpec("leaf_spine_fct", "SRPT vs FIFO FCT on a leaf-spine fabric",
                       "Section 3.4", run_leaf_spine_fct),
        ExperimentSpec("chain_flap", "Fault injection: flapping chain link",
                       "robustness extension", run_chain_flap),
        ExperimentSpec("dead_spine", "Fault injection: spine switch failure",
                       "robustness extension", run_dead_spine),
        ExperimentSpec("fig7", "Stop-and-Go delay bound",
                       "Figure 7", run_fig7_stop_and_go),
        ExperimentSpec("fig8", "Minimum-rate guarantee under overload",
                       "Figure 8", run_fig8_min_rate),
    )
}


def list_experiments() -> List[ExperimentSpec]:
    """Registry entries in a stable display order."""
    return [EXPERIMENTS[key] for key in EXPERIMENTS]


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment; raises ``KeyError`` with the known ids."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: {known}"
        ) from None


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by identifier."""
    return get_experiment(experiment_id).runner(quick)
