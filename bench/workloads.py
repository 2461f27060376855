"""The five benchmark workloads: inputs, the timed call, and output checks.

Every workload has the same three-step life, driven by ``bench/harness.py``:

* ``prepare(seed, scale)`` — untimed: generate the inputs and build the
  topology / fabric / scenario / campaign (this is what ``setup_s``
  measures, after ``import repro``);
* ``execute(prepared)`` — the timed section, one call into the public API
  a user of the simulator would make;
* ``collect(prepared, result)`` — untimed: read the simulated statistics
  and counters back through public accessors and check the outputs.

The builders here deliberately do not reuse ``repro.perf.WORKLOADS``: the
benchmark owns its inputs, so a later edit to ``repro.perf`` cannot
silently change what is measured.  Sizes are constants (``packets`` at
``scale=1``); ``--smoke`` and the traced run shrink them by ``scale``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import ArrivalSequenceTransaction, FIFOTransaction
from repro.campaign import (
    PAPER_SWEEP,
    Campaign,
    CampaignRunner,
    ResultStore,
    RunSpec,
    active_cache,
    record_is_ok,
    reset_cache,
    strip_timing,
)
from repro.core import ProgrammableScheduler, single_node_tree
from repro.lang.compiler import clear_compile_cache
from repro.lang.treekernel import clear_kernel_cache
from repro.lang.trees import build_fig4_tree_from_programs
from repro.net import Fabric, get_scenario, linear_chain
from repro.sim import Simulator
from repro.traffic import FlowSpec, cbr_arrivals, merge_arrivals

#: Simulated statistics every workload reports (``simstat.<name>``).  A
#: change that only speeds the simulator up must leave all of them, and
#: the ``sim_digest``, identical.
SIMSTAT_NAMES = ("delivered_pkts", "dropped_pkts", "mean_delay_us",
                 "max_delay_us", "end_time_s")


def load_jitter(seed: int) -> float:
    """Offered-load factor in [0.995, 1.005] derived from ``--seed``.

    The two seeded workloads draw heavy-tailed flows; feeding the seed into
    their ``base_seed`` makes ``pkts_per_s`` differ by 11 % and the sweep's
    wall time by 10x from one seed to the next (bench/README.md has the
    table), so runs at different seeds could not be compared.  The seed
    scales the offered load instead: every arrival time changes, the flow
    sizes stay, and seed 0 is the registered scenario unchanged.
    """
    return 1.0 + ((seed * 7919 + 20) % 41 - 20) * 0.00025


@dataclass
class Outcome:
    """What one repetition produced, as read back after the timed section."""

    #: Packets delivered to sinks: the numerator of ``pkts_per_s``.
    delivered: int
    #: Operations attempted (1 per repetition; 1 per RunSpec for a campaign).
    operations: int
    #: One message per failed operation.
    failures: List[str]
    #: Hex digest over the per-flow simulated aggregates.
    sim_digest: str
    simstat: Dict[str, float]
    #: Counters read through public accessors (see ``harness.COUNTER_NAMES``).
    counters: Dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Shared read-back helpers                                                     #
# --------------------------------------------------------------------------- #
def _digest(parts: Sequence[Any]) -> str:
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _fabric_readback(fabric: Fabric) -> Tuple[Dict[str, int], Dict[str, float],
                                               str, Dict[str, float]]:
    """Conservation counters, simstat, digest and counters of a finished fabric."""
    conservation = fabric.conservation_check()
    packets = 0
    delay_sum = 0.0
    delay_max = 0.0
    parts: List[Any] = [sorted(conservation.items()), float.hex(fabric.sim.now)]
    for host in sorted(fabric.host_sinks):
        for flow, agg in sorted(fabric.sink(host).aggregates.items()):
            packets += agg.packets
            delay_sum += agg.delay_sum
            delay_max = max(delay_max, agg.delay_max)
            # float.hex: the digest must notice a one-ulp difference.
            parts.append([host, flow, agg.packets, agg.bytes,
                          float.hex(agg.delay_sum), float.hex(agg.delay_max)])
    delivered = conservation["delivered"]
    simstat = {
        "delivered_pkts": delivered,
        "dropped_pkts": conservation["dropped"],
        "mean_delay_us": 1e6 * delay_sum / packets if packets else 0.0,
        "max_delay_us": 1e6 * delay_max,
        "end_time_s": fabric.sim.now,
    }
    ports = sum(len(switch.ports) for switch in fabric.node_switches.values())
    injected = conservation["injected"]
    counters = {
        "sim.simulator.events_per_pkt":
            fabric.sim.events_processed / delivered if delivered else 0.0,
        "net.fabric.fused_port_share": fabric.fused_ports / ports,
        "switch.drop_share":
            conservation["dropped"] / injected if injected else 0.0,
    }
    return conservation, simstat, _digest(parts), counters


def _conservation_failure(conservation: Dict[str, int]) -> Optional[str]:
    """The identity every run must keep, with nothing left inside the fabric."""
    c = conservation
    if c["in_flight"] != 0:
        return f"packets left in flight: {c}"
    if c["injected"] != (c["delivered"] + c["dropped"]
                         + c["lost_to_faults"] + c["in_flight"]):
        return f"conservation identity broken: {c}"
    return None


# --------------------------------------------------------------------------- #
# Chain workloads: fifo_chain3, fifo_chain3_reference, hpfq_shaped_chain3      #
# --------------------------------------------------------------------------- #
def _fifo_schedulers(tree_kernel: bool):
    """Fabric arguments: arrival-sequence FIFO on switches, FIFO on host NICs."""
    def switch_factory(switch: str, port: str) -> ProgrammableScheduler:
        return ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            tree_kernel=tree_kernel)

    def host_factory(switch: str, port: str) -> ProgrammableScheduler:
        return ProgrammableScheduler(single_node_tree(FIFOTransaction()),
                                     tree_kernel=tree_kernel)

    return {"scheduler_factory": switch_factory,
            "host_scheduler_factory": host_factory}


def _fig4_schedulers(tree_kernel: bool):
    """The paper's Fig. 4 hierarchy, from program text, on every switch port
    (host NICs keep the fabric's default FIFO)."""
    def switch_factory(switch: str, port: str) -> ProgrammableScheduler:
        return ProgrammableScheduler(build_fig4_tree_from_programs())

    return {"scheduler_factory": switch_factory}


#: Fig. 4 caps class Right (flows C and D) at 10 Mbit/s with a 3000 B burst.
RIGHT_RATE_BPS = 10e6
RIGHT_BURST_BYTES = 3000.0


def _fifo_invariant(fabric: Fabric, conservation: Dict[str, int],
                    full_size: bool) -> Optional[str]:
    """0.9 load through FIFOs: nothing may drop and everything must arrive."""
    if conservation["dropped"] != 0:
        return f"FIFO chain dropped {conservation['dropped']} packets"
    if conservation["delivered"] < 0.99 * conservation["injected"]:
        return f"FIFO chain delivered under 99 %: {conservation}"
    return None


def _right_shaped_invariant(fabric: Fabric, conservation: Dict[str, int],
                            full_size: bool) -> Optional[str]:
    """Class Right may not beat its token bucket over the whole run."""
    aggregates = fabric.sink("h_dst").aggregates
    right_bytes = sum(aggregates[f].bytes for f in ("C", "D") if f in aggregates)
    # One MTU of slack per hop for packets already past the shaper.
    allowed = (RIGHT_RATE_BPS / 8.0 * fabric.sim.now + RIGHT_BURST_BYTES
               + 3 * 1500)
    if right_bytes > allowed:
        return (f"class Right delivered {right_bytes} B, token bucket allows "
                f"{allowed:.0f} B in {fabric.sim.now:.3f} s")
    # Only the full-size input is long enough to fill 12 MB.
    if full_size and conservation["dropped"] == 0:
        return "140 % overload did not fill the shared buffer (no drops)"
    return None


@dataclass(frozen=True)
class ChainWorkload:
    """CBR flows h_src -> h_dst across a 3-switch ``linear_chain``."""

    name: str
    #: Total packets offered at ``scale=1``.
    packets: int
    link_rate_bps: float
    packet_size: int
    #: ``(flow name, offered rate in bit/s)``.
    flows: Tuple[Tuple[str, float], ...]
    #: ``tree_kernel -> Fabric keyword arguments`` choosing the schedulers.
    schedulers: Callable[[bool], Dict[str, Any]]
    #: Reference datapath: interpreted scheduler, unfused delivery,
    #: telemetry on, sinks keep every packet.
    reference: bool
    invariant: Callable[[Fabric, Dict[str, int], bool], Optional[str]]

    def describe(self, seed: int, scale: int) -> Dict[str, Any]:
        return {"packets": max(200, self.packets // scale),
                "seed_effect": "none: CBR input, seedless"}

    def prepare(self, seed: int, scale: int) -> Tuple[Fabric, bool]:
        packets = self.describe(seed, scale)["packets"]
        fabric = Fabric(
            Simulator(),
            linear_chain(3, link_rate_bps=self.link_rate_bps),
            keep_packets=self.reference,
            telemetry=self.reference,
            fused_delivery=False if self.reference else None,
            **self.schedulers(not self.reference),
        )
        offered_bps = sum(rate for _, rate in self.flows)
        duration = packets * self.packet_size * 8.0 / offered_bps
        streams = [
            cbr_arrivals(FlowSpec(name=flow, rate_bps=rate,
                                  packet_size=self.packet_size, dst="h_dst"),
                         duration=duration)
            for flow, rate in self.flows
        ]
        # Pre-materialised: the timed section is the datapath, not the
        # traffic generator (which setup_s and traffic.cbr_ns_per_pkt cover).
        fabric.attach_source("h_src", list(merge_arrivals(*streams)))
        return fabric, scale == 1

    def execute(self, prepared: Tuple[Fabric, bool]) -> None:
        prepared[0].run(drain=True)

    def collect(self, prepared: Tuple[Fabric, bool], result: None) -> Outcome:
        fabric, full_size = prepared
        conservation, simstat, digest, counters = _fabric_readback(fabric)
        failure = (_conservation_failure(conservation)
                   or self.invariant(fabric, conservation, full_size))
        return Outcome(
            delivered=conservation["delivered"],
            operations=1,
            failures=[failure] if failure else [],
            sim_digest=digest,
            simstat=simstat,
            counters=counters,
        )


FIFO_CHAIN3 = ChainWorkload(
    name="fifo_chain3",
    packets=100_000,
    link_rate_bps=1e9,
    packet_size=500,
    flows=(("load", 0.9e9),),
    schedulers=_fifo_schedulers,
    reference=False,
    invariant=_fifo_invariant,
)

FIFO_CHAIN3_REFERENCE = dataclasses.replace(
    FIFO_CHAIN3, name="fifo_chain3_reference", packets=50_000, reference=True)

HPFQ_SHAPED_CHAIN3 = ChainWorkload(
    name="hpfq_shaped_chain3",
    packets=20_000,
    link_rate_bps=100e6,
    packet_size=1500,
    # 140 % of the line rate; Right (C + D) is shaped to 10 Mbit/s, so its
    # backlog fills the 12 MB shared buffer of the first switch and drops.
    flows=(("A", 30e6), ("B", 30e6), ("C", 40e6), ("D", 40e6)),
    schedulers=_fig4_schedulers,
    reference=False,
    invariant=_right_shaped_invariant,
)


# --------------------------------------------------------------------------- #
# srpt_incast_leafspine: a registered scenario, timed around Scenario.run      #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioWorkload:
    """One variant of a registered scenario, as ``repro run`` would call it."""

    name: str
    scenario: str
    variant: str
    #: Simulated seconds at ``scale=1``.
    duration: float

    def describe(self, seed: int, scale: int) -> Dict[str, Any]:
        return {"simulated_s": self.duration / scale,
                "seed_effect": f"offered load x {load_jitter(seed):.5f}"}

    def prepare(self, seed: int, scale: int) -> Dict[str, Any]:
        scenario = dataclasses.replace(
            get_scenario(self.scenario),
            duration=self.describe(seed, scale)["simulated_s"])
        return {"scenario": scenario, "load_scale": load_jitter(seed),
                "fabrics": [], "full_size": scale == 1}

    def execute(self, prepared: Dict[str, Any]):
        # trace_hook only hands back the fabric, so the counters can be
        # read through its public accessors afterwards.
        return prepared["scenario"].run(
            variant=self.variant, load_scale=prepared["load_scale"],
            telemetry=False,
            trace_hook=prepared["fabrics"].append)[self.variant]

    def collect(self, prepared: Dict[str, Any], result) -> Outcome:
        (fabric,) = prepared["fabrics"]
        conservation, simstat, digest, counters = _fabric_readback(fabric)
        failures = []
        failure = _conservation_failure(conservation)
        if failure is None and result.conservation != conservation:
            failure = (f"ScenarioResult disagrees with the fabric: "
                       f"{result.conservation} != {conservation}")
        if (failure is None and prepared["full_size"]
                and (result.fct is None or result.fct.count == 0)):
            failure = "no flow completed: the FCT summary is empty"
        if failure:
            failures.append(failure)
        fct = result.fct
        digest = _digest([digest, fct.count if fct else 0,
                          float.hex(fct.mean) if fct else None])
        return Outcome(
            delivered=conservation["delivered"], operations=1,
            failures=failures, sim_digest=digest, simstat=simstat,
            counters=counters,
        )


SRPT_INCAST_LEAFSPINE = ScenarioWorkload(
    name="srpt_incast_leafspine",
    scenario="leaf_spine_fct",
    variant="SRPT",
    duration=1.0,
)


# --------------------------------------------------------------------------- #
# campaign_sweep48: paper_sweep, serial, timed around CampaignRunner.run       #
# --------------------------------------------------------------------------- #
@dataclass
class _JitteredSweep(Campaign):
    """A campaign whose runs offer ``jitter`` x the load, on the same seeds.

    ``load_scales=(jitter,)`` would not do: the load scale is part of
    ``workload_id``, from which every run's seed is derived, so it would
    draw entirely different flows for every ``--seed``.
    """

    jitter: float = 1.0

    def expand(self, quick: bool = False) -> List[RunSpec]:
        return [dataclasses.replace(spec, load_scale=self.jitter)
                for spec in super().expand(quick=quick)]


@dataclass(frozen=True)
class CampaignWorkload:
    """``paper_sweep`` x replicates, quick, one worker, fresh store."""

    name: str
    replicates: int

    def _campaign(self, seed: int, scale: int) -> _JitteredSweep:
        # 48 runs at full size; the traced run (scale 5) drops the replicates
        # (24 runs); a smoke run also drops the heavy scenario (12 runs) but
        # keeps every PIFO and lang back end.
        return _JitteredSweep(
            name=PAPER_SWEEP.name,
            title=PAPER_SWEEP.title,
            scenarios=PAPER_SWEEP.scenarios if scale <= 5 else ["fig6_chain"],
            pifo_backends=PAPER_SWEEP.pifo_backends,
            lang_backends=PAPER_SWEEP.lang_backends,
            replicates=self.replicates if scale == 1 else 1,
            jitter=load_jitter(seed))

    def describe(self, seed: int, scale: int) -> Dict[str, Any]:
        return {"runs": self._campaign(seed, scale).size(),
                "seed_effect": f"offered load x {load_jitter(seed):.5f}"}

    def prepare(self, seed: int, scale: int) -> Dict[str, Any]:
        campaign = self._campaign(seed, scale)
        # Every repetition is a user's fresh `repro campaign run`: cold
        # kernel, program and workload caches, empty store.
        clear_kernel_cache()
        clear_compile_cache()
        reset_cache()
        tmp = Path(tempfile.mkdtemp(prefix="bench_campaign_",
                                    dir=scratch_dir()))
        runner = CampaignRunner(campaign, ResultStore(tmp / "store.jsonl"),
                                workers=1, quick=True)
        return {"runner": runner, "tmp": tmp, "size": campaign.size()}

    def execute(self, prepared: Dict[str, Any]):
        return prepared["runner"].run()

    def collect(self, prepared: Dict[str, Any], report) -> Outcome:
        shutil.rmtree(prepared["tmp"], ignore_errors=True)
        records = report.records
        failures = [
            f"{r.get('run_id')}: {r.get('status')} {r.get('error', '')}"
            for r in records if not record_is_ok(r)
        ]
        if len(records) != prepared["size"]:
            failures.append(f"{len(records)} records for a run table of "
                            f"{prepared['size']}")
        ok = [r for r in records if record_is_ok(r)]
        for r in ok:
            if r["injected"] != (r["delivered"] + r["dropped"]
                                 + r["lost_to_faults"] + r["in_flight"]):
                failures.append(f"{r['run_id']}: conservation identity broken")
        delivered = sum(r["delivered"] for r in ok)
        injected = sum(r["injected"] for r in ok)
        dropped = sum(r["dropped"] for r in ok)
        weighted_delay = sum(r["delivered"] * r["mean_delay"] for r in ok
                             if r["mean_delay"] is not None)
        simstat = {
            "delivered_pkts": delivered,
            "dropped_pkts": dropped,
            "mean_delay_us": 1e6 * weighted_delay / delivered if delivered else 0.0,
            "max_delay_us": 1e6 * max((r["max_delay"] or 0.0 for r in ok),
                                      default=0.0),
            # Simulated seconds summed over the runs of the sweep.
            "end_time_s": sum(r["duration"] for r in ok),
        }
        cache = active_cache()
        info = cache.info() if cache is not None else {"hits": 0, "misses": 0}
        lookups = info["hits"] + info["misses"]
        counters = {
            "sim.simulator.events_per_pkt":
                sum(r["events"] for r in ok) / delivered if delivered else 0.0,
            "switch.drop_share": dropped / injected if injected else 0.0,
            "campaign.workload_cache.hit_share":
                info["hits"] / lookups if lookups else 0.0,
        }
        digest = _digest([sorted(strip_timing(r).items()) for r in records])
        return Outcome(
            delivered=delivered, operations=max(1, len(records)),
            failures=failures, sim_digest=digest, simstat=simstat,
            counters=counters,
        )


def scratch_dir() -> str:
    """Temp stores live inside the checkout (``bench/out/tmp``), never /tmp."""
    path = Path(__file__).resolve().parent / "out" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


CAMPAIGN_SWEEP48 = CampaignWorkload(
    name="campaign_sweep48", replicates=2)


#: Name -> workload, in the order the one command runs them.
WORKLOADS = {
    workload.name: workload
    for workload in (FIFO_CHAIN3, HPFQ_SHAPED_CHAIN3, SRPT_INCAST_LEAFSPINE,
                     FIFO_CHAIN3_REFERENCE, CAMPAIGN_SWEEP48)
}

#: The fast-vs-reference lockstep check runs this many packets of
#: fifo_chain3's input through both datapaths.
LOCKSTEP_PACKETS = 20_000


def lockstep_failure(scale: int) -> Optional[str]:
    """Run fifo_chain3's input on both datapaths; they must agree exactly."""
    outcomes = []
    for workload in (FIFO_CHAIN3, FIFO_CHAIN3_REFERENCE):
        sized = dataclasses.replace(workload, packets=LOCKSTEP_PACKETS)
        prepared = sized.prepare(seed=0, scale=scale)
        sized.execute(prepared)
        outcomes.append(sized.collect(prepared, None))
    fast, reference = outcomes
    if fast.sim_digest != reference.sim_digest or fast.simstat != reference.simstat:
        return (f"fast and reference datapaths disagree: "
                f"{fast.sim_digest} {fast.simstat} != "
                f"{reference.sim_digest} {reference.simstat}")
    return None
