"""Declarative fabric scenarios: topology + traffic matrix + schedulers.

A :class:`Scenario` is a description, not a run: a topology builder, a list
of :class:`Demand` entries (the traffic matrix), one or more named
scheduler *variants* (e.g. ``{"SRPT": ..., "FIFO": ...}``, each a
:data:`VariantBuilder`) and a duration.
``Scenario.run()`` instantiates a fresh :class:`~repro.net.fabric.Fabric`
per variant, replays the demands, and returns a :class:`ScenarioResult`
per variant with per-flow delay aggregates, flow-completion times, packet
conservation counters and per-node/per-port switch stats — everything the
experiment registry and the CLI report need.

Scenarios register themselves in :data:`SCENARIOS` via :func:`register`,
the fabric-level analogue of the experiment registry in
:mod:`repro.reporting.experiments` (which wraps the built-in scenarios so
``repro run``/``repro list`` see them).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.packet import Packet
from ..core.seeds import derive_seed
from ..exceptions import ConservationError, TrafficError
from ..metrics.fct import FCTSummary, flow_completions_from_sink
from ..sim.simulator import Simulator
from ..traffic.distributions import web_search_flow_sizes
from ..traffic.flows import FlowSpec
from ..traffic.generators import (
    cbr_arrivals,
    flow_arrivals,
    merge_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)
from .fabric import Fabric, SchedulerFactory
from .faults import FaultPlan
from .topology import Network

Arrival = Tuple[float, Packet]


def _accepts_seed(callable_obj) -> bool:
    """Whether an explicit-arrivals callable takes a ``seed`` argument."""
    try:
        parameters = inspect.signature(callable_obj).parameters
    except (TypeError, ValueError):  # builtins without introspectable sigs
        return False
    return "seed" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


#: Flows at or below this size count as "short" in FCT summaries, matching
#: the band the datacenter-transport literature (and the single-port
#: Section 3.4 benchmark) reports separately.
SHORT_FLOW_BYTES = 100_000


@dataclass
class Demand:
    """One entry of a scenario's traffic matrix.

    ``kind`` selects the generator:

    * ``"cbr"`` / ``"poisson"`` / ``"onoff"`` — a single long-lived flow at
      ``rate_bps`` from ``src`` to ``dst``;
    * ``"flows"`` — finite flows (Poisson arrivals, heavy-tailed sizes)
      offered at ``rate_bps`` aggregate load, packets tagged with the
      SJF/SRPT/LAS metadata — the FCT workload;
    * ``"explicit"`` — caller-provided ``(time, packet)`` pairs via
      ``arrivals`` (packets are stamped with ``src``/``dst``).  Pass a
      *callable* returning the pairs so every scheduler variant replays an
      identical fresh stream; if the callable accepts a ``seed``
      parameter it is called with the demand's effective seed, so
      randomised explicit mixes respond to the scenario base seed (and
      campaign replicates) like the built-in generators do.

    ``seed`` defaults to ``None``, meaning the effective seed is *derived*
    from ``(scenario base seed, flow name)`` with
    :func:`~repro.core.seeds.derive_seed` — several poisson/onoff/flows
    demands in one scenario get independent streams instead of all sampling
    the identical sequence.  An explicit ``seed=`` pins the stream
    regardless of the scenario's base seed.
    """

    src: str
    dst: str
    rate_bps: float = 0.0
    kind: str = "cbr"
    flow: Optional[str] = None
    packet_size: int = 1500
    start_time: float = 0.0
    duration: Optional[float] = None
    seed: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)
    arrivals: Optional[Iterable[Arrival]] = None

    def flow_name(self) -> str:
        return self.flow if self.flow is not None else f"{self.src}->{self.dst}"

    def effective_seed(self, base_seed: int = 0) -> int:
        """The RNG seed this demand uses under the given scenario base seed."""
        if self.seed is not None:
            return self.seed
        return derive_seed(base_seed, self.flow_name())

    def build_arrivals(self, scenario_duration: float, base_seed: int = 0,
                       load_scale: float = 1.0) -> Iterable[Arrival]:
        duration = (self.duration if self.duration is not None
                    else scenario_duration)
        if load_scale <= 0:
            raise TrafficError(f"load_scale must be positive, got {load_scale}")
        if self.kind == "explicit":
            if self.arrivals is None:
                raise TrafficError("explicit demand needs an arrivals iterable")
            if callable(self.arrivals):
                if _accepts_seed(self.arrivals):
                    arrivals = self.arrivals(seed=self.effective_seed(base_seed))
                else:
                    arrivals = self.arrivals()
            else:
                arrivals = self.arrivals
            return self._address(arrivals)
        seed = self.effective_seed(base_seed)
        spec = FlowSpec(
            name=self.flow_name(),
            rate_bps=self.rate_bps * load_scale,
            packet_size=self.packet_size,
            start_time=self.start_time,
            fields=dict(self.fields),
            src=self.src,
            dst=self.dst,
        )
        if self.kind == "cbr":
            return cbr_arrivals(spec, duration=duration)
        if self.kind == "poisson":
            return poisson_arrivals(spec, duration=duration, seed=seed)
        if self.kind == "onoff":
            return onoff_arrivals(spec, duration=duration, seed=seed)
        if self.kind == "flows":
            return self._address(flow_arrivals(
                f"{self.flow_name()}:",
                load_bps=self.rate_bps * load_scale,
                duration=duration,
                size_distribution=web_search_flow_sizes(),
                packet_size=self.packet_size,
                seed=seed,
                src=self.src,
                dst=self.dst,
            ), fields=self.fields)
        raise TrafficError(f"unknown demand kind {self.kind!r}")

    def _address(self, arrivals: Iterable[Arrival],
                 fields: Optional[Dict[str, Any]] = None) -> Iterable[Arrival]:
        for time, packet in arrivals:
            if packet.src is None:
                packet.src = self.src
            if packet.dst is None:
                packet.dst = self.dst
            if fields:
                for key, value in fields.items():
                    # Packet.set (not a direct fields write): zero-metadata
                    # packets share an immutable empty mapping.
                    if key not in packet.fields:
                        packet.set(key, value)
            yield time, packet


@dataclass
class ScenarioResult:
    """Outcome of one scenario variant."""

    scenario: str
    variant: str
    duration: float
    conservation: Dict[str, int]
    #: flow label -> {packets, bytes, mean/max delay}
    flow_stats: Dict[str, Dict[str, Any]]
    #: Per-destination-host FCT summary over completed flows (``"flows"``
    #: demands only; ``None`` when nothing completed).
    fct: Optional[FCTSummary]
    #: FCT summary over short flows (<= :data:`SHORT_FLOW_BYTES`) — the band
    #: SRPT-style scheduling is judged on.
    fct_short: Optional[FCTSummary]
    stats_by_node: Dict[str, Dict]
    #: Fault-injection outcome (topology changes, loss by cause); empty
    #: when the scenario runs without a fault plan.
    fault_summary: Dict[str, Any] = field(default_factory=dict)
    #: Simulator events processed for this variant — deterministic for a
    #: given scenario/seed, and the denominator behind the campaign
    #: records' ``events_per_s``.
    events: int = 0

    def delivered(self) -> int:
        return self.conservation["delivered"]

    def lost_to_faults(self) -> int:
        return self.conservation.get("lost_to_faults", 0)

    def flow_delay(self, flow: str, which: str = "max") -> Optional[float]:
        stats = self.flow_stats.get(flow)
        return None if stats is None else stats.get(f"{which}_delay")

    def check_conservation(self) -> Dict[str, int]:
        """Assert the packet-conservation identity; returns the counters.

        Raises :class:`~repro.exceptions.ConservationError` unless
        ``injected == delivered + dropped + lost_to_faults + in_flight`` —
        a violated identity means the fabric leaked or double-counted
        packets, which is always a bug.
        """
        c = self.conservation
        accounted = (c["delivered"] + c["dropped"]
                     + c.get("lost_to_faults", 0) + c["in_flight"])
        if c["injected"] != accounted:
            raise ConservationError(
                f"scenario {self.scenario!r} variant {self.variant!r} "
                f"leaked packets: injected={c['injected']} != "
                f"delivered={c['delivered']} + dropped={c['dropped']} + "
                f"lost_to_faults={c.get('lost_to_faults', 0)} + "
                f"in_flight={c['in_flight']} (= {accounted})"
            )
        return c


def _pin_tree_kernel(factory: SchedulerFactory) -> SchedulerFactory:
    """Wrap a scheduler factory to turn the fused kernels off."""
    def pinned(switch: str, port: str):
        scheduler = factory(switch, port)
        set_kernel = getattr(scheduler, "set_tree_kernel", None)
        if set_kernel is not None:
            set_kernel(False)
        return scheduler
    return pinned


#: One scheduler variant: ``lang_backend -> (switch, port) -> scheduler``.
#: The outer call fixes the transaction-language execution backend
#: (``"compiled"`` / ``"interpreted"``; ``None`` is the default compiled
#: program), so sweeping engines can compare both backends of the *same*
#: program on the identical workload.
VariantBuilder = Callable[[Optional[str]], SchedulerFactory]


@dataclass
class Scenario:
    """A runnable fabric experiment description."""

    name: str
    title: str
    topology: Callable[[], Network]
    demands: List[Demand]
    #: Variant label -> its :data:`VariantBuilder`.
    variants: Mapping[str, VariantBuilder]
    duration: float
    ecmp: bool = False
    keep_packets: bool = False
    quick_duration: Optional[float] = None
    #: Base seed for derived per-demand seeds (see :meth:`Demand.effective_seed`).
    base_seed: int = 0
    #: Optional fault schedule executed against every variant's fabric —
    #: link/switch failures and probabilistic loss (see
    #: :mod:`repro.net.faults`).  Identical plan per variant, so variants
    #: stay paired under faults exactly as they are under traffic.
    fault_plan: Optional[FaultPlan] = None
    paper_reference: str = ""
    notes: str = ""

    def scheduler_factory(self, label: str,
                          lang_backend: Optional[str] = None) -> SchedulerFactory:
        """Resolve one variant label to a per-port scheduler factory."""
        if label not in self.variants:
            known = ", ".join(self.variants)
            raise KeyError(
                f"unknown variant {label!r} of scenario {self.name!r}; "
                f"known variants: {known}"
            )
        return self.variants[label](lang_backend)

    def run(self, quick: bool = False, pifo_backend=None,
            variant: Optional[str] = None,
            lang_backend: Optional[str] = None,
            load_scale: float = 1.0,
            base_seed: Optional[int] = None,
            telemetry: bool = True,
            tree_kernel: bool = True,
            trace_hook: Optional[Callable[[Fabric], None]] = None,
            workload_cache=None,
            ) -> Dict[str, ScenarioResult]:
        """Run each scheduler variant on a fresh fabric; results by label.

        ``lang_backend`` selects the transaction-language execution
        backend every variant's programs run on (``None``: the default
        compiled programs); ``load_scale`` multiplies every rate-driven
        demand's offered load (explicit arrival lists replay unscaled);
        ``base_seed`` overrides the scenario's base seed for derived
        per-demand seeds.

        ``telemetry=False`` (campaign sweeps) skips per-hop traces and
        per-port stat breakdowns; departure order, per-flow aggregates,
        FCT summaries and conservation counters are identical either way
        (the in-band ``prev_wait_time`` stamp LSTF consumes is always
        maintained) — only ``stats_by_node``'s ``per_port`` maps come back
        empty.

        ``tree_kernel`` selects the datapath: ``True`` (default) keeps
        each scheduler's fused whole-tree kernel
        (:mod:`repro.lang.treekernel`; on, minus unfusable trees) and
        fused fabric delivery; ``False`` pins the interpreted scheduler
        *and* interpreted fabric delivery — the reference datapath.

        ``trace_hook`` is called with each variant's fabric after
        construction and before any traffic: the observability layer's
        seam for attaching a :class:`repro.obs.TraceCollector`.  The
        collector needs the wrappable interpreted path, so pass
        ``tree_kernel=False``; it raises on a fabric with fused ports.

        ``workload_cache`` (a
        :class:`repro.campaign.workload_cache.WorkloadCache`) replays
        this run's arrival schedule and topology from the cache instead
        of rebuilding them — campaign workers pass their process cache so
        paired runs stop regenerating the identical workload.  Replays
        are observably identical to a rebuild (fresh packets stamped from
        recorded prototypes, in the recorded merge order).
        """
        duration = (self.quick_duration if quick and self.quick_duration
                    else self.duration)
        seed = self.base_seed if base_seed is None else base_seed
        selected = ([variant] if variant is not None else list(self.variants))
        results: Dict[str, ScenarioResult] = {}
        for label in selected:
            factory = self.scheduler_factory(label, lang_backend)
            if not tree_kernel:
                factory = _pin_tree_kernel(factory)
            sim = Simulator()
            fabric = Fabric(
                sim,
                (workload_cache.topology_for(self)
                 if workload_cache is not None else self.topology()),
                factory,
                ecmp=self.ecmp,
                pifo_backend=pifo_backend,
                keep_packets=self.keep_packets,
                telemetry=telemetry,
                fused_delivery=None if tree_kernel else False,
                fault_plan=self.fault_plan,
            )
            if trace_hook is not None:
                trace_hook(fabric)
            if workload_cache is not None:
                protos = workload_cache.arrivals_for(
                    self, duration, base_seed=seed, load_scale=load_scale)
                for host in sorted(protos):
                    fabric.attach_source(
                        host, workload_cache.replay(protos[host]))
            else:
                by_host: Dict[str, List[Iterable[Arrival]]] = {}
                for demand in self.demands:
                    by_host.setdefault(demand.src, []).append(
                        demand.build_arrivals(duration, base_seed=seed,
                                              load_scale=load_scale)
                    )
                for host, streams in sorted(by_host.items()):
                    fabric.attach_source(host, merge_arrivals(*streams))
            fabric.run(until=duration, drain=True)
            results[label] = self._collect(fabric, label, duration)
        return results

    def _collect(self, fabric: Fabric, label: str,
                 duration: float) -> ScenarioResult:
        flow_stats: Dict[str, Dict[str, Any]] = {}
        completions = []
        for host in sorted(fabric.host_sinks):
            sink = fabric.host_sinks[host]
            for flow, aggregate in sorted(sink.aggregates.items()):
                flow_stats[flow] = {
                    "dst": host,
                    "packets": aggregate.packets,
                    "bytes": aggregate.bytes,
                    "mean_delay": aggregate.mean_delay,
                    "max_delay": aggregate.delay_max,
                }
            completions.extend(flow_completions_from_sink(sink))
        short = [c for c in completions if c.size_bytes <= SHORT_FLOW_BYTES]
        result = ScenarioResult(
            scenario=self.name,
            variant=label,
            duration=duration,
            conservation=fabric.conservation_check(),
            flow_stats=flow_stats,
            fct=FCTSummary.from_completions(completions) if completions else None,
            fct_short=FCTSummary.from_completions(short) if short else None,
            stats_by_node=fabric.stats_by_node(),
            fault_summary=fabric.fault_summary(),
            events=fabric.sim.events_processed,
        )
        # Every run asserts the conservation identity — a leak anywhere in
        # the datapath (fused or interpreted, faulted or not) fails fast.
        result.check_conservation()
        return result


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (idempotent by name)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown scenario {name!r}; known scenarios: {known}"
        ) from None


def list_scenarios() -> List[Scenario]:
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]
