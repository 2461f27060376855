"""Hot-path profiling harness: measure and profile the simulation kernel.

The throughput workloads the benchmarks use — a CBR overload pushed end to
end through the canonical fabric topologies — are packaged here so that
``repro perf`` (and any interactive session) can answer two questions
without spelunking in ``benchmarks/``:

* **How fast is the datapath right now?**  ``run_workload`` drives a
  workload to completion and reports packets/second, events/second and the
  packet-pool hit statistics.
* **Where does the time go?**  ``profile_workload`` wraps the same run in
  :mod:`cProfile` and returns the hottest functions, which is exactly the
  loop used to build the slotted-packet / tuple-heap hot path.

Workloads are deterministic (CBR arrivals, fixed topologies) so two
invocations on the same machine measure the same simulation.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .algorithms import ArrivalSequenceTransaction, FIFOTransaction
from .core.packet import pool_size
from .core.scheduler import ProgrammableScheduler
from .core.tree import single_node_tree
from .lang.treekernel import kernel_cache_info
from .net import Fabric, leaf_spine, linear_chain
from .obs.resources import rss_peak_bytes
from .sim.simulator import Simulator
from .traffic.flows import FlowSpec
from .traffic.generators import cbr_arrivals

#: Packet size used by the throughput workloads (bytes).
PACKET_SIZE = 500
#: Link rate of every fabric link in the workloads.
LINK_RATE_BPS = 1e9
#: Offered load as a fraction of the line rate (heavy but loss-free).
LOAD_FRACTION = 0.9


def _fifo_factory(tree_kernel: bool) -> Callable[[str, str], ProgrammableScheduler]:
    """Arrival-sequence FIFO: integer monotone ranks run on every backend."""
    def factory(switch: str, port: str) -> ProgrammableScheduler:
        return ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction()),
            tree_kernel=tree_kernel,
        )
    return factory


def _host_factory(tree_kernel: bool) -> Callable[[str, str], ProgrammableScheduler]:
    """Host NIC FIFO honouring the run's tree-kernel switch."""
    def factory(switch: str, port: str) -> ProgrammableScheduler:
        return ProgrammableScheduler(
            single_node_tree(FIFOTransaction()),
            tree_kernel=tree_kernel,
        )
    return factory


def _build_chain(sim: Simulator, packets: int, pifo_backend, telemetry: bool,
                 tree_kernel: bool = True) -> Fabric:
    """CBR overload across a 3-switch linear chain."""
    fabric = Fabric(sim, linear_chain(3, link_rate_bps=LINK_RATE_BPS),
                    _fifo_factory(tree_kernel), pifo_backend=pifo_backend,
                    keep_packets=False, telemetry=telemetry,
                    host_scheduler_factory=_host_factory(tree_kernel),
                    fused_delivery=None if tree_kernel else False)
    duration = packets * PACKET_SIZE * 8.0 / (LOAD_FRACTION * LINK_RATE_BPS)
    spec = FlowSpec(name="load", rate_bps=LOAD_FRACTION * LINK_RATE_BPS,
                    packet_size=PACKET_SIZE, dst="h_dst")
    # Workloads are pre-materialised (same policy as the campaign
    # workload cache): arrival construction happens here, before the
    # timed section, so the measurement is the datapath, not the traffic
    # generator.
    fabric.attach_source("h_src", list(cbr_arrivals(spec, duration=duration)))
    return fabric


def _build_leaf_spine(sim: Simulator, packets: int, pifo_backend,
                      telemetry: bool, tree_kernel: bool = True) -> Fabric:
    """Four cross-leaf CBR senders over a 4x2 leaf-spine Clos with ECMP."""
    fabric = Fabric(sim, leaf_spine(leaves=4, spines=2, hosts_per_leaf=1,
                                    host_rate_bps=LINK_RATE_BPS),
                    _fifo_factory(tree_kernel), ecmp=True,
                    pifo_backend=pifo_backend,
                    keep_packets=False, telemetry=telemetry,
                    host_scheduler_factory=_host_factory(tree_kernel),
                    fused_delivery=None if tree_kernel else False)
    pairs = [("h0_0", "h2_0"), ("h1_0", "h3_0"),
             ("h2_0", "h0_0"), ("h3_0", "h1_0")]
    per_sender = max(1, packets // len(pairs))
    duration = per_sender * PACKET_SIZE * 8.0 / (LOAD_FRACTION * LINK_RATE_BPS)
    for src, dst in pairs:
        spec = FlowSpec(name=f"{src}->{dst}",
                        rate_bps=LOAD_FRACTION * LINK_RATE_BPS,
                        packet_size=PACKET_SIZE, src=src, dst=dst)
        # Pre-materialised for the same reason as _build_chain.
        fabric.attach_source(src, list(cbr_arrivals(spec, duration=duration)))
    return fabric


#: Workload name -> fabric builder
#: ``(sim, packets, pifo_backend, telemetry, tree_kernel)``.
WORKLOADS: Dict[str, Callable[..., Fabric]] = {
    "chain3": _build_chain,
    "leaf_spine4x2": _build_leaf_spine,
}


@dataclass
class PerfResult:
    """Outcome of one :func:`run_workload` measurement."""

    workload: str
    pifo_backend: Optional[str]
    telemetry: bool
    packets: int
    delivered: int
    elapsed_s: float
    events: int
    pool_recycled: int
    #: Whether the fused tree kernel (and fused fabric delivery) was on.
    tree_kernel: bool = True
    #: Kernel-cache activity during this run (deltas of
    #: :func:`repro.lang.treekernel.kernel_cache_info`).
    kernel_cache_hits: int = 0
    kernel_compiles: int = 0
    kernel_installs: int = 0
    kernel_fallbacks: int = 0
    #: Process RSS high-water mark (MiB) when the result is built: after the run.
    rss_peak_mb: float = field(default_factory=lambda: rss_peak_bytes() / 2**20)

    @property
    def packets_per_second(self) -> float:
        return self.delivered / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def events_per_second(self) -> float:
        return self.events / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def datapath(self) -> str:
        """One-line description of the datapath variant that was measured."""
        kernels = "fused kernels" if self.tree_kernel else "interpreted"
        return f"{kernels} · telemetry={'on' if self.telemetry else 'off'}"

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "pifo_backend": self.pifo_backend,
            "telemetry": self.telemetry,
            "packets": self.packets,
            "delivered": self.delivered,
            "elapsed_s": self.elapsed_s,
            "packets_per_second": self.packets_per_second,
            "events": self.events,
            "events_per_second": self.events_per_second,
            "pool_recycled": self.pool_recycled,
            "tree_kernel": self.tree_kernel,
            "kernel_cache_hits": self.kernel_cache_hits,
            "kernel_compiles": self.kernel_compiles,
            "kernel_installs": self.kernel_installs,
            "kernel_fallbacks": self.kernel_fallbacks,
            "rss_peak_mb": self.rss_peak_mb,
        }


@dataclass
class ProfileResult:
    """Outcome of one :func:`profile_workload` run."""

    perf: PerfResult
    #: ``(function, calls, tottime, cumtime)`` rows, hottest first.
    hotspots: List[tuple] = field(default_factory=list)
    text: str = ""


def run_workload(
    workload: str = "chain3",
    packets: int = 10_000,
    pifo_backend: Optional[str] = "sorted",
    telemetry: bool = False,
    tree_kernel: bool = True,
) -> PerfResult:
    """Drive one throughput workload to completion and time it.

    ``telemetry`` defaults to off — the sweep configuration the hot path is
    tuned for; pass ``True`` to measure the figure-run configuration.
    ``tree_kernel=False`` measures the interpreted reference datapath
    (no fused scheduler kernels, no fused fabric delivery).
    """
    try:
        builder = WORKLOADS[workload]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(
            f"unknown perf workload {workload!r}; known workloads: {known}"
        ) from None
    pool_before = pool_size()
    cache_before = kernel_cache_info()
    sim = Simulator()
    fabric = builder(sim, packets, pifo_backend, telemetry, tree_kernel)
    # The timed section runs with the cyclic collector paused (the campaign
    # workers do the same): the datapath allocates at a rate that makes
    # gen-0 sweeps a double-digit share of wall time, and the slotted
    # packet/event objects are acyclic.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        fabric.run(drain=True)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    if fabric.in_flight_packets() != 0:
        raise RuntimeError(
            f"perf workload {workload!r} left packets in flight: "
            f"{fabric.conservation_check()}"
        )
    cache_after = kernel_cache_info()
    return PerfResult(
        workload=workload,
        pifo_backend=pifo_backend,
        telemetry=telemetry,
        packets=packets,
        delivered=fabric.delivered_packets,
        elapsed_s=elapsed,
        events=sim.events_processed,
        pool_recycled=max(0, pool_size() - pool_before),
        tree_kernel=tree_kernel,
        kernel_cache_hits=cache_after["hits"] - cache_before["hits"],
        kernel_compiles=cache_after["misses"] - cache_before["misses"],
        kernel_installs=cache_after["installs"] - cache_before["installs"],
        kernel_fallbacks=cache_after["fallbacks"] - cache_before["fallbacks"],
    )


def profile_workload(
    workload: str = "chain3",
    packets: int = 10_000,
    pifo_backend: Optional[str] = "sorted",
    telemetry: bool = False,
    tree_kernel: bool = True,
    top: int = 20,
) -> ProfileResult:
    """Run a workload under :mod:`cProfile` and return the hottest functions.

    The reported throughput is measured with the profiler attached and is
    therefore 2-3x below :func:`run_workload` numbers — use it for relative
    cost, not absolute rate.
    """
    try:
        builder = WORKLOADS[workload]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(
            f"unknown perf workload {workload!r}; known workloads: {known}"
        ) from None
    pool_before = pool_size()
    cache_before = kernel_cache_info()
    sim = Simulator()
    fabric = builder(sim, packets, pifo_backend, telemetry, tree_kernel)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    fabric.run(drain=True)
    profiler.disable()
    elapsed = time.perf_counter() - started
    # Same accounting as run_workload: the kernel-cache deltas identify
    # *which* datapath was actually profiled (installs > 0 means the fused
    # kernels ran; fallbacks > 0 means something refused to fuse), so the
    # hotspot listing is never silently attributed to the wrong backend.
    cache_after = kernel_cache_info()
    perf = PerfResult(
        workload=workload,
        pifo_backend=pifo_backend,
        telemetry=telemetry,
        packets=packets,
        delivered=fabric.delivered_packets,
        elapsed_s=elapsed,
        events=sim.events_processed,
        pool_recycled=max(0, pool_size() - pool_before),
        tree_kernel=tree_kernel,
        kernel_cache_hits=cache_after["hits"] - cache_before["hits"],
        kernel_compiles=cache_after["misses"] - cache_before["misses"],
        kernel_installs=cache_after["installs"] - cache_before["installs"],
        kernel_fallbacks=cache_after["fallbacks"] - cache_before["fallbacks"],
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream).sort_stats("tottime")
    stats.print_stats(top)
    hotspots = []
    for func, (cc, nc, tottime, cumtime, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][2], reverse=True
    )[:top]:
        filename, line, name = func
        label = f"{filename.rsplit('/', 1)[-1]}:{line}({name})"
        hotspots.append((label, nc, tottime, cumtime))
    return ProfileResult(perf=perf, hotspots=hotspots, text=stream.getvalue())
