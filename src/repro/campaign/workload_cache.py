"""Cross-run workload memoisation for campaign workers.

A campaign's run table deliberately reuses workloads: runs that differ
only in scheduler variant, PIFO backend or lang backend share a
``workload_id`` (and therefore a derived seed), so they replay the
*identical* arrival stream — that is what makes them paired comparisons.
Serially, every such run still pays to rebuild the stream from scratch:
topology construction, RNG-driven generator machinery, and one
:class:`~repro.core.packet.Packet` allocation per arrival.

This module memoises that work inside the executing process (each warm
engine worker holds its own cache instance, as does a serial runner): the
first run of a workload materialises every demand's arrivals into plain
tuples, and subsequent runs *replay* them — fresh ``Packet`` objects
stamped from the recorded prototypes, in the recorded order — without
touching the generators at all.  Replays are observably identical to a
rebuild by construction: the prototype captures exactly the constructor
arguments the generators used, and per-packet metadata dicts are copied
per replay so in-run mutation (LSTF stamps, SRPT remaining-size updates)
never leaks between runs.

The cache is a bounded LRU keyed on ``(scenario, duration, seed,
load_scale)`` — the same factor levels that define ``workload_id`` plus
the quick/full duration switch.  Topologies are cached per scenario and
shared across runs *only* for fault-free scenarios: a
:class:`~repro.net.faults.FaultPlan` mutates the network mid-run, so
faulted scenarios rebuild their topology every time (their arrivals are
still memoised — traffic is independent of the fault schedule).

The cache is always on; ``tests/campaign/test_workload_cache.py`` runs
the same campaign with :func:`active_cache` patched to ``None`` and
asserts the stores are byte-identical modulo timing fields.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.packet import Packet

#: Workload entries kept per cache.  A campaign sweeping substrate factors
#: revisits the same few workloads many times; entries beyond this are
#: evicted least-recently-used to bound memory on wide load/replicate
#: sweeps.
DEFAULT_CAPACITY = 8

#: One materialised arrival: the packet prototype as plain data —
#: ``(time, flow, length, packet_class, priority, fields, src, dst)``
#: where ``fields`` is ``None`` or a dict copied per replay.
ArrivalProto = Tuple[float, str, int, Optional[str], int,
                     Optional[dict], Optional[str], Optional[str]]


class WorkloadCache:
    """Bounded LRU of materialised campaign workloads."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: key -> {host: [ArrivalProto, ...]}
        self._arrivals: "OrderedDict[tuple, Dict[str, List[ArrivalProto]]]" \
            = OrderedDict()
        #: scenario name -> cached Network (fault-free scenarios only).
        self._topologies: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    # -- arrivals ----------------------------------------------------------
    def arrivals_for(self, scenario, duration: float, base_seed: int,
                     load_scale: float) -> Dict[str, List[ArrivalProto]]:
        """Materialised per-host arrivals for one workload (cached)."""
        key = (scenario.name, duration, base_seed, load_scale)
        cached = self._arrivals.get(key)
        if cached is not None:
            self.hits += 1
            self._arrivals.move_to_end(key)
            return cached
        self.misses += 1
        built = self._materialise(scenario, duration, base_seed, load_scale)
        self._arrivals[key] = built
        while len(self._arrivals) > self.capacity:
            self._arrivals.popitem(last=False)
        return built

    @staticmethod
    def _materialise(scenario, duration: float, base_seed: int,
                     load_scale: float) -> Dict[str, List[ArrivalProto]]:
        """Run every demand's generator once; record packet prototypes.

        Mirrors the per-host grouping and ``merge_arrivals`` order of
        :meth:`~repro.net.scenario.Scenario.run`: streams are merged here,
        at build time, so a replay is a single pre-sorted list per host.
        """
        from ..traffic.generators import merge_arrivals

        by_host: Dict[str, list] = {}
        for demand in scenario.demands:
            by_host.setdefault(demand.src, []).append(
                demand.build_arrivals(duration, base_seed=base_seed,
                                      load_scale=load_scale)
            )
        materialised: Dict[str, List[ArrivalProto]] = {}
        for host, streams in by_host.items():
            protos: List[ArrivalProto] = []
            for time, packet in merge_arrivals(*streams):
                fields = packet.fields
                protos.append((
                    time, packet.flow, packet.length, packet.packet_class,
                    packet.priority, dict(fields) if fields else None,
                    packet.src, packet.dst,
                ))
            materialised[host] = protos
        return materialised

    @staticmethod
    def replay(protos: List[ArrivalProto]) -> Iterator[Tuple[float, Packet]]:
        """Fresh ``(time, Packet)`` pairs from recorded prototypes.

        Metadata dicts are copied per replay — the simulation mutates them
        in flight (wait-time stamps, remaining-size updates), and a shared
        dict would let one run's state leak into the next.
        """
        for (time, flow, length, packet_class, priority, fields,
             src, dst) in protos:
            yield time, Packet.acquire(
                flow, length,
                packet_class=packet_class,
                priority=priority,
                fields=dict(fields) if fields is not None else None,
                src=src, dst=dst,
            )

    # -- topologies --------------------------------------------------------
    def topology_for(self, scenario):
        """The scenario's network, shared across runs when that is sound.

        Fault plans mutate the topology mid-run, so faulted scenarios get
        a fresh build every call; fault-free fabrics only ever *read* the
        network (routes live on the switches), so one instance serves
        every run.
        """
        if scenario.fault_plan is not None:
            return scenario.topology()
        network = self._topologies.get(scenario.name)
        if network is None:
            network = self._topologies[scenario.name] = scenario.topology()
        return network

    def info(self) -> Dict[str, int]:
        return {"workloads": len(self._arrivals), "hits": self.hits,
                "misses": self.misses, "capacity": self.capacity}


#: Process-global cache used by :func:`active_cache`.  Each warm engine
#: worker is its own process, so each holds (at most) one of these.
_CACHE: Optional[WorkloadCache] = None


def active_cache() -> WorkloadCache:
    """The process's workload cache."""
    global _CACHE
    if _CACHE is None:
        _CACHE = WorkloadCache()
    return _CACHE


def reset_cache() -> None:
    """Drop the process-global cache (tests and long-lived tools)."""
    global _CACHE
    _CACHE = None
