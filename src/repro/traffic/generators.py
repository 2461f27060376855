"""Arrival-stream generators.

Each generator yields ``(time, packet)`` pairs in non-decreasing time order,
ready to feed a :class:`~repro.sim.source.PacketSource`.  All randomised
generators take an explicit seed; identical seeds reproduce identical
workloads.

Generators provided:

* :func:`cbr_arrivals` — constant bit rate (evenly spaced packets).
* :func:`poisson_arrivals` — Poisson packet arrivals at a mean rate.
* :func:`onoff_arrivals` — bursty on/off source (exponential on/off periods,
  CBR while on), the classic way to stress shaping and Stop-and-Go.
* :func:`backlogged_arrivals` — a large burst at t=0, the paper's standard
  "all flows are backlogged" overload scenario.
* :func:`flow_arrivals` — a sequence of finite flows whose sizes come from a
  flow-size distribution (heavy-tailed by default) and whose packets carry
  the SJF/SRPT/LAS metadata, for the flow-completion-time experiments.
* :func:`merge_arrivals` — the one streaming k-way merge.  Its inputs must
  each be sorted by time; it checks that as it consumes them (raising
  :class:`~repro.exceptions.TrafficError`) and never re-sorts.
"""

from __future__ import annotations

import heapq
import itertools
import random
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.packet import Packet
from ..exceptions import TrafficError
from .distributions import EmpiricalCDF, web_search_flow_sizes
from .flows import FlowSpec

Arrival = Tuple[float, Packet]


def _packet_from_spec(spec: FlowSpec, extra_fields: Optional[Dict[str, Any]] = None) -> Packet:
    # Packets without metadata share the immutable empty mapping (fields=None)
    # instead of allocating a dict each — see repro.core.packet.
    if extra_fields:
        fields = dict(spec.fields)
        fields.update(extra_fields)
    elif spec.fields:
        fields = dict(spec.fields)
    else:
        fields = None
    return Packet.acquire(
        flow=spec.name,
        length=spec.packet_size,
        packet_class=spec.packet_class,
        priority=spec.priority,
        fields=fields,
        src=spec.src,
        dst=spec.dst,
    )


def cbr_arrivals(spec: FlowSpec, duration: float) -> Iterator[Arrival]:
    """Constant-bit-rate arrivals: one packet every ``size*8/rate`` seconds.

    Packets arrive over the half-open interval ``[start, start + duration)``;
    arrival times are computed as ``start + i * interval`` (not accumulated)
    so long workloads do not drift.
    """
    if spec.rate_bps <= 0:
        return
    interval = spec.packet_size * 8.0 / spec.rate_bps
    end = spec.start_time + duration if spec.end_time is None else min(
        spec.end_time, spec.start_time + duration
    )
    index = 0
    while True:
        time = spec.start_time + index * interval
        if time >= end - 1e-15:
            return
        yield time, _packet_from_spec(spec)
        index += 1


def poisson_arrivals(spec: FlowSpec, duration: float, seed: int = 0) -> Iterator[Arrival]:
    """Poisson arrivals with mean rate ``spec.rate_bps``."""
    if spec.rate_bps <= 0:
        return
    rng = random.Random(seed)
    mean_interval = spec.packet_size * 8.0 / spec.rate_bps
    time = spec.start_time
    end = spec.start_time + duration if spec.end_time is None else min(
        spec.end_time, spec.start_time + duration
    )
    while True:
        time += rng.expovariate(1.0 / mean_interval)
        if time > end:
            return
        yield time, _packet_from_spec(spec)


def onoff_arrivals(
    spec: FlowSpec,
    duration: float,
    mean_on_s: float = 0.01,
    mean_off_s: float = 0.01,
    seed: int = 0,
) -> Iterator[Arrival]:
    """Bursty on/off arrivals: CBR at ``spec.rate_bps`` during on periods.

    On and off period lengths are exponentially distributed with the given
    means, so the long-run average rate is
    ``rate_bps * mean_on / (mean_on + mean_off)``.
    """
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise TrafficError("on/off period means must be positive")
    if spec.rate_bps <= 0:
        return
    rng = random.Random(seed)
    interval = spec.packet_size * 8.0 / spec.rate_bps
    time = spec.start_time
    end = spec.start_time + duration
    while time < end:
        on_until = time + rng.expovariate(1.0 / mean_on_s)
        while time < min(on_until, end):
            yield time, _packet_from_spec(spec)
            time += interval
        time = min(on_until, end) + rng.expovariate(1.0 / mean_off_s)


def backlogged_arrivals(
    spec: FlowSpec,
    packet_count: int,
    spacing: float = 0.0,
) -> Iterator[Arrival]:
    """A burst of ``packet_count`` packets starting at ``spec.start_time``.

    With ``spacing == 0`` all packets arrive in the same instant — the
    "continuously backlogged flow" setting used by the fairness examples.
    """
    if packet_count < 0:
        raise TrafficError("packet_count must be non-negative")
    for i in range(packet_count):
        yield spec.start_time + i * spacing, _packet_from_spec(spec)


def flow_arrivals(
    flow_name_prefix: str,
    load_bps: float,
    duration: float,
    size_distribution: Optional[EmpiricalCDF] = None,
    packet_size: int = 1500,
    seed: int = 0,
    packet_class: Optional[str] = None,
    tag_fields: bool = True,
    src: Optional[str] = None,
    dst: Optional[str] = None,
) -> Iterator[Arrival]:
    """Finite flows arriving as a Poisson process, sizes from a distribution.

    Flow inter-arrival times are chosen so the offered load equals
    ``load_bps``.  Each flow's packets arrive back to back (source sends at
    line rate) and, when ``tag_fields`` is true, carry the metadata needed by
    the fine-grained priority schedulers:

    * ``flow_size`` — total size of the flow in bytes (SJF),
    * ``remaining_size`` — bytes left including this packet (SRPT),
    * ``attained_service`` — bytes already sent before this packet (LAS).
    """
    if load_bps <= 0 or duration <= 0:
        return
    rng = random.Random(seed)
    sizes = size_distribution or web_search_flow_sizes()
    mean_flow_bytes = sizes.mean()
    flow_rate = load_bps / (mean_flow_bytes * 8.0)  # flows per second
    time = 0.0
    for flow_index in itertools.count():
        time += rng.expovariate(flow_rate)
        if time > duration:
            return
        flow_bytes = max(int(sizes.sample(rng)), 1)
        flow_name = f"{flow_name_prefix}{flow_index}"
        remaining = flow_bytes
        sent = 0
        packet_index = 0
        while remaining > 0:
            this_size = min(packet_size, remaining)
            fields: Dict[str, Any] = {}
            if tag_fields:
                fields = {
                    "flow_size": flow_bytes,
                    "remaining_size": remaining,
                    "attained_service": sent,
                }
            yield time, Packet.acquire(
                flow=flow_name,
                length=this_size,
                packet_class=packet_class,
                fields=fields if tag_fields else None,
                src=src,
                dst=dst,
            )
            sent += this_size
            remaining -= this_size
            packet_index += 1


def _in_order(index: int, stream: Iterable[Arrival]) -> Iterator[Arrival]:
    """``stream`` unchanged; raises at the first arrival that steps back."""
    last = float("-inf")
    for arrival in stream:
        if arrival[0] < last:
            raise TrafficError(f"arrival stream {index} is not sorted by time "
                               f"({arrival[0]} after {last})")
        last = arrival[0]
        yield arrival


def merge_arrivals(*streams: Iterable[Arrival]) -> Iterator[Arrival]:
    """Merge time-sorted arrival streams into one, lazily.

    Output order is time, then argument order, then position in the stream.
    Arrivals pass through as the objects the streams yielded, one head per
    stream is held, and a stream that steps back in time raises
    :class:`TrafficError` naming its index when that arrival is reached.
    """
    checked = [_in_order(index, stream) for index, stream in enumerate(streams)]
    if len(checked) == 1:
        return checked[0]
    # Keyed on time alone: heapq.merge is stable (ties go to the earlier
    # argument), so packets are never compared and nothing is decorated.
    return heapq.merge(*checked, key=itemgetter(0))


def total_bytes(arrivals: Sequence[Arrival]) -> int:
    """Sum of packet lengths in an arrival list (workload sanity checks)."""
    return sum(packet.length for _time, packet in arrivals)
