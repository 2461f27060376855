"""Packet-trace export: per-hop spans and a chrome://tracing converter.

A *span* is one hop of one packet through one switch port::

    {"packet_id": 17, "flow": "A", "src": "h0", "dst": "h3",
     "node": "s1", "port": "port_to_s2",
     "arrival": 0.000120, "enqueue": 0.000120, "dequeue": 0.000160,
     "tx": 0.000172, "wait": 4.0e-05, "rank": 3, "queue_depth": 2}

Times are simulator seconds.  ``arrival`` is when the packet reached the
port, ``enqueue`` when the scheduler admitted it, ``dequeue`` when
transmission started, ``tx`` when the last bit left.  ``rank`` is the
leaf scheduling transaction's verdict at admission (``None`` for
rank-free schedulers such as FIFO) and ``queue_depth`` the number of
packets already buffered at that port when this one arrived.

The collector attaches to an *unfused* fabric (``tree_kernel=False``;
``telemetry=True`` also leaves every port unfused, but a tree kernel never
calls the rank probe, so ranks read ``None``).  The fused per-port
closures bypass the wrappable seams by design, so
:meth:`TraceCollector.attach` refuses a fabric with fused ports rather
than record nothing.  It observes three seams:

* ``scheduler.enqueue`` — instance-level wrap that snapshots queue depth
  before admission;
* each leaf ``TreeNode.scheduling`` — a delegating proxy that records
  the first rank computed for each packet;
* ``port.delivery`` — fires after transmit, when all four timestamps of
  the hop are stamped on the packet but before it is forwarded (and its
  fields restamped) downstream.

``spans_to_chrome`` emits a chrome://tracing / Perfetto-compatible JSON
document (one "X" complete event per span, switches as processes and
ports as threads); ``spans_from_chrome`` inverts it losslessly, which
the round-trip test leans on.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "TraceCollector",
    "write_spans",
    "read_spans",
    "spans_to_chrome",
    "spans_from_chrome",
]

#: Span fields carried verbatim into chrome-event ``args`` so the
#: converter round-trips exactly (ts/dur are lossy microseconds).
_ARG_FIELDS = ("packet_id", "flow", "src", "dst", "arrival", "enqueue",
               "dequeue", "tx", "wait", "rank", "queue_depth")


class _RankProbe:
    """Delegating proxy around a leaf scheduling transaction.

    ``__call__`` records the first rank computed for each packet id;
    everything else (``on_dequeue`` and friends) forwards to the wrapped
    transaction, so ``needs_dequeue_hook`` dispatch — precomputed from
    the original class at tree-build time — keeps working unchanged.
    """

    __slots__ = ("_inner", "_ranks")

    def __init__(self, inner: Callable, ranks: Dict[int, Any]) -> None:
        self._inner = inner
        self._ranks = ranks

    def __call__(self, element: Any, ctx: Any) -> Any:
        rank = self._inner(element, ctx)
        packet_id = getattr(element, "packet_id", None)
        if packet_id is not None and packet_id not in self._ranks:
            self._ranks[packet_id] = rank
        return rank

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class TraceCollector:
    """Attach to a fabric and collect one span per switch-port hop."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: packet_id -> (queue_depth, rank) captured at admission, popped
        #: when the hop's delivery fires.  Single-keyed per packet is safe
        #: because a hop's delivery always completes (span emitted) before
        #: the downstream switch admits the same packet.
        self._pending: Dict[int, Any] = {}
        self._ranks: Dict[int, Any] = {}

    def attach(self, fabric: Any) -> "TraceCollector":
        if fabric.fused_ports:
            raise ValueError(
                f"cannot trace a fabric with {fabric.fused_ports} fused "
                f"ports: fused ports never call the delivery or enqueue "
                f"seams the collector wraps; run with tree_kernel=False "
                f"(telemetry=True also unfuses the ports, but a tree "
                f"kernel does not report ranks)")
        # Host NICs keep their kernels under tree_kernel=False and rank
        # nothing of interest; only switch ports must run the class path.
        kernel_ports = [
            f"{node}.{port_name}"
            for node, switch in sorted(fabric.node_switches.items())
            if node not in fabric.host_sinks
            for port_name, port in sorted(switch.ports.items())
            if getattr(port.scheduler, "tree_kernel", None) is not None]
        if kernel_ports:
            raise ValueError(
                f"cannot trace a fabric whose switch ports run tree "
                f"kernels ({len(kernel_ports)}, e.g. {kernel_ports[0]}): "
                f"a kernel never calls the rank probe, so spans would "
                f"carry no ranks; run with tree_kernel=False")
        for node in sorted(fabric.node_switches):
            switch = fabric.node_switches[node]
            for port_name in sorted(switch.ports):
                self._instrument_port(node, port_name,
                                      switch.ports[port_name])
        return self

    # -- per-port seams --------------------------------------------------------
    def _instrument_port(self, node: str, port_name: str, port: Any) -> None:
        scheduler = port.scheduler
        tree = getattr(scheduler, "tree", None)
        if tree is not None:
            for leaf in tree.leaves():
                if not isinstance(leaf.scheduling, _RankProbe):
                    leaf.scheduling = _RankProbe(leaf.scheduling, self._ranks)

        pending = self._pending
        ranks = self._ranks
        orig_enqueue = scheduler.enqueue

        def enqueue(packet: Any, now: Optional[float] = None) -> bool:
            depth = len(scheduler)
            accepted = orig_enqueue(packet, now=now)
            rank = ranks.pop(packet.packet_id, None)
            if accepted:
                pending[packet.packet_id] = (depth, rank)
            return accepted

        scheduler.enqueue = enqueue

        orig_delivery = port.delivery

        def delivery(packet: Any) -> None:
            # Read every field *before* the original delivery: forwarding
            # into the next switch restamps the timestamps (and final
            # delivery may recycle the packet into the pool).
            enq = packet.enqueue_time
            deq = packet.dequeue_time
            depth, rank = pending.pop(packet.packet_id, (None, None))
            self.spans.append({
                "packet_id": packet.packet_id,
                "flow": packet.flow,
                "src": packet.src,
                "dst": packet.dst,
                "node": node,
                "port": port_name,
                "arrival": packet.arrival_time,
                "enqueue": enq,
                "dequeue": deq,
                "tx": packet.departure_time,
                "wait": (deq - enq
                         if enq is not None and deq is not None else None),
                "rank": rank,
                "queue_depth": depth,
            })
            if orig_delivery is not None:
                orig_delivery(packet)

        port.delivery = delivery


# -- JSONL I/O ----------------------------------------------------------------

def write_spans(spans: Iterable[Dict[str, Any]], path: str) -> int:
    """Write spans as canonical JSONL; returns the span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            count += 1
    return count


def read_spans(path: str) -> List[Dict[str, Any]]:
    """Read a span JSONL file, tolerating a torn (partial) final line."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail from an interrupted writer
    return spans


# -- chrome://tracing conversion ----------------------------------------------

def spans_to_chrome(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert spans into a chrome://tracing "trace event" document.

    Switches map to processes, ports to threads; each hop becomes one
    "X" (complete) event spanning enqueue..tx.  The exact simulator-time
    floats ride along in ``args`` so :func:`spans_from_chrome` is
    lossless despite the microsecond ts/dur quantisation.
    """
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        node = span["node"]
        pid = pids.setdefault(node, len(pids) + 1)
        tid_key = (node, span["port"])
        tid = tids.setdefault(tid_key, len(tids) + 1)
        start = span.get("enqueue") or 0.0
        end = span.get("tx") or start
        events.append({
            "name": f"{span['flow']}#{span['packet_id']}",
            "cat": "hop",
            "ph": "X",
            "ts": start * 1e6,
            "dur": max(0.0, (end - start) * 1e6),
            "pid": pid,
            "tid": tid,
            "args": {field: span.get(field) for field in _ARG_FIELDS},
        })
    meta: List[Dict[str, Any]] = []
    for node, pid in pids.items():
        meta.append({"name": "process_name", "ph": "M", "pid": pid,
                     "args": {"name": node}})
    for (node, port), tid in tids.items():
        meta.append({"name": "thread_name", "ph": "M",
                     "pid": pids[node], "tid": tid,
                     "args": {"name": port}})
    return {"displayTimeUnit": "ms", "traceEvents": meta + events}


def spans_from_chrome(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Invert :func:`spans_to_chrome`; used by the round-trip test."""
    process_names: Dict[int, str] = {}
    thread_names: Dict[tuple, str] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "M":
            continue
        if event["name"] == "process_name":
            process_names[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            thread_names[(event["pid"], event["tid"])] = event["args"]["name"]
    spans: List[Dict[str, Any]] = []
    for event in doc.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        span = dict(event["args"])
        span["node"] = process_names[event["pid"]]
        span["port"] = thread_names[(event["pid"], event["tid"])]
        spans.append(span)
    return spans
