"""Event primitives for the discrete-event simulator.

The simulator processes events in non-decreasing time order; events scheduled
for the same instant run in the order they were scheduled (a monotonically
increasing sequence number breaks ties), which keeps runs deterministic.

Hot-path design
---------------
An event is a bare ``(time, seq, callback)`` tuple — no wrapper object, no
dataclass ``__lt__``: the heap compares tuples in C, and since ``seq`` is
unique the callback is never compared.  Cancellation marks the event's
sequence number in a *tombstone set*; tombstoned entries are skipped on pop.
When tombstones outnumber half the heap the queue **compacts** — rebuilds
the heap without the dead entries — so a workload that arms and cancels many
wake-ups (shaped ports) cannot grow the heap without bound.

:class:`EventQueue` is the only event queue: the simulator, the fused fabric
ports and :class:`~repro.sim.source.PacketSource` ``heappush`` straight onto
its list and keep that list for a whole run, which is why :meth:`compact`
must rebuild it in place (see DESIGN.md, "Event queue", for why a binary
heap and nothing else).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Set, Tuple

from ..exceptions import SimulationError
from ..obs import metrics

#: A scheduled callback: ``(time, seq, callback)``.  Returned by
#: :meth:`EventQueue.push` as the cancellation handle.
Event = Tuple[float, int, Callable[[], Any]]


class EventQueue:
    """A priority queue of ``(time, seq, callback)`` events.

    Ordered by (time, scheduling order).  ``push`` returns the raw entry
    tuple, which doubles as the handle for :meth:`cancel`.
    """

    __slots__ = ("_heap", "_tombstones", "_next_seq", "_metrics")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._tombstones: Set[int] = set()
        self._next_seq = 0
        # Captured once at construction: the active metrics registry's
        # instruments, or None.  push/cancel/pop stay untouched — only
        # compact() (rare by design) reports, so the disabled cost here
        # is literally zero on the per-event path.
        registry = metrics.active()
        self._metrics = None if registry is None else (
            registry.counter("sim.event_compactions"),
            registry.histogram("sim.tombstone_ratio",
                               buckets=(0.1, 0.25, 0.5, 0.75, 1.0)),
            registry.gauge("sim.heap_size"),
        )

    def push(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = (time, seq, callback)
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Event) -> None:
        """Mark an event so the simulator skips it when its time comes.

        Idempotent.  Compacts the heap when tombstones pile up past half
        its size.
        """
        self._tombstones.add(entry[1])
        if len(self._tombstones) * 2 > len(self._heap):
            self.compact()

    def cancelled(self, entry: Event) -> bool:
        """Whether the entry has been cancelled (and not yet collected)."""
        return entry[1] in self._tombstones

    def compact(self) -> None:
        """Rebuild the heap without tombstoned entries.

        In-place (``heap[:] = ...``) so callers holding a reference to the
        underlying list — the flattened :meth:`Simulator.run` loop, fused
        ports, packet sources — stay valid.  Also drops tombstones for
        entries already popped, keeping the set from leaking under
        cancel-after-fire misuse.
        """
        tombstones = self._tombstones
        if tombstones:
            heap = self._heap
            m = self._metrics
            if m is not None:
                compactions, ratio, heap_size = m
                compactions.inc()
                if heap:
                    ratio.observe(len(tombstones) / len(heap))
            heap[:] = [entry for entry in heap if entry[1] not in tombstones]
            heapq.heapify(heap)
            tombstones.clear()
            if m is not None:
                heap_size.set(len(heap))

    def pop(self) -> Event:
        """Remove and return the earliest live (non-cancelled) event."""
        heap = self._heap
        tombstones = self._tombstones
        while heap:
            entry = heapq.heappop(heap)
            if tombstones and entry[1] in tombstones:
                tombstones.discard(entry[1])
                continue
            return entry
        raise SimulationError("pop from an empty event queue")

    def peek(self) -> Optional[Event]:
        """Earliest live event without removing it, or ``None`` when empty.

        Lazily discards cancelled entries sitting at the head.
        """
        heap = self._heap
        tombstones = self._tombstones
        while heap:
            entry = heap[0]
            if tombstones and entry[1] in tombstones:
                heapq.heappop(heap)
                tombstones.discard(entry[1])
                continue
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` when empty."""
        entry = self.peek()
        return None if entry is None else entry[0]

    def __len__(self) -> int:
        """Exact number of live (non-cancelled) events.

        ``len(heap) - len(tombstones)`` is only an estimate: a tombstone
        for an entry that already fired (cancel-after-fire) is not in the
        heap, so the subtraction under-counts — progress displays and
        ``repro campaign status`` event totals drift.  Count the live
        entries instead; the scan only runs while tombstones exist.
        """
        tombstones = self._tombstones
        if not tombstones:
            return len(self._heap)
        return sum(1 for entry in self._heap if entry[1] not in tombstones)

    def __bool__(self) -> bool:
        tombstones = self._tombstones
        if not tombstones:
            return bool(self._heap)
        return any(entry[1] not in tombstones for entry in self._heap)
