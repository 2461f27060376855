"""A small discrete-event simulator.

The behavioural experiments in the paper (bandwidth shares under HPFQ, rate
limits under shaping, Stop-and-Go delay bounds, minimum-rate guarantees) all
need packets to *take time on the wire*.  This simulator provides exactly
that: a clock, an event queue, and components (sources, output ports) that
schedule work against it.

Design notes
------------
* Time is a float in seconds; the simulator never invents time — it jumps
  from event to event.
* Determinism: same inputs, same outputs.  Events at the same time run in
  scheduling order; all randomness lives in the traffic generators, which
  take explicit seeds.
* Components register themselves via :meth:`Simulator.schedule` /
  :meth:`Simulator.schedule_at`; there is no global registry.
* One event queue, one run loop: every simulator owns one binary-heap
  :class:`~repro.sim.events.EventQueue` and nothing selects another.
* The :meth:`Simulator.run` loop is deliberately *flat*: it operates on the
  event queue's raw tuple heap with the hot names bound to locals, because
  at fabric scale the per-event dispatch overhead dominates the simulation.
  Events are bare ``(time, seq, callback)`` tuples (see
  :mod:`repro.sim.events`); cancellation goes through
  :meth:`Simulator.cancel`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Optional

from ..exceptions import SimulationError
from ..obs import metrics
from .events import Event, EventQueue

_INF = float("inf")
_NEG_INF = float("-inf")


class _SimMetrics:
    """Instruments for the event loop, captured once at construction."""

    __slots__ = ("run_wall_s", "drain_width", "events", "heap_size")

    def __init__(self, registry: "metrics.MetricsRegistry") -> None:
        self.run_wall_s = registry.histogram("sim.run_wall_s")
        self.drain_width = registry.histogram(
            "sim.drain_width", buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128))
        self.events = registry.counter("sim.events")
        self.heap_size = registry.gauge("sim.heap_size")


class Simulator:
    """Discrete-event simulation kernel."""

    __slots__ = ("now", "_queue", "events_processed", "_metrics", "_raw_heap",
                 "_ff_horizon")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        #: The queue's raw tuple list.  The schedule methods, run(), fused
        #: ports and packet sources inline heappush/heappop against it and
        #: keep it across a run: EventQueue.compact rebuilds it in place.
        self._raw_heap = self._queue._heap
        self.events_processed = 0
        #: The active run horizon, read by the fused NIC arrival prefetch
        #: (:mod:`repro.net.fabric`): an arrival may be pulled ahead of its
        #: event only if its completion lands at or before this time.
        #: run() sets it to ``until`` while events are unbounded; -inf
        #: (outside run() and under ``max_events``) disables the prefetch.
        self._ff_horizon: float = _NEG_INF
        # None unless a metrics registry was enabled when this simulator
        # was built; run() binds it to a local, so the disabled cost is
        # one pointer comparison per outer loop iteration.
        registry = metrics.active()
        self._metrics = None if registry is None else _SimMetrics(registry)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        # Inlined EventQueue.push: one event per simulated packet per hop
        # makes even the single extra call measurable.
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = (self.now + delay, seq, callback)
        heappush(self._raw_heap, entry)
        return entry

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Run ``callback`` at absolute simulated time ``time``."""
        now = self.now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time} (now is {now}): time must not go backwards"
            )
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry = (time if time > now else now, seq, callback)
        heappush(self._raw_heap, entry)
        return entry

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (handle returned by ``schedule*``)."""
        self._queue.cancel(event)

    # -- execution ------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue empties or ``until`` is reached.

        Returns the simulation time when the run stopped.  Events scheduled
        exactly at ``until`` are processed.
        """
        queue = self._queue
        # Horizon / budget as float sentinels: one comparison per event
        # instead of a None test plus a comparison.
        until_f = _INF if until is None else until
        max_f = _INF if max_events is None else max_events
        heap = self._raw_heap
        # The NIC arrival prefetch may run ahead of the event loop only
        # while the event budget is unbounded and never past the horizon.
        self._ff_horizon = until_f if max_events is None else _NEG_INF
        processed = 0
        stop = False
        m = self._metrics
        wall_start = perf_counter() if m is not None else 0.0
        if m is not None:
            m.heap_size.set(len(queue))
        try:
            # Bind the queue internals once: entries pushed by callbacks
            # land in the same list objects, and EventQueue.compact
            # rebuilds in place.
            tombstones = queue._tombstones
            pop = heappop
            while heap and not stop:
                entry = heap[0]
                time = entry[0]
                if time > until_f:
                    break
                pop(heap)
                if tombstones and entry[1] in tombstones:
                    tombstones.discard(entry[1])
                    continue
                self.now = time
                entry[2]()
                processed += 1
                if processed >= max_f:
                    break
                # Batch drain: every heap event already due at this
                # exact instant is eligible — run them without
                # re-checking the horizon or re-advancing the clock.
                batch_start = processed
                while heap:
                    entry = heap[0]
                    if entry[0] != time:
                        break
                    pop(heap)
                    if tombstones and entry[1] in tombstones:
                        tombstones.discard(entry[1])
                        continue
                    entry[2]()
                    processed += 1
                    if processed >= max_f:
                        stop = True
                        break
                if m is not None:
                    m.drain_width.observe(processed - batch_start)
        finally:
            self._ff_horizon = _NEG_INF
            self.events_processed += processed
            if m is not None:
                m.run_wall_s.observe(perf_counter() - wall_start)
                m.events.inc(processed)
                m.heap_size.set(len(queue))
        if until is not None:
            next_time = queue.peek_time()
            if next_time is None or next_time > until:
                # Advance the clock to the requested horizon so rate
                # measurements over [0, until] use the intended window even
                # if the last packet departed earlier.
                if until > self.now:
                    self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
