"""The event queue against a sorted-list model, and exact accounting.

:class:`~repro.sim.events.EventQueue` must pop in ``(time, seq)`` order on
any schedule, including interleaved cancellations (double cancels,
cancel-after-fire) and the compactions they trigger.  Hypothesis drives
randomized schedules through the queue and through a plain list kept sorted
on ``(time, seq)``; a second property checks that a full
:class:`~repro.sim.simulator.Simulator` run fires in the same order.

Plus the exact-length contract: ``len(queue)`` counts *live* events —
tombstones, cancel-after-fire, and compaction must never skew it.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator


def _noop() -> None:
    pass


def drain(queue):
    order = []
    while queue:
        time, seq, _cb = queue.pop()
        order.append((time, seq))
    return order


# --------------------------------------------------------------------------- #
# Sorted-list model                                                            #
# --------------------------------------------------------------------------- #
#: An operation is (kind, value): push at a time offset, cancel the i-th
#: pushed event (modulo pushes so far — fired and already-cancelled ones
#: included), or pop.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.floats(min_value=0.0, max_value=0.1,
                            allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=1, max_size=200,
)

#: Per-event child: ``None``, or the delay after which the event's callback
#: schedules one more event (0.0 makes a same-instant tie).
child_delays = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1e-6, 1e-4]),
    st.floats(min_value=0.0, max_value=1e-3,
              allow_nan=False, allow_infinity=False),
)


class TestOrderModel:
    @given(ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_queue_matches_sorted_list(self, ops):
        """Any push/cancel/pop interleaving behaves like a sorted list."""
        queue = EventQueue()
        model = []      # live (time, seq), kept sorted
        handles = []
        for kind, value in ops:
            if kind == "push":
                handle = queue.push(value, _noop)
                assert handle[1] == len(handles)
                handles.append(handle)
                insort(model, (value, handle[1]))
            elif kind == "cancel" and handles:
                handle = handles[value % len(handles)]
                queue.cancel(handle)
                key = (handle[0], handle[1])
                if key in model:    # else: double cancel / cancel-after-fire
                    model.remove(key)
            elif kind == "pop":
                if model:
                    time, seq, _cb = queue.pop()
                    assert (time, seq) == model.pop(0)
                else:
                    with pytest.raises(SimulationError):
                        queue.pop()
            assert len(queue) == len(model)
            assert bool(queue) == bool(model)
            assert queue.peek_time() == (model[0][0] if model else None)
        assert drain(queue) == model

    @given(
        events=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e-3,
                                allow_nan=False, allow_infinity=False),
                      child_delays),
            min_size=1, max_size=50),
        until=st.one_of(st.none(),
                        st.floats(min_value=0.0, max_value=2e-3,
                                  allow_nan=False, allow_infinity=False)),
        max_events=st.one_of(st.none(),
                             st.integers(min_value=1, max_value=80)),
    )
    @settings(max_examples=200, deadline=None)
    def test_simulator_fires_in_time_then_scheduling_order(
            self, events, until, max_events):
        """``Simulator`` fires in (time, scheduling order), children that
        callbacks add included; ``until=`` and
        ``max_events=`` cut a prefix of that order and a second ``run()``
        finishes it."""
        n = len(events)
        sim = Simulator()
        fired = []

        def fire(label):
            fired.append((sim.now, label))
            delay = events[label][1] if label < n else None
            if delay is not None:
                sim.schedule(delay, lambda: fire(n + label))

        for i, (time, _delay) in enumerate(events):
            sim.schedule_at(time, lambda i=i: fire(i))

        # Reference: parents fire in (time, index) order, so the k-th one
        # with a child hands it sequence number n + k.
        timeline = [(time, i, i) for i, (time, _delay) in enumerate(events)]
        seq = n
        for time, _seq, i in sorted(timeline):
            delay = events[i][1]
            if delay is not None:
                timeline.append((time + delay, seq, n + i))
                seq += 1
        full = [(time, label) for time, _seq, label in sorted(timeline)]
        expected = full
        if until is not None:
            expected = [entry for entry in expected if entry[0] <= until]
        if max_events is not None:
            expected = expected[:max_events]

        sim.run(until=until, max_events=max_events)
        assert fired == expected
        assert sim.events_processed == len(expected)
        sim.run()
        assert fired == full
        assert sim.pending_events == 0


# --------------------------------------------------------------------------- #
# Exact length accounting                                                      #
# --------------------------------------------------------------------------- #
class TestExactLen:
    def test_len_counts_live_events_only(self):
        queue = EventQueue()
        handles = [queue.push(i * 1e-6, _noop) for i in range(10)]
        assert len(queue) == 10
        for handle in handles[:4]:
            queue.cancel(handle)
        assert len(queue) == 6
        queue.cancel(handles[0])  # idempotent
        assert len(queue) == 6
        assert len(drain(queue)) == 6
        assert len(queue) == 0 and not queue

    def test_cancel_after_fire_does_not_undercount(self):
        queue = EventQueue()
        first = queue.push(1e-6, _noop)
        queue.push(2e-6, _noop)
        queue.pop()            # fires `first`
        queue.cancel(first)    # stale cancel for an already-popped event
        assert len(queue) == 1
        assert bool(queue)
        queue.compact()
        assert len(queue) == 1

    def test_compaction_preserves_order_and_len(self):
        queue = EventQueue()
        handles = [queue.push(i * 1e-6, _noop) for i in range(100)]
        for handle in handles[::2]:
            queue.cancel(handle)   # triggers compaction past the threshold
        assert len(queue) == 50
        times = [entry[0] for entry in
                 iter(lambda: queue.pop() if queue else None, None)]
        assert times == sorted(times) and len(times) == 50

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()
