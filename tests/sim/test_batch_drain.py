"""Batch event draining.

The run loop drains every heap event due at the current timestamp in one
inner loop (no re-advancing the clock per event).  These properties pin
the ordering contract that must survive it: events execute in (time, seq)
order — exactly as if the outer loop popped each one — and cancellation
and the ``max_events`` budget are honoured inside a batch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestSameTimestampOrder:
    def test_same_time_events_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        for index in range(20):
            sim.schedule_at(1.0, lambda i=index: log.append(i))
        sim.run()
        assert log == list(range(20))

    def test_batch_spawned_same_time_events_ordered(self):
        # Callbacks scheduling *new* work at the current instant: the new
        # events carry later seqs, so they run after everything already
        # due — in spawn order.
        sim = Simulator()
        log = []

        def parent(i):
            log.append(("parent", i))
            sim.schedule(0.0, lambda: log.append(("child", i)))

        for index in range(5):
            sim.schedule_at(1.0, lambda i=index: parent(i))
        sim.run()
        assert log == ([("parent", i) for i in range(5)]
                       + [("child", i) for i in range(5)])


# Command stream: each event's callback schedules up to two children with
# a delay on a coarse grid.  Coarse delays force timestamp collisions so
# the batch drain actually engages.
child_spec = st.integers(min_value=0, max_value=3)
event_specs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.lists(child_spec, max_size=2)),
    min_size=1,
    max_size=25,
)


class TestOrderingProperty:
    @settings(max_examples=60, deadline=None)
    @given(specs=event_specs)
    def test_execution_order_is_time_seq_order(self, specs):
        # Every event logs its own (time, seq) when it fires; children are
        # spawned from inside callbacks.  Whether an event is popped by the
        # outer loop or by the batch drain, the observable firing order
        # must equal (time, seq) order.
        sim = Simulator()
        log = []

        def spawn(delay, children):
            record = {}
            def cb():
                log.append(record["key"])
                for delay_step in children:
                    spawn(delay_step * 0.5, ())
            entry = sim.schedule(delay, cb)
            record["key"] = (entry[0], entry[1])

        for delay_step, children in specs:
            spawn(delay_step * 0.5, children)
        sim.run()
        assert len(log) > 0
        assert log == sorted(log)
        assert sim.pending_events == 0
        assert sim.events_processed == len(log)

    @settings(max_examples=30, deadline=None)
    @given(specs=event_specs, horizon_step=st.integers(min_value=0,
                                                       max_value=6))
    def test_run_until_horizon_respected(self, specs, horizon_step):
        sim = Simulator()
        fired = []

        def make_cb(children):
            def cb():
                fired.append(sim.now)
                for delay_step in children:
                    sim.schedule(delay_step * 0.5, make_cb(()))
            return cb

        for delay_step, children in specs:
            sim.schedule(delay_step * 0.5, make_cb(children))
        horizon = horizon_step * 0.5
        sim.run(until=horizon)
        assert all(t <= horizon for t in fired)
        # Whatever remains fires later.
        sim.run()
        assert sim.pending_events == 0


class TestCancellation:
    def test_cancel_heap_event_inside_batch(self):
        # First event of a timestamp batch cancels a later same-timestamp
        # event: the tombstone must be honoured by the batch drain, and a
        # tombstoned pop must not count as processed.
        sim = Simulator()
        log = []
        holder = {}

        def killer():
            log.append("killer")
            sim.cancel(holder["victim"])

        sim.schedule_at(1.0, killer)
        holder["victim"] = sim.schedule_at(1.0, lambda: log.append("victim"))
        sim.schedule_at(1.0, lambda: log.append("survivor"))
        sim.run()
        assert log == ["killer", "survivor"]
        assert sim.events_processed == 2


class TestMaxEvents:
    def test_max_events_mid_batch_preserves_rest(self):
        sim = Simulator()
        log = []
        for index in range(6):
            sim.schedule_at(1.0, lambda i=index: log.append(i))
        sim.run(max_events=3)
        assert log == [0, 1, 2]
        assert sim.pending_events == 3
        sim.run()
        assert log == list(range(6))
        assert sim.events_processed == 6
