"""Unit contract of the metrics registry (repro.obs.metrics).

The registry's promises: get-or-create instruments with kind safety,
fixed-bucket histograms with an inclusive-upper-bound layout, lazy
callbacks and global sources folded into deterministic snapshots, and a
module-level enable/disable fast path that components capture once at
construction time.
"""

from __future__ import annotations

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.net import Fabric, linear_chain
from repro.obs import metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_counts,
)
from repro.sim import Simulator


def _fifo_factory(switch, port):
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


def _holds_instrument(obj) -> bool:
    """Whether any attribute of ``obj`` (dict or slots) is a registry or
    an instrument, directly or inside a tuple."""
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    kinds = (Counter, Gauge, Histogram, MetricsRegistry)
    for name in names:
        value = getattr(obj, name, None)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(item, kinds) for item in values):
            return True
    return False


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"c": 5}

    def test_gauge_tracks_high_water(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(7.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 7.0
        assert gauge.snapshot() == {"g": 2.0, "g.max": 7.0}


class TestHistogramBucketing:
    def test_value_on_bound_lands_in_that_bucket(self):
        # Upper bounds are inclusive: observe(b) belongs to bucket b.
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(4.0)
        assert [count for _, count in hist.bucket_counts()] == [1, 1, 1, 0]

    def test_below_first_and_above_last(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(-5.0)   # below everything -> first bucket
        hist.observe(0.5)
        hist.observe(100.0)  # above the last bound -> overflow bucket
        bounds = [bound for bound, _ in hist.bucket_counts()]
        counts = [count for _, count in hist.bucket_counts()]
        assert bounds == [1.0, 2.0, float("inf")]
        assert counts == [2, 0, 1]

    def test_sum_count_min_max_mean(self):
        hist = Histogram("h", buckets=(10.0,))
        for value in (1.0, 3.0, 8.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(12.0)
        assert hist.mean == pytest.approx(4.0)
        assert hist.min == 1.0
        assert hist.max == 8.0
        snap = hist.snapshot()
        assert snap["h.count"] == 3
        assert snap["h.min"] == 1.0
        assert snap["h.max"] == 8.0

    def test_empty_histogram_has_no_min_max(self):
        hist = Histogram("h", buckets=(1.0,))
        snap = hist.snapshot()
        assert snap["h.count"] == 0
        assert snap["h.mean"] == 0.0
        assert "h.min" not in snap and "h.max" not in snap

    def test_bounds_must_ascend_and_be_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_sorted_and_numeric_only(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.gauge("a.level").set(1.0)
        registry.register_callback(
            "cb", lambda: {"num": 3, "text": "dropped", "also": 1.5})
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["b.count"] == 2
        assert snap["cb.num"] == 3
        assert snap["cb.also"] == 1.5
        assert "cb.text" not in snap

    def test_broken_callback_is_swallowed(self):
        registry = MetricsRegistry()
        registry.counter("ok").inc()

        def boom():
            raise RuntimeError("broken source")

        registry.register_callback("bad", boom)
        assert registry.snapshot()["ok"] == 1

    def test_callbacks_are_lazy(self):
        registry = MetricsRegistry()
        calls = []
        registry.register_callback("lazy", lambda: calls.append(1) or {})
        assert calls == []
        registry.snapshot()
        assert calls == [1]

    def test_histograms_accessor(self):
        registry = MetricsRegistry()
        registry.counter("c")
        hist = registry.histogram("h", buckets=(1.0,))
        assert registry.histograms() == {"h": hist}


class TestModuleFastPath:
    def test_disabled_by_default_in_tests(self):
        assert metrics.active() is None
        assert not metrics.is_enabled()

    def test_collecting_restores_previous_state(self):
        assert metrics.active() is None
        with metrics.collecting() as registry:
            assert metrics.active() is registry
            inner = MetricsRegistry()
            with metrics.collecting(inner):
                assert metrics.active() is inner
            assert metrics.active() is registry
        assert metrics.active() is None

    def test_collecting_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with metrics.collecting():
                raise RuntimeError("boom")
        assert metrics.active() is None

    def test_global_sources_fold_into_every_snapshot(self):
        metrics.register_global_source("testsrc", lambda: {"hits": 7})
        try:
            assert metrics.global_sources_snapshot()["testsrc.hits"] == 7
            with metrics.collecting() as registry:
                assert registry.snapshot()["testsrc.hits"] == 7
        finally:
            metrics._global_sources.pop("testsrc", None)

    def test_collecting_leaves_no_residue_on_the_off_path(self):
        # Everything built after a collection session runs the off path:
        # every capture site (EventQueue, Simulator, Fabric) finds no
        # registry, so nothing holds an instrument and the session's
        # registry gains no callback.
        def build_and_run():
            sim = Simulator()
            fabric = Fabric(sim, linear_chain(2, link_rate_bps=1e6),
                            _fifo_factory)
            fabric.attach_source("h_src", [
                (i * 1e-3, Packet(flow="f", length=500, dst="h_dst"))
                for i in range(10)])
            fabric.run(drain=True)
            return sim, fabric

        with metrics.collecting() as registry:
            sim, _ = build_and_run()
            assert sim._metrics is not None
            assert _holds_instrument(sim._queue)
            assert registry._callbacks
        callbacks = list(registry._callbacks)
        sim, fabric = build_and_run()
        assert sim._metrics is None
        assert registry._callbacks == callbacks
        holders = [sim, sim._queue, fabric]
        for switch in fabric.node_switches.values():
            holders.append(switch)
            holders.extend(switch.ports.values())
        assert [obj for obj in holders if _holds_instrument(obj)] == []

    def test_kernel_cache_is_a_registered_global_source(self):
        # repro.lang.treekernel registers itself on import.
        import repro.lang.treekernel  # noqa: F401

        snap = metrics.global_sources_snapshot()
        assert "lang.kernel_cache.hits" in snap
        assert "lang.kernel_cache.installs" in snap


class TestMergeCounts:
    def test_sums_keywise_and_skips_non_numeric(self):
        merged = merge_counts([
            {"hits": 2, "misses": 1, "label": "a"},
            {"hits": 3, "installs": 4},
        ])
        assert merged == {"hits": 5, "misses": 1, "installs": 4}

    def test_empty(self):
        assert merge_counts([]) == {}
