"""Tests for flow specs, distributions and generators."""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import _POOL_LIMIT, Packet, clear_pool
from repro.exceptions import TrafficError
from repro.sim import PacketSource, Simulator
from repro.sim.source import PREFETCH_CHUNK
from repro.traffic import (
    EmpiricalCDF,
    FlowSpec,
    backlogged_arrivals,
    bounded_pareto,
    cbr_arrivals,
    data_mining_flow_sizes,
    exponential,
    flow_arrivals,
    merge_arrivals,
    onoff_arrivals,
    pareto,
    poisson_arrivals,
    total_bytes,
    web_search_flow_sizes,
)


class TestFlowSpec:
    def test_packets_per_second(self):
        spec = FlowSpec(name="A", rate_bps=12000, packet_size=1500)
        assert spec.packets_per_second == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec(name="A", rate_bps=-1)
        with pytest.raises(ValueError):
            FlowSpec(name="A", rate_bps=1, packet_size=0)
        with pytest.raises(ValueError):
            FlowSpec(name="A", rate_bps=1, start_time=5.0, end_time=1.0)

    def test_active_at(self):
        spec = FlowSpec(name="A", rate_bps=1e6, start_time=1.0, end_time=2.0)
        assert not spec.active_at(0.5)
        assert spec.active_at(1.5)
        assert not spec.active_at(2.5)


class TestGenerators:
    def test_cbr_spacing(self):
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        arrivals = list(cbr_arrivals(spec, duration=0.005))
        times = [t for t, _ in arrivals]
        assert times == pytest.approx([0.0, 0.001, 0.002, 0.003, 0.004])

    def test_cbr_zero_rate_produces_nothing(self):
        spec = FlowSpec(name="A", rate_bps=0.0)
        assert list(cbr_arrivals(spec, duration=1.0)) == []

    def test_poisson_mean_rate(self):
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        arrivals = list(poisson_arrivals(spec, duration=1.0, seed=7))
        # ~1000 packets/s expected; allow 10% slack.
        assert 900 <= len(arrivals) <= 1100

    def test_poisson_deterministic_per_seed(self):
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        a = [t for t, _ in poisson_arrivals(spec, duration=0.1, seed=3)]
        b = [t for t, _ in poisson_arrivals(spec, duration=0.1, seed=3)]
        assert a == b

    def test_onoff_long_run_rate_below_peak(self):
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        arrivals = list(
            onoff_arrivals(spec, duration=2.0, mean_on_s=0.01, mean_off_s=0.01, seed=5)
        )
        measured = total_bytes(arrivals) * 8 / 2.0
        assert measured < 8e6
        assert measured > 1e6

    def test_backlogged_burst(self):
        spec = FlowSpec(name="A", rate_bps=1e6, packet_size=500)
        arrivals = list(backlogged_arrivals(spec, packet_count=10))
        assert len(arrivals) == 10
        assert all(t == 0.0 for t, _ in arrivals)

    def test_flow_arrivals_tags_srpt_fields(self):
        arrivals = list(
            flow_arrivals("f", load_bps=50e6, duration=0.05, packet_size=1500, seed=1)
        )
        assert arrivals, "expected at least one flow"
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        # Remaining size decreases packet by packet within a flow.
        by_flow = {}
        for _, packet in arrivals:
            by_flow.setdefault(packet.flow, []).append(packet)
        for packets in by_flow.values():
            remaining = [p.get("remaining_size") for p in packets]
            assert remaining == sorted(remaining, reverse=True)
            assert packets[0].get("flow_size") == sum(p.length for p in packets)

    def test_merge_preserves_time_order(self):
        spec_a = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        spec_b = FlowSpec(name="B", rate_bps=3e6, packet_size=700)
        merged = list(merge_arrivals(cbr_arrivals(spec_a, 0.01), cbr_arrivals(spec_b, 0.01)))
        times = [t for t, _ in merged]
        assert times == sorted(times)


class TestMergeArrivals:
    """The one merge: streaming, stable (time, then argument order, then
    position in the stream), and checking the order it relies on."""

    #: Arrival times are small multiples of 0.5, so ties across and within
    #: streams are the common case.
    streams = st.lists(
        st.lists(st.integers(0, 6), max_size=12).map(sorted), max_size=5)

    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_property_merge_equals_reference_sort(self, ticks):
        tagged = [
            [(0.5 * tick, Packet(flow=f"{index}:{position}", length=100))
             for position, tick in enumerate(stream)]
            for index, stream in enumerate(ticks)
        ]
        keyed = [((arrival[0], index, position), arrival)
                 for index, stream in enumerate(tagged)
                 for position, arrival in enumerate(stream)]
        reference = [arrival for _key, arrival in
                     sorted(keyed, key=itemgetter(0))]
        merged = list(merge_arrivals(*(iter(stream) for stream in tagged)))
        assert merged == reference

    def test_zero_streams_and_one_stream(self):
        assert list(merge_arrivals()) == []
        spec = FlowSpec(name="A", rate_bps=8e6, packet_size=1000)
        alone = list(cbr_arrivals(spec, 0.01))
        assert list(merge_arrivals(iter(alone))) == alone

    @pytest.mark.parametrize("others", [0, 2])
    def test_out_of_order_stream_raises_naming_the_stream(self, others):
        spec = FlowSpec(name="ok", rate_bps=8e6, packet_size=1000)
        packet = Packet(flow="bad", length=100)
        bad = [(0.001, packet), (0.003, packet), (0.002, packet)]
        streams = [cbr_arrivals(spec, 0.01) for _ in range(others)] + [bad]
        with pytest.raises(TrafficError, match=f"stream {others} "):
            list(merge_arrivals(*streams))

    def test_source_never_delivers_a_misordered_packet(self):
        spec = FlowSpec(name="ok", rate_bps=8e6, packet_size=1000)
        # The step back in time sits past the source's first refill chunks.
        late = [(i * 1e-3, Packet(flow="late", length=100)) for i in range(600)]
        late[500] = (late[400][0], late[500][1])
        delivered = []
        sim = Simulator()
        port = SimpleNamespace(
            receive=lambda packet: delivered.append((sim.now, packet)))
        PacketSource(sim, port, merge_arrivals(cbr_arrivals(spec, 1.0), late))
        with pytest.raises(TrafficError, match="stream 1 "):
            sim.run()
        assert delivered
        times = [time for time, _packet in delivered]
        assert times == sorted(times)
        assert late[500][1] not in [packet for _time, packet in delivered]


class TestMergeMemory:
    """Nothing transient per arrival: what a merge allocates is what its
    consumer keeps."""

    PACKETS = 20_000

    def streams(self, count):
        # 500 B at 1 Gbit/s in total: PACKETS arrivals over all streams.
        duration = self.PACKETS * 500 * 8.0 / 1e9
        return [cbr_arrivals(FlowSpec(name=f"f{i}", rate_bps=1e9 / count,
                                      packet_size=500), duration)
                for i in range(count)]

    @pytest.mark.parametrize("count", [1, 4])
    def test_listing_a_merge_peaks_at_what_it_keeps(self, count):
        clear_pool()
        gc.collect()
        tracemalloc.start()
        try:
            arrivals = list(merge_arrivals(*self.streams(count)))
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(arrivals) == self.PACKETS
        assert peak <= 1.15 * live

    def test_source_over_a_merge_holds_a_chunk_not_the_run(self):
        """An un-listed merge feeds a source a refill at a time: live
        packets are the free list the port refills plus the prefetch."""
        clear_pool()
        gc.collect()

        def live_packets():
            return sum(1 for obj in gc.get_objects() if type(obj) is Packet)

        before = live_packets()
        delivered = itertools.count(1)
        samples = []

        def receive(packet):
            packet.recycle()   # what a streaming sink does at delivery
            if next(delivered) % 2500 == 0:
                samples.append(live_packets() - before)

        sim = Simulator()
        PacketSource(sim, SimpleNamespace(receive=receive),
                     merge_arrivals(*self.streams(4)))
        sim.run()
        assert len(samples) == self.PACKETS // 2500
        assert 0 < max(samples) <= _POOL_LIMIT + 4 * PREFETCH_CHUNK
        clear_pool()


class TestDistributions:
    def test_empirical_cdf_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])
        with pytest.raises(ValueError):
            EmpiricalCDF([(10, 0.5), (20, 0.4), (30, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalCDF([(10, 0.5)])

    def test_samples_within_support(self):
        cdf = web_search_flow_sizes()
        rng = random.Random(0)
        samples = [cdf.sample(rng) for _ in range(500)]
        assert all(0 <= s <= 15_000_000 for s in samples)

    def test_data_mining_heavier_tail_than_web_search(self):
        assert data_mining_flow_sizes().mean() > web_search_flow_sizes().mean()

    def test_exponential_and_pareto_positive(self):
        rng = random.Random(1)
        assert exponential(rng, 5.0) > 0
        assert pareto(rng, shape=1.5, scale=100) >= 100
        value = bounded_pareto(rng, shape=1.2, low=10, high=1000)
        assert 10 <= value <= 1000

    def test_invalid_parameters(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            exponential(rng, 0)
        with pytest.raises(ValueError):
            pareto(rng, 0, 1)
        with pytest.raises(ValueError):
            bounded_pareto(rng, 1.0, 10, 5)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_property_cdf_sample_in_range(self, seed):
        cdf = data_mining_flow_sizes()
        sample = cdf.sample(random.Random(seed))
        assert 0 <= sample <= 1_000_000_000

