"""Packet-trace collector and chrome://tracing converter contracts.

* Attaching the collector is a pure observation: the traced run delivers
  the identical packets as an untraced run of the same scenario.
* Span timestamps are internally consistent (arrival <= enqueue <=
  dequeue <= tx, wait = dequeue - enqueue) and every delivered packet
  contributes one span per hop.
* JSONL and chrome-document serialisations round-trip losslessly,
  including through a torn (partially written) final line.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import FIFOTransaction
from repro.core import ProgrammableScheduler, single_node_tree
from repro.net import Demand, Scenario, get_scenario, linear_chain
from repro.obs.trace import (
    TraceCollector,
    read_spans,
    spans_from_chrome,
    spans_to_chrome,
    write_spans,
)


def fifo_factory(switch, port):
    return ProgrammableScheduler(single_node_tree(FIFOTransaction()))


def fifo_variant(lang_backend, pifo_backend):
    """A scenario variant: every lang back end runs native FIFO."""
    return fifo_factory


def _tiny_scenario() -> Scenario:
    return Scenario(
        name="trace_tiny",
        title="trace tiny",
        topology=lambda: linear_chain(2, link_rate_bps=2e6),
        demands=[
            Demand(src="h_src", dst="h_dst", kind="cbr",
                   rate_bps=8e5, packet_size=500, flow="c"),
        ],
        variants={"FIFO": fifo_variant},
        duration=0.05,
    )


def _traced_run(scenario, variant=None):
    collector = TraceCollector()
    results = scenario.run(variant=variant, telemetry=True,
                           tree_kernel=False, trace_hook=collector.attach)
    return collector, results


class TestCollector:
    def test_tracing_does_not_perturb_the_run(self):
        scenario = _tiny_scenario()
        untraced = scenario.run(tree_kernel=False)["FIFO"]
        collector, traced = _traced_run(scenario)
        assert traced["FIFO"].conservation == untraced.conservation
        assert traced["FIFO"].flow_stats == untraced.flow_stats

    def test_one_span_per_hop(self):
        scenario = _tiny_scenario()
        collector, results = _traced_run(scenario)
        delivered = results["FIFO"].conservation["delivered"]
        assert delivered > 0
        # chain2: every delivered packet crosses the source NIC plus two
        # switches; nothing is dropped in this underloaded scenario.
        assert len(collector.spans) == delivered * 3
        assert {span["node"] for span in collector.spans} \
            == {"h_src", "s1", "s2"}

    def test_span_timestamps_are_consistent(self):
        collector, _ = _traced_run(_tiny_scenario())
        for span in collector.spans:
            assert span["arrival"] <= span["enqueue"] <= span["dequeue"]
            assert span["dequeue"] <= span["tx"]
            assert span["wait"] == span["dequeue"] - span["enqueue"]
            assert span["queue_depth"] >= 0

    def test_ranks_recorded_at_admission(self):
        # LSTF computes a real rank per packet; the probe must capture it.
        collector, _ = _traced_run(get_scenario("fig6_chain"),
                                   variant="LSTF")
        switch_spans = [s for s in collector.spans
                        if s["node"].startswith("s")]
        assert switch_spans
        assert any(span["rank"] is not None for span in switch_spans)

    def test_fused_fabric_is_refused(self):
        # Fused ports bypass every seam the collector wraps: attaching to
        # the fast datapath must fail, not trace nothing.
        collector = TraceCollector()
        with pytest.raises(ValueError, match="tree_kernel=False"):
            _tiny_scenario().run(telemetry=False,
                                 trace_hook=collector.attach)
        assert collector.spans == []

    def test_kernel_fabric_is_refused(self):
        # Telemetry unfuses the ports, but a switch port running a tree
        # kernel never calls the rank probe: the trace would carry no
        # ranks, so attaching must fail rather than degrade silently.
        collector = TraceCollector()
        with pytest.raises(ValueError, match="tree_kernel=False"):
            get_scenario("fig6_chain").run(variant="LSTF", telemetry=True,
                                           trace_hook=collector.attach)
        assert collector.spans == []


class TestSerialisation:
    def _spans(self):
        collector, _ = _traced_run(_tiny_scenario())
        return collector.spans

    def test_jsonl_round_trip(self, tmp_path):
        spans = self._spans()
        path = tmp_path / "spans.jsonl"
        count = write_spans(spans, str(path))
        assert count == len(spans)
        assert read_spans(str(path)) == spans

    def test_torn_final_line_is_tolerated(self, tmp_path):
        spans = self._spans()
        path = tmp_path / "spans.jsonl"
        write_spans(spans, str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"packet_id": 99, "truncat')
        assert read_spans(str(path)) == spans

    def test_chrome_round_trip_is_lossless(self):
        spans = self._spans()
        doc = spans_to_chrome(spans)
        restored = spans_from_chrome(doc)
        canon = lambda rows: [dict(sorted(r.items())) for r in rows]
        assert canon(restored) == canon(spans)

    def test_chrome_document_shape(self):
        spans = self._spans()
        doc = spans_to_chrome(spans)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert json.dumps(doc)  # serialisable
        complete = [e for e in events if e.get("ph") == "X"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert len(complete) == len(spans)
        assert {m["name"] for m in meta} \
            == {"process_name", "thread_name"}
        for event in complete:
            assert event["dur"] >= 0.0
