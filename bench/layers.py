"""Isolated layer drivers: one public call per layer, fixed operation counts.

Each driver builds what it needs, times only the calls into the layer (GC
paused, like every timed section of the benchmark) and returns seconds;
:func:`run_layer_drivers` repeats it :data:`ROUNDS` times and reports the
median per operation.  Nothing here depends on the workload being
measured: these numbers are the per-operation cost of each layer on this
machine, to be read next to the layer's share in the traced run.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

from repro.algorithms import ArrivalSequenceTransaction, FIFOTransaction
from repro.campaign import (
    PAPER_SWEEP,
    Campaign,
    CampaignRunner,
    ResultStore,
    WarmWorkerEngine,
    WarmupSpec,
)
from repro.core import (
    Packet,
    ProgrammableScheduler,
    TransactionContext,
    make_pifo,
    single_node_tree,
)
from repro.lang.compiler import clear_compile_cache
from repro.lang.programs import stfq_program
from repro.lang.treekernel import clear_kernel_cache
from repro.lang.trees import (
    build_fig3_tree_from_programs,
    build_fig4_tree_from_programs,
)
from repro.obs import metrics
from repro.sim import EventQueue, OutputPort, PacketSink, PacketSource, Simulator
from repro.switch import SharedMemorySwitch
from repro.traffic import FlowSpec, cbr_arrivals, flow_arrivals

from harness import gc_paused, timed_repetition
from workloads import FIFO_CHAIN3, scratch_dir

#: Rounds per driver; the reported value is the median round.
ROUNDS = 5


class _Stopwatch:
    seconds = 0.0


@contextmanager
def _timed() -> Iterator[_Stopwatch]:
    watch = _Stopwatch()
    with gc_paused():
        started = time.perf_counter()
        try:
            yield watch
        finally:
            watch.seconds = time.perf_counter() - started


def _packets(count: int, flows: str = "f", length: int = 500) -> List[Packet]:
    return [Packet(flow=flows[i % len(flows)], length=length)
            for i in range(count)]


# -- sim -------------------------------------------------------------------- #
def events_churn(ops: int) -> float:
    """EventQueue.push + pop, holding the queue 32 deep."""
    queue = EventQueue()
    callback = int
    for i in range(32):
        queue.push(float(i), callback)
    with _timed() as watch:
        for i in range(32, 32 + ops):
            queue.push(float(i), callback)
            queue.pop()
    return watch.seconds


def simulator_events(ops: int) -> float:
    """Simulator.schedule + run over self-rescheduling no-op callbacks."""
    sim = Simulator()
    remaining = [ops]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    with _timed() as watch:
        sim.run()
    return watch.seconds


def port_transmit(ops: int) -> float:
    """One OutputPort fed by one PacketSource at 0.9 load, no fabric."""
    sim = Simulator()
    scheduler = ProgrammableScheduler(single_node_tree(FIFOTransaction()))
    port = OutputPort(sim, scheduler, rate_bps=1e9,
                      sink=PacketSink(keep_packets=False))
    spec = FlowSpec(name="load", rate_bps=0.9e9, packet_size=500)
    arrivals = list(cbr_arrivals(spec, duration=ops * 500 * 8 / 0.9e9))
    PacketSource(sim, port, arrivals)
    with _timed() as watch:
        sim.run()
    return watch.seconds


def sink_record(ops: int) -> float:
    """PacketSink.record in streaming mode."""
    sink = PacketSink(keep_packets=False)
    packets = _packets(ops, flows="abcd")
    for index, packet in enumerate(packets):
        packet.departure_time = 1e-6 * index
    with _timed() as watch:
        for packet in packets:
            sink.record(packet)
    return watch.seconds


def switch_receive(ops: int) -> float:
    """SharedMemorySwitch.receive: admission + buffer + scheduler enqueue."""
    sim = Simulator()
    switch = SharedMemorySwitch(
        sim,
        lambda port: ProgrammableScheduler(
            single_node_tree(ArrivalSequenceTransaction())),
        port_count=1, telemetry=False)
    packets = _packets(ops)
    with _timed() as watch:
        for packet in packets:
            switch.receive(packet, "port0")
    sim.run()
    return watch.seconds


# -- core ------------------------------------------------------------------- #
def _pifo_churn(ops: int, ranks: Callable[[int], float]) -> float:
    pifo = make_pifo("sorted")
    for i in range(1000):
        pifo.push(i, ranks(i))
    with _timed() as watch:
        for i in range(1000, 1000 + ops):
            pifo.push(i, ranks(i))
            pifo.pop()
    return watch.seconds


def pifo_fifo(ops: int) -> float:
    """Sorted PIFO at depth 1000, monotone ranks (append + pop head)."""
    return _pifo_churn(ops, float)


def pifo_pushin(ops: int) -> float:
    """Sorted PIFO at depth 1000, random ranks (push-in + pop head)."""
    rng = random.Random(7)
    return _pifo_churn(ops, lambda i: rng.random())


def _scheduler_churn(scheduler: ProgrammableScheduler, ops: int) -> float:
    packets = _packets(ops, flows="ABCD", length=1500)
    with _timed() as watch:
        now = 0.0
        for packet in packets:
            now += 1.2e-4  # 1500 B at 100 Mbit/s
            scheduler.enqueue(packet, now)
            scheduler.dequeue(now)
    return watch.seconds


def scheduler_fifo(ops: int) -> float:
    """ProgrammableScheduler enqueue + dequeue, single FIFO node."""
    return _scheduler_churn(
        ProgrammableScheduler(single_node_tree(FIFOTransaction())), ops)


def scheduler_hpfq_shaped(ops: int) -> float:
    """The same through Fig. 4's hierarchy with token-bucket shaping."""
    return _scheduler_churn(
        ProgrammableScheduler(build_fig4_tree_from_programs()), ops)


# -- lang ------------------------------------------------------------------- #
def lang_compile(ops: int) -> float:
    """Program text -> transactions for Fig. 4's four programs, cold cache."""
    with _timed() as watch:
        for _ in range(ops):
            clear_compile_cache()
            build_fig4_tree_from_programs()
    return watch.seconds


def treekernel_compile(ops: int) -> float:
    """Generate and install the whole-tree kernel of Fig. 3, cold cache."""
    trees = [build_fig3_tree_from_programs() for _ in range(ops)]
    with _timed() as watch:
        for tree in trees:
            clear_kernel_cache()
            ProgrammableScheduler(tree)
    return watch.seconds


def lang_rank(ops: int) -> float:
    """compute_rank of the compiled STFQ program."""
    transaction = stfq_program(weights={"A": 3.0, "B": 7.0})
    packets = _packets(ops, flows="AB", length=1500)
    ctx = TransactionContext(node="n", element_length=1500)
    with _timed() as watch:
        for packet in packets:
            ctx.element_flow = packet.flow
            transaction.compute_rank(packet, ctx)
    return watch.seconds


# -- traffic ---------------------------------------------------------------- #
def traffic_cbr(ops: int) -> float:
    spec = FlowSpec(name="load", rate_bps=0.9e9, packet_size=500, dst="h_dst")
    with _timed() as watch:
        produced = len(list(cbr_arrivals(spec, duration=ops * 500 * 8 / 0.9e9)))
    return watch.seconds * ops / produced


def traffic_flows(ops: int) -> float:
    """Heavy-tailed finite flows (the FCT workload generator)."""
    # 1500 B packets at 0.4 Gbit/s: about 33k packets per simulated second.
    duration = ops / 33_000
    with _timed() as watch:
        produced = len(list(flow_arrivals("f", load_bps=0.4e9,
                                          duration=duration, seed=1)))
    return watch.seconds * ops / max(1, produced)


# -- campaign --------------------------------------------------------------- #
#: A 12-run sweep of the small scenario: every PIFO and lang back end once.
MINI_SWEEP = Campaign(
    name="bench_mini_sweep",
    title="fig6_chain x PIFO backends x lang backends",
    scenarios=["fig6_chain"],
    pifo_backends=["sorted", "calendar", "quantized"],
    lang_backends=["compiled", "interpreted"],
)


def spec_expand(ops: int) -> float:
    campaign = dataclasses.replace(PAPER_SWEEP, replicates=2)
    with _timed() as watch:
        for _ in range(ops):
            campaign.expand(quick=True)
    return watch.seconds


def _mini_sweep(tmp: str, tag: str, engine=None):
    runner = CampaignRunner(MINI_SWEEP, ResultStore(f"{tmp}/{tag}.jsonl"),
                            workers=1 if engine is None else 2, quick=True,
                            engine=engine)
    with _timed() as watch:
        report = runner.run()
    return watch.seconds, report


def campaign_metrics(smoke: bool) -> Dict[str, float]:
    """Runner throughput and overhead, store append cost, 2-worker speed-up."""
    tmp = tempfile.mkdtemp(prefix="bench_layers_", dir=scratch_dir())
    try:
        _mini_sweep(tmp, "warmup")
        walls, overheads = [], []
        for round_index in range(ROUNDS):
            wall, report = _mini_sweep(tmp, f"serial{round_index}")
            inside = sum(r["wall_clock_s"] for r in report.records)
            walls.append(wall)
            overheads.append(1.0 - inside / wall)
        serial = statistics.median(walls)

        record = report.records[0]
        appends = 20 if smoke else 400
        store = ResultStore(f"{tmp}/append.jsonl")
        with _timed() as watch:
            for _ in range(appends):
                store.append(record)

        # Informational: two warm workers against the serial loop above.
        with WarmWorkerEngine(workers=2,
                              warmup=WarmupSpec.for_campaign(MINI_SWEEP)) as engine:
            engine_walls = [_mini_sweep(tmp, f"engine{i}", engine)[0]
                            for i in range(3)]
        return {
            "campaign.runner.runs_per_s": MINI_SWEEP.size() / serial,
            "campaign.runner.overhead_share": statistics.median(overheads),
            "campaign.store.append_us_per_record": 1e6 * watch.seconds / appends,
            "campaign.engine.speedup_2w": serial / statistics.median(engine_walls),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- obs -------------------------------------------------------------------- #
def metrics_on_ratio(smoke: bool) -> float:
    """fifo_chain3 throughput with the metrics registry on / off."""
    workload = dataclasses.replace(FIFO_CHAIN3,
                                   packets=2_000 if smoke else 30_000)

    def rate() -> float:
        rep = timed_repetition(workload, seed=0, scale=1)
        return rep["outcome"].delivered / rep["wall_s"]

    rate()
    ratios = []
    for _ in range(3):
        off = rate()
        with metrics.collecting():
            on = rate()
        ratios.append(on / off)
    return statistics.median(ratios)


#: name -> (driver, operations per round, unit scale from seconds per op).
_PER_OP_DRIVERS = {
    "sim.events.churn_ns_per_op": (events_churn, 100_000, 1e9),
    "sim.simulator.ns_per_event": (simulator_events, 100_000, 1e9),
    "sim.link.port_ns_per_pkt": (port_transmit, 20_000, 1e9),
    "sim.sink.record_ns_per_pkt": (sink_record, 50_000, 1e9),
    "switch.receive_ns_per_pkt": (switch_receive, 20_000, 1e9),
    "core.pifo.fifo_ns_per_op": (pifo_fifo, 50_000, 1e9),
    "core.pifo.pushin_ns_per_op": (pifo_pushin, 50_000, 1e9),
    "core.scheduler.fifo_ns_per_pkt": (scheduler_fifo, 20_000, 1e9),
    "core.scheduler.hpfq_shaped_ns_per_pkt": (scheduler_hpfq_shaped, 2_000, 1e9),
    "lang.compiler.compile_ms": (lang_compile, 5, 1e3),
    "lang.treekernel.compile_ms": (treekernel_compile, 5, 1e3),
    "lang.compiler.rank_ns_per_call": (lang_rank, 20_000, 1e9),
    "traffic.cbr_ns_per_pkt": (traffic_cbr, 50_000, 1e9),
    "traffic.flows_ns_per_pkt": (traffic_flows, 20_000, 1e9),
    "campaign.spec.expand_ms": (spec_expand, 20, 1e3),
}

def run_layer_drivers(smoke: bool) -> Dict[str, float]:
    """Every isolated layer metric; ``smoke`` divides the op counts by 50."""
    results: Dict[str, float] = {}
    for name, (driver, ops, unit) in _PER_OP_DRIVERS.items():
        if smoke:
            ops = max(2, ops // 50)
        driver(ops)
        per_op = statistics.median(driver(ops) / ops for _ in range(ROUNDS))
        results[name] = per_op * unit
    results.update(campaign_metrics(smoke))
    results["obs.metrics_on_ratio"] = metrics_on_ratio(smoke)
    return results
