"""Microbenchmarks — raw scheduler throughput of the Python models.

Not a paper table; this benchmark sizes the reproduction itself: packets per
second sustained by the reference engine, the mesh-backed hardware model and
the classic baselines, for the workloads the other benchmarks use.  Useful
when scaling simulation durations and when comparing against the paper's
1 GHz (10^9 packets/s) hardware target to keep expectations calibrated.

The PIFO-backend section at the bottom is parametrized over every
registered backend (see ``repro.core.backend``) on a 50 000-packet FIFO
workload, compares them against the seed's ``list.pop(0)``-based PIFO, and
writes the measured packets/second to ``BENCH_pifo_backends.json`` under
``benchmarks/out/`` (the artifact CI uploads).  Set ``BENCH_QUICK=1`` to shrink the
workload for smoke runs.
"""

from __future__ import annotations

import bisect
import os
import random
import time

import pytest
from conftest import report, write_bench_artifact

from repro.algorithms import (
    ArrivalSequenceTransaction,
    FIFOTransaction,
    StrictPriorityTransaction,
    build_fig3_tree,
    build_wfq_tree,
)
from repro.baselines import DeficitRoundRobin, FIFOQueue
from repro.core import Packet, ProgrammableScheduler, single_node_tree
from repro.core.pifo import PIFOBase
from repro.hardware import HardwareScheduler

PACKET_COUNT = 2000

#: The backend comparison workload (Section "pluggable backends" of
#: DESIGN.md).  BENCH_QUICK=1 shrinks it for CI smoke runs; the speedup
#: gates only apply at full size, where the seed's O(n^2) term dominates.
BENCH_QUICK = bool(os.environ.get("BENCH_QUICK"))
BACKEND_PACKET_COUNT = 10_000 if BENCH_QUICK else 50_000


class _SeedEntry:
    """The seed's entry object, built by a Python-level ``__init__``."""

    __slots__ = ("rank", "seq", "element")

    def __init__(self, rank, seq, element):
        self.rank = rank
        self.seq = seq
        self.element = element

    def key(self):
        return (self.rank, self.seq)


class SeedListPIFO(PIFOBase):
    """The seed's reference PIFO, kept (benchmark-only) as the baseline the
    pluggable backends are measured against: entry objects beside a
    parallel key list, unconditional bisect + two inserts per push, head
    removal via ``list.pop(0)`` — O(n) per dequeue.

    Self-contained on purpose: ``core.pifo`` has since moved to one plain
    tuple per entry in one list, and inheriting that would anachronistically
    speed up the baseline the speedup gates are defined against."""

    backend_name = "seed-list"

    def __init__(self, capacity=None, name="pifo"):
        super().__init__(capacity=capacity, name=name)
        self._entries = []
        self._keys = []

    def __len__(self):
        return len(self._entries)

    # The generic base-class push (capacity check -> _insert dispatch), as
    # the seed executed it; the entry object is built on the other side.
    push = PIFOBase.push

    def _insert(self, stored):
        entry = _SeedEntry(*stored)
        index = bisect.bisect_right(self._keys, entry.key())
        self._keys.insert(index, entry.key())
        self._entries.insert(index, entry)

    def _pop_head(self):
        self._keys.pop(0)
        entry = self._entries.pop(0)
        return (entry.rank, entry.seq, entry.element)


def make_packets(seed=0):
    rng = random.Random(seed)
    return [
        Packet(flow=rng.choice("ABCD"), length=rng.choice([500, 1000, 1500]))
        for _ in range(PACKET_COUNT)
    ]


def drive(scheduler, packets):
    for packet in packets:
        scheduler.enqueue(packet, now=0.0)
    count = 0
    while scheduler.dequeue(now=0.0) is not None:
        count += 1
    return count


def test_throughput_reference_wfq(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(
        ProgrammableScheduler(build_wfq_tree({f: 1.0 for f in "ABCD"})),
        [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_reference_hpfq(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(
        ProgrammableScheduler(build_fig3_tree()), [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_hardware_model_hpfq(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(
        HardwareScheduler(build_fig3_tree()), [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_reference_fifo(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(
        ProgrammableScheduler(single_node_tree(FIFOTransaction())),
        [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_baseline_fifo_queue(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(FIFOQueue(), [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_baseline_drr(benchmark):
    packets = make_packets()
    count = benchmark(lambda: drive(
        DeficitRoundRobin(weights={f: 1.0 for f in "ABCD"}),
        [p.copy() for p in packets]))
    assert count == PACKET_COUNT


def test_throughput_summary_table(benchmark):
    """One consolidated run printing packets/second for every model."""
    packets = make_packets()

    def run_all():
        import time

        results = {}
        candidates = {
            "reference FIFO": lambda: ProgrammableScheduler(
                single_node_tree(FIFOTransaction())),
            "reference HPFQ": lambda: ProgrammableScheduler(build_fig3_tree()),
            "hardware-model HPFQ": lambda: HardwareScheduler(build_fig3_tree()),
            "baseline FIFO queue": lambda: FIFOQueue(),
            "baseline DRR": lambda: DeficitRoundRobin(),
        }
        for name, factory in candidates.items():
            clones = [p.copy() for p in packets]
            start = time.perf_counter()
            drive(factory(), clones)
            elapsed = time.perf_counter() - start
            results[name] = PACKET_COUNT / elapsed
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "Python-model throughput (packets/second; hardware target is 10^9)",
        [{"model": name, "packets_per_second": rate} for name, rate in results.items()],
    )
    assert all(rate > 1000 for rate in results.values())


# --------------------------------------------------------------------------- #
# Pluggable PIFO backends (50 k-packet workload)                              #
# --------------------------------------------------------------------------- #
def make_backend_packets(count, seed=1):
    rng = random.Random(seed)
    return [
        Packet(flow=rng.choice("ABCDEFGH"), length=rng.choice([500, 1000, 1500]))
        for _ in range(count)
    ]


def _fifo_scheduler(backend):
    return ProgrammableScheduler(
        single_node_tree(ArrivalSequenceTransaction(), pifo_backend=backend)
    )


@pytest.mark.parametrize("backend", ["sorted", "calendar", "bucketed"])
def test_throughput_backend_fifo_50k(benchmark, backend):
    """Each registered backend sustains the 50 k-packet FIFO workload."""
    packets = make_backend_packets(BACKEND_PACKET_COUNT)
    count = benchmark.pedantic(
        lambda: drive(_fifo_scheduler(backend), [p.copy() for p in packets]),
        rounds=1,
        iterations=1,
    )
    assert count == BACKEND_PACKET_COUNT


@pytest.mark.parametrize("backend", ["sorted", "calendar"])
def test_throughput_backend_hpfq(benchmark, backend):
    """Hierarchical (float-rank) workload on the float-capable backends."""
    packets = make_packets()
    count = benchmark.pedantic(
        lambda: drive(
            ProgrammableScheduler(build_fig3_tree(pifo_backend=backend)),
            [p.copy() for p in packets],
        ),
        rounds=1,
        iterations=1,
    )
    assert count == PACKET_COUNT


def test_throughput_backends_vs_seed_50k(benchmark):
    """Acceptance gate: every pluggable backend beats the seed's
    list.pop(0) scheduler by >= 2x on the 50 k-packet workload that matches
    its rank pattern (see DESIGN.md's backend complexity table), and the
    measured rates land in BENCH_pifo_backends.json for CI.

    Two rank patterns are measured because they stress opposite costs:

    * **fifo** — monotone unique ranks; the seed pays O(n) head removal.
      Best case for the sorted list (inserts land at the tail).
    * **priority8** — 8 repeating integer ranks; the seed pays O(n) on
      *both* insert and head removal.  Best case for the bucket queue.
    """
    rng = random.Random(2)
    workloads = {
        "fifo": (
            ArrivalSequenceTransaction,
            make_backend_packets(BACKEND_PACKET_COUNT),
        ),
        "priority8": (
            StrictPriorityTransaction,
            [
                Packet(
                    flow=rng.choice("ABCDEFGH"),
                    length=rng.choice([500, 1000, 1500]),
                    priority=rng.randrange(8),
                )
                for _ in range(BACKEND_PACKET_COUNT)
            ],
        ),
    }
    candidates = ["seed-list", "sorted", "calendar", "bucketed"]

    def run_all():
        rates = {}
        for workload, (transaction_cls, packets) in workloads.items():
            for backend in candidates:
                spec = SeedListPIFO if backend == "seed-list" else backend
                scheduler = ProgrammableScheduler(
                    single_node_tree(transaction_cls(), pifo_backend=spec)
                )
                clones = [p.copy() for p in packets]
                start = time.perf_counter()
                count = drive(scheduler, clones)
                elapsed = time.perf_counter() - start
                assert count == BACKEND_PACKET_COUNT
                rates.setdefault(workload, {})[backend] = (
                    BACKEND_PACKET_COUNT / elapsed
                )
        return rates

    rates = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for workload, by_backend in rates.items():
        seed_rate = by_backend["seed-list"]
        for name, rate in by_backend.items():
            rows.append(
                {
                    "workload": workload,
                    "backend": name,
                    "packets_per_second": rate,
                    "speedup_vs_seed": rate / seed_rate,
                }
            )
    report(
        f"PIFO backend throughput ({BACKEND_PACKET_COUNT} packets per workload)",
        rows,
    )
    write_bench_artifact(
        "pifo_backends",
        {
            "packet_count": BACKEND_PACKET_COUNT,
            "workloads": {
                "fifo": "single-node FIFO, monotone arrival-sequence ranks",
                "priority8": "single-node strict priority, 8 integer rank values",
            },
            "packets_per_second": rates,
            "speedup_vs_seed": {
                workload: {
                    name: rate / by_backend["seed-list"]
                    for name, rate in by_backend.items()
                }
                for workload, by_backend in rates.items()
            },
        },
    )
    if BENCH_QUICK:
        # At smoke size the seed's quadratic term barely registers; the
        # run exists to exercise the code and emit the artifact.
        return
    # Each backend must show the >= 2x win on the workload whose rank
    # pattern it targets (and must never lose to the seed anywhere).
    gates = {
        "sorted": "fifo",
        "calendar": "fifo",
        "bucketed": "priority8",
    }
    for backend, workload in gates.items():
        ratio = rates[workload][backend] / rates[workload]["seed-list"]
        assert ratio >= 2.0, (
            f"{backend} is only {ratio:.2f}x the seed scheduler on {workload}"
        )
    for workload, by_backend in rates.items():
        for backend in ("sorted", "calendar", "bucketed"):
            assert by_backend[backend] >= 0.9 * by_backend["seed-list"], (
                f"{backend} lost to the seed scheduler on {workload}"
            )
