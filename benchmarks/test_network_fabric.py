"""Fabric throughput microbenchmark (reproduction-sizing, not a paper table).

Measures end-to-end packets/second sustained by the :mod:`repro.net` fabric
on the two canonical topologies — a 3-hop linear chain and a 4-leaf /
2-spine Clos with ECMP — parametrized over every swappable PIFO backend, so
regressions in the multi-hop forwarding path (per-hop delivery hooks, hop
stamping, routing lookups) show up directly.  The workloads are the
:data:`repro.perf.WORKLOADS` the ``repro perf`` CLI drives — one
definition, so the profiled simulation and the gated numbers can never
drift apart.  Fabrics run in the sweep configuration (``telemetry=False``,
streaming sinks, packet recycling) — the same settings the campaign engine
uses, and the configuration the hot path is tuned for; the lockstep suite
(tests/net/test_telemetry_lockstep.py) proves results are identical with
telemetry on.  Writes the measured rates to ``BENCH_network_fabric.json``
under ``benchmarks/out/`` (the artifact CI uploads; the perf-regression CI
job gates it against the committed file at the repo root).  Set ``BENCH_QUICK=1`` to shrink the
workloads for smoke runs.
"""

from __future__ import annotations

import os

import pytest
from conftest import report, write_bench_artifact

from repro.perf import PACKET_SIZE, run_workload

BENCH_QUICK = bool(os.environ.get("BENCH_QUICK"))
#: Packets pushed end to end through each topology, per backend.
CHAIN_PACKETS = 2_000 if BENCH_QUICK else 10_000
CLOS_PACKETS = 2_000 if BENCH_QUICK else 10_000
#: Best-of-N rounds per configuration: the artifact gates CI, so one
#: scheduler hiccup must not commit as a regression.
ROUNDS = int(os.environ.get("BENCH_ROUNDS", "1" if BENCH_QUICK else "3"))
BACKENDS = ["sorted", "calendar", "bucketed"]


def _best_run(topology, count, **kwargs):
    """Best-of-``ROUNDS`` measurement (max pkt/s; results are identical)."""
    best = None
    for _ in range(ROUNDS):
        result = run_workload(topology, packets=count, **kwargs)
        if best is None or result.packets_per_second > best.packets_per_second:
            best = result
    return best


@pytest.mark.parametrize("backend", BACKENDS)
def test_fabric_chain_throughput(benchmark, backend):
    """Every PIFO backend pushes the chain workload through unmodified."""
    result = benchmark.pedantic(
        lambda: run_workload("chain3", packets=CHAIN_PACKETS,
                             pifo_backend=backend),
        rounds=1, iterations=1,
    )
    assert result.delivered >= CHAIN_PACKETS * 0.99


def test_fabric_throughput_summary():
    """Consolidated packets/second table; writes the CI artifact.

    ``backends`` rows run the default datapath — fused whole-tree kernels
    (:mod:`repro.lang.treekernel`) plus fused fabric delivery — and are
    what the perf-regression gate holds the build to.  ``interpreted``
    rows re-measure the same workloads with both fusions disabled (the
    pre-kernel reference path, also gated so the fallback never rots),
    and ``speedup_fused_vs_interpreted`` records the ratio the tree-kernel
    compiler buys end to end.  The lockstep suite
    (tests/net/test_treekernel_lockstep.py) proves the two configurations
    deliver identical packets in identical order.
    """
    rows = []
    artifact = {"packet_size_bytes": PACKET_SIZE, "telemetry": False,
                "tree_kernel": True, "topologies": {}}
    for topology, count in (("chain3", CHAIN_PACKETS),
                            ("leaf_spine4x2", CLOS_PACKETS)):
        entry = {"packets": count, "backends": {}, "interpreted": {}}
        artifact["topologies"][topology] = entry
        for backend in BACKENDS:
            result = _best_run(topology, count, pifo_backend=backend)
            assert result.delivered >= count * 0.99
            assert result.kernel_installs > 0
            assert result.kernel_fallbacks == 0
            rate = result.packets_per_second
            rows.append(
                {
                    "topology": topology,
                    "backend": backend,
                    "datapath": "fused",
                    "delivered": result.delivered,
                    "packets_per_second": rate,
                }
            )
            entry["backends"][backend] = rate
        # Interpreted reference on the default backend only: one row per
        # topology bounds the benchmark's runtime while still gating the
        # fallback path end to end.
        reference = _best_run(topology, count,
                              pifo_backend="sorted", tree_kernel=False)
        assert reference.delivered >= count * 0.99
        assert reference.kernel_installs == 0
        entry["interpreted"]["sorted"] = reference.packets_per_second
        entry["speedup_fused_vs_interpreted"] = (
            entry["backends"]["sorted"] / reference.packets_per_second
        )
        rows.append(
            {
                "topology": topology,
                "backend": "sorted",
                "datapath": "interpreted",
                "delivered": reference.delivered,
                "packets_per_second": reference.packets_per_second,
            }
        )
    report("Fabric throughput (end-to-end packets/second)", rows)
    write_bench_artifact("network_fabric", artifact)
    # A Python fabric should comfortably sustain thousands of packets/s on
    # every backend; anything lower signals a forwarding-path regression.
    assert all(row["packets_per_second"] > 1000 for row in rows)
